"""Ordinal severity scoring over six operating contexts.

Each threat is rated on four dimensions (safety impact, stealth and
detectability, persistence, semantic misalignment) on an L < M < H < C scale,
summed via L=1/M=2/H=3/C=4, and banded Low 4-7, Medium 8-10, High 11-13,
Critical 14-16. The shipped dataset keeps the published totals and band
colors alongside the ratings instead of trusting them: the canonical value
is always the recomputed sum, and `validate_tables` reports every cell whose
printed total or band disagrees with it.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from enum import Enum
from functools import lru_cache
from importlib import resources

from .domain import AgencyBucket, DrivingMode, ThreatId, record


class OrdinalRating(str, Enum):
    L = "L"
    M = "M"
    H = "H"
    C = "C"


_POINTS = {OrdinalRating.L: 1, OrdinalRating.M: 2, OrdinalRating.H: 3, OrdinalRating.C: 4}

DIMENSIONS = ("si", "sd", "p", "sm")


class SeverityBand(str, Enum):
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"
    CRITICAL = "Critical"


def points(rating: OrdinalRating) -> int:
    """L=1, M=2, H=3, C=4."""
    return _POINTS[OrdinalRating(rating)]


def total(si: OrdinalRating, sd: OrdinalRating, p: OrdinalRating, sm: OrdinalRating) -> int:
    """Sum of the four dimension points, in [4, 16]."""
    return points(si) + points(sd) + points(p) + points(sm)


def band(score: int) -> SeverityBand:
    """Band a summed score: 4-7 Low, 8-10 Medium, 11-13 High, 14-16 Critical."""
    if not 4 <= score <= 16:
        raise ValueError(f"severity total must be in [4, 16], got {score}")
    if score <= 7:
        return SeverityBand.LOW
    if score <= 10:
        return SeverityBand.MEDIUM
    if score <= 13:
        return SeverityBand.HIGH
    return SeverityBand.CRITICAL


@record
class SeverityRecord:
    """One (threat, context) cell: ratings plus the published total/band."""

    threat: ThreatId
    mode: DrivingMode
    agency: AgencyBucket
    table: int  # source table number, 1-6
    si: OrdinalRating
    sd: OrdinalRating
    p: OrdinalRating
    sm: OrdinalRating
    printed_total: int
    printed_band: SeverityBand

    @property
    def recomputed_total(self) -> int:
        return total(self.si, self.sd, self.p, self.sm)

    @property
    def recomputed_band(self) -> SeverityBand:
        return band(self.recomputed_total)

    @property
    def total_mismatch(self) -> bool:
        return self.printed_total != self.recomputed_total

    @property
    def band_mismatch(self) -> bool:
        return self.printed_band is not self.recomputed_band

    def describe(self) -> str:
        parts = [f"table {self.table} {self.threat.value}:"]
        if self.total_mismatch:
            parts.append(f"printed total {self.printed_total} != recomputed {self.recomputed_total};")
        if self.band_mismatch:
            parts.append(
                f"printed band {self.printed_band.value} != recomputed {self.recomputed_band.value};"
            )
        return " ".join(parts).rstrip(";")


_RATED_THREATS = tuple(t for t in ThreatId if not t.is_cross_layer)


@lru_cache(maxsize=1)
def load_tables() -> dict[tuple[ThreatId, DrivingMode, AgencyBucket], SeverityRecord]:
    """Load the shipped 90-cell dataset, keyed by (threat, mode, agency)."""
    table: dict[tuple[ThreatId, DrivingMode, AgencyBucket], SeverityRecord] = {}
    data = resources.files("agvsim").joinpath("data/severity_tables.csv").read_text()
    for row in csv.DictReader(data.splitlines()):
        record = SeverityRecord(
            threat=ThreatId(row["threat"]),
            mode=DrivingMode(row["mode"]),
            agency=AgencyBucket(row["agency"]),
            table=int(row["table"]),
            si=OrdinalRating(row["si"]),
            sd=OrdinalRating(row["sd"]),
            p=OrdinalRating(row["p"]),
            sm=OrdinalRating(row["sm"]),
            printed_total=int(row["printed_total"]),
            printed_band=SeverityBand(row["printed_band"]),
        )
        key = (record.threat, record.mode, record.agency)
        if key in table:
            raise ValueError(f"duplicate severity cell {key}")
        table[key] = record
    expected = len(_RATED_THREATS) * len(DrivingMode) * len(AgencyBucket)
    if len(table) != expected:
        raise ValueError(f"severity dataset has {len(table)} cells, expected {expected}")
    return table


def lookup(threat: ThreatId, mode: DrivingMode, agency: AgencyBucket) -> SeverityRecord:
    """Return the stored cell for one threat/context combination."""
    if threat.is_cross_layer:
        raise KeyError(f"{threat.value} has no severity-table row (agentic threats only)")
    return load_tables()[(ThreatId(threat), DrivingMode(mode), AgencyBucket(agency))]


def validate_tables() -> list[SeverityRecord]:
    """Recompute every cell and return each internally inconsistent one.

    A cell is flagged when its printed total differs from the recomputed sum
    or its printed band differs from banding the recomputed sum. Output is
    ordered by (table, threat) and stable across runs.
    """
    records = sorted(load_tables().values(), key=lambda r: (r.table, _RATED_THREATS.index(r.threat)))
    return [r for r in records if r.total_mismatch or r.band_mismatch]


def what_if(
    threat: ThreatId,
    mode: DrivingMode,
    agency: AgencyBucket,
    overrides: dict[str, OrdinalRating] | None = None,
) -> tuple[int, SeverityBand]:
    """Recompute a cell's total/band with some dimensions overridden."""
    record = lookup(threat, mode, agency)
    if overrides:
        unknown = set(overrides) - set(DIMENSIONS)
        if unknown:
            raise ValueError(f"unknown severity dimensions: {sorted(unknown)}")
        record = replace(record, **{dim: OrdinalRating(r) for dim, r in overrides.items()})
    return record.recomputed_total, record.recomputed_band
