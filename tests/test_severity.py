"""Severity engine: golden table data, scoring method, bands, and validation.

GOLDEN_CELLS below is an independent transcription of the published six
context tables (one row per threat across all six contexts, letters for the
cell colors). The engine's shipped CSV must match it cell for cell, and the
brute-force recomputation here is the oracle for `validate_tables`.
"""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agvsim.domain import AgencyBucket, DrivingMode, ThreatId
from agvsim.severity import (
    OrdinalRating,
    SeverityBand,
    band,
    load_tables,
    lookup,
    points,
    total,
    validate_tables,
    what_if,
)

# context order: (Manual,Low) (Manual,Medium) (Manual,High)
#                (Autonomous,Low) (Autonomous,Medium) (Autonomous,High)
CONTEXTS = [
    (DrivingMode.MANUAL, AgencyBucket.LOW, 1),
    (DrivingMode.MANUAL, AgencyBucket.MEDIUM, 2),
    (DrivingMode.MANUAL, AgencyBucket.HIGH, 3),
    (DrivingMode.AUTONOMOUS, AgencyBucket.LOW, 4),
    (DrivingMode.AUTONOMOUS, AgencyBucket.MEDIUM, 5),
    (DrivingMode.AUTONOMOUS, AgencyBucket.HIGH, 6),
]

# "SI SD P SM printed-total color" with colors G/Y/O/R = Low/Medium/High/Critical
GOLDEN_CELLS = {
    "T1":  ["LLLL 4 G", "MMHM 9 Y", "HHHH 12 O", "MLLM 7 G", "HHHH 12 O", "CHCC 15 R"],
    "T2":  ["LMLL 5 G", "MHMM 9 Y", "HHHH 12 O", "MMMM 8 Y", "HHHH 12 O", "CCHC 15 R"],
    "T3":  ["LMML 6 G", "MHMM 9 Y", "HHHH 12 O", "MMHM 9 Y", "HHHH 12 O", "CHCH 14 R"],
    "T4":  ["LLLL 4 G", "MMMM 8 Y", "HMHH 11 O", "MMMM 8 Y", "HMHH 11 O", "HMHH 11 O"],
    "T5":  ["LMLM 6 G", "MHMM 9 Y", "HHHH 12 O", "MMMM 8 Y", "HHHH 12 O", "CCHC 15 R"],
    "T6":  ["LLMM 6 G", "MMHH 10 O", "HHHH 12 O", "MMMH 9 Y", "HHHH 12 O", "CHCC 15 R"],
    "T7":  ["LMMM 7 G", "MHHH 11 O", "HHHC 13 O", "MMMH 9 Y", "HHHH 12 O", "CCCC 16 R"],
    "T8":  ["LLML 5 G", "MHHM 10 O", "MHHM 10 O", "MHHM 10 O", "HHHH 12 O", "HCHH 13 R"],
    "T9":  ["LMML 6 G", "MHMM 9 Y", "MHHH 11 O", "MMMM 8 Y", "HHHH 12 O", "CHHC 14 R"],
    "T10": ["LLLL 4 G", "MMMM 8 Y", "MMMM 8 Y", "LLLL 4 G", "MMLM 7 G", "MMLM 7 Y"],
    "T11": ["LMML 6 G", "MHHM 10 O", "CHCH 13 R", "HMHM 10 O", "CHCH 14 R", "CCCC 16 R"],
    "T12": ["LMML 6 G", "MHMM 9 Y", "HHHH 12 O", "MMMM 8 Y", "HHHH 12 O", "CHHC 14 R"],
    "T13": ["LMML 6 G", "MHHM 10 O", "HHHC 13 R", "HMHM 10 O", "HHHH 12 O", "CHHC 14 R"],
    "T14": ["LMLL 5 G", "MMMM 8 Y", "HMHH 11 O", "MMMM 8 Y", "HMHH 11 O", "HMHH 11 O"],
    "T15": ["LMMM 7 G", "MHHH 11 O", "HHHH 12 O", "LMMM 7 G", "MHHH 11 O", "HHHH 12 O"],
}

COLOR_BAND = {
    "G": SeverityBand.LOW,
    "Y": SeverityBand.MEDIUM,
    "O": SeverityBand.HIGH,
    "R": SeverityBand.CRITICAL,
}


def _golden(threat: str, index: int):
    letters, printed_total, color = GOLDEN_CELLS[threat][index].split()
    ratings = tuple(OrdinalRating(c) for c in letters)
    return ratings, int(printed_total), COLOR_BAND[color]


def _all_cells():
    for threat in GOLDEN_CELLS:
        for index, (mode, agency, table) in enumerate(CONTEXTS):
            yield threat, index, mode, agency, table


class TestPointsAndTotals:
    @pytest.mark.parametrize(
        "rating,expected",
        [(OrdinalRating.L, 1), (OrdinalRating.M, 2), (OrdinalRating.H, 3), (OrdinalRating.C, 4)],
    )
    def test_point_mapping(self, rating, expected):
        assert points(rating) == expected

    def test_total_examples(self):
        L, M, H, C = OrdinalRating.L, OrdinalRating.M, OrdinalRating.H, OrdinalRating.C
        assert total(L, L, L, L) == 4    # lowest published cell
        assert total(C, C, C, C) == 16   # highest published cell
        assert total(H, H, H, C) == 13


class TestBands:
    @pytest.mark.parametrize(
        "score,expected",
        [
            (4, SeverityBand.LOW), (7, SeverityBand.LOW),
            (8, SeverityBand.MEDIUM), (10, SeverityBand.MEDIUM),
            (11, SeverityBand.HIGH), (13, SeverityBand.HIGH),
            (14, SeverityBand.CRITICAL), (16, SeverityBand.CRITICAL),
        ],
    )
    def test_interval_boundaries(self, score, expected):
        assert band(score) is expected

    @pytest.mark.parametrize("score", [3, 17, 0, -1])
    def test_out_of_range_rejected(self, score):
        with pytest.raises(ValueError):
            band(score)

    def test_exhaustive_totality_over_all_rating_tuples(self):
        # every one of the 4^4 combinations lands inside a band
        for combo in product(OrdinalRating, repeat=4):
            value = total(*combo)
            assert 4 <= value <= 16
            band(value)

    def test_monotone_in_each_dimension(self):
        order = [OrdinalRating.L, OrdinalRating.M, OrdinalRating.H, OrdinalRating.C]
        rank = {b: i for i, b in enumerate(SeverityBand)}
        for combo in product(order, repeat=4):
            base = band(total(*combo))
            for dim in range(4):
                position = order.index(combo[dim])
                if position == 3:
                    continue
                raised = list(combo)
                raised[dim] = order[position + 1]
                assert rank[band(total(*raised))] >= rank[base]


class TestTableFidelity:
    def test_dataset_has_90_cells(self):
        assert len(load_tables()) == 90

    @pytest.mark.parametrize("threat,index,mode,agency,table", list(_all_cells()))
    def test_lookup_matches_golden_transcription(self, threat, index, mode, agency, table):
        ratings, printed_total, printed_band = _golden(threat, index)
        record = lookup(ThreatId(threat), mode, agency)
        assert (record.si, record.sd, record.p, record.sm) == ratings
        assert record.printed_total == printed_total
        assert record.printed_band is printed_band
        assert record.table == table

    def test_spec_anchor_cells(self):
        r = lookup(ThreatId.T11, DrivingMode.AUTONOMOUS, AgencyBucket.MEDIUM)
        assert [x.value for x in (r.si, r.sd, r.p, r.sm)] == ["C", "H", "C", "H"]
        assert r.recomputed_total == 14
        r = lookup(ThreatId.T10, DrivingMode.AUTONOMOUS, AgencyBucket.LOW)
        assert [x.value for x in (r.si, r.sd, r.p, r.sm)] == ["L", "L", "L", "L"]
        assert r.recomputed_total == 4
        r = lookup(ThreatId.T7, DrivingMode.AUTONOMOUS, AgencyBucket.HIGH)
        assert [x.value for x in (r.si, r.sd, r.p, r.sm)] == ["C", "C", "C", "C"]
        assert r.recomputed_total == 16

    def test_cross_layer_ids_have_no_rows(self):
        with pytest.raises(KeyError):
            lookup(ThreatId.X_V2X, DrivingMode.MANUAL, AgencyBucket.LOW)


def brute_force_discrepancies() -> list[tuple[int, str, int, int, SeverityBand, SeverityBand]]:
    """Independent recomputation of every golden cell."""
    found = []
    for threat, index, mode, agency, table in _all_cells():
        ratings, printed_total, printed_band = _golden(threat, index)
        recomputed = sum(points(r) for r in ratings)
        recomputed_band = band(recomputed)
        if recomputed != printed_total or recomputed_band is not printed_band:
            found.append((table, threat, printed_total, recomputed, printed_band, recomputed_band))
    found.sort(key=lambda item: (item[0], list(GOLDEN_CELLS).index(item[1])))
    return found


class TestValidateTables:
    def test_flags_exactly_the_brute_force_discrepancies(self):
        expected = brute_force_discrepancies()
        actual = [
            (d.table, d.threat.value, d.printed_total, d.recomputed_total,
             d.printed_band, d.recomputed_band)
            for d in validate_tables()
        ]
        assert actual == expected  # zero false positives, zero misses

    def test_known_inconsistent_cells_present(self):
        flagged = {(d.table, d.threat.value) for d in validate_tables()}
        # printed total 13 for ratings summing to 14
        assert (3, "T11") in flagged
        # printed 7 but colored above Low
        assert (6, "T10") in flagged
        # 13 colored Critical though 11-13 is the High interval
        assert (3, "T13") in flagged

    def test_consistent_cell_not_flagged(self):
        flagged = {(d.table, d.threat.value) for d in validate_tables()}
        assert (1, "T1") not in flagged

    def test_table_iii_t11_detail(self):
        d = next(x for x in validate_tables() if x.table == 3 and x.threat is ThreatId.T11)
        assert d.printed_total == 13
        assert d.recomputed_total == 14
        assert d.total_mismatch

    def test_idempotent(self):
        assert validate_tables() == validate_tables()

    def test_discrepancies_are_ordered(self):
        keys = [(d.table, list(GOLDEN_CELLS).index(d.threat.value)) for d in validate_tables()]
        assert keys == sorted(keys)


class TestWhatIf:
    def test_single_override_shifts_total(self):
        base_total, base_band = what_if(ThreatId.T1, DrivingMode.MANUAL, AgencyBucket.LOW)
        assert (base_total, base_band) == (4, SeverityBand.LOW)
        new_total, new_band = what_if(
            ThreatId.T1, DrivingMode.MANUAL, AgencyBucket.LOW, {"si": OrdinalRating.C}
        )
        assert (new_total, new_band) == (7, SeverityBand.LOW)

    def test_no_overrides_equals_lookup_recomputation(self):
        for threat, index, mode, agency, _ in _all_cells():
            expected = lookup(ThreatId(threat), mode, agency).recomputed_total
            assert what_if(ThreatId(threat), mode, agency)[0] == expected

    def test_all_overrides_critical(self):
        result = what_if(
            ThreatId.T10, DrivingMode.MANUAL, AgencyBucket.LOW,
            {d: OrdinalRating.C for d in ("si", "sd", "p", "sm")},
        )
        assert result == (16, SeverityBand.CRITICAL)

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError):
            what_if(ThreatId.T1, DrivingMode.MANUAL, AgencyBucket.LOW, {"zz": OrdinalRating.C})


@given(st.tuples(*[st.sampled_from(list(OrdinalRating))] * 4))
def test_total_always_bandable(ratings):
    assert band(total(*ratings)) in SeverityBand
