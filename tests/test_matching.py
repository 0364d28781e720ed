import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from chainalign import matching
from chainalign.chain import SolverConfig
from chainalign.matching import (
    Alignment,
    Correspondence,
    alignment_to_json,
    hungarian_max,
    load_alignment,
    refine,
    save_alignment,
    to_matrix,
)
from chainalign.pipeline import align

from benchcases import make_perturbation_case
from oracles import brute_force_assignment, greedy_row_assignment_total, lexicographic_assignment


@st.composite
def tie_heavy_matrices(draw, shapes=st.tuples(st.integers(1, 8), st.integers(1, 8))):
    """m x n matrices, m and n in 1..8 by default, over a few planted
    values: exact ties, zeros, the smallest subnormal and each value's
    1-ulp neighbours."""
    m, n = draw(shapes)
    planted = draw(st.lists(
        st.sampled_from([0.0, 5e-324, 1e-300, 0.1, 0.7, 1.0]) | st.floats(0.0, 1.0),
        min_size=1, max_size=4,
    ))
    pool = sorted({float(v) for p in planted
                   for v in (p, np.nextafter(p, 0.0), np.nextafter(p, 2.0))})
    cells = draw(st.lists(st.sampled_from(pool), min_size=m * n, max_size=m * n))
    return np.array(cells).reshape(m, n)


# at least twice as wide as tall, or as tall as wide, up to 9: the shapes
# where hungarian_max drops columns (rows) and adds its class row
LOPSIDED = st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(2 * k, 9))).flatmap(
    lambda shape: st.sampled_from([shape, shape[::-1]]))


def ids_for(m, n):
    """Row and column term ids of an m x n score matrix."""
    return [f"L{i}" for i in range(m)], [f"R{j}" for j in range(n)]


class TestToMatrix:
    def test_single_state(self):
        mat = to_matrix(np.array([1.0]), *ids_for(1, 1))
        assert mat.tolist() == [[1.0]]

    def test_rescaled_by_max(self):
        mat = to_matrix(np.array([0.4, 0.1, 0.1, 0.4]), *ids_for(2, 2))
        assert mat.tolist() == [[1.0, 0.25], [0.25, 1.0]]

    def test_all_equal_values_give_all_ones(self):
        mat = to_matrix(np.full(6, 1 / 6), *ids_for(2, 3))
        assert mat.tolist() == [[1.0] * 3, [1.0] * 3]

    def test_row_and_column_ids(self):
        mat = to_matrix(np.arange(1.0, 7.0), *ids_for(2, 3))
        assert mat[1, 2] == 1.0  # the max cell

    def test_all_zero_distribution_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            to_matrix(np.zeros(4), *ids_for(2, 2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match the state count"):
            to_matrix(np.ones(3), *ids_for(2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25, -5e-324])
    def test_non_finite_or_negative_distribution_rejected(self, bad):
        dist = np.array([0.5, 0.25, bad, 0.25])
        with np.errstate(all="raise"):  # no RuntimeWarning on the way to the error
            with pytest.raises(ValueError, match=r"^distribution entries must be finite "
                               r"and non-negative; state 2 is "):
                to_matrix(dist, *ids_for(2, 2))


class TestHungarianMax:
    def test_two_by_two_hand_example(self):
        pairs = hungarian_max(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert pairs == [(0, 0), (1, 1)]

    def test_identity_pattern_takes_diagonal(self):
        pairs = hungarian_max(np.eye(5))
        assert pairs == [(i, i) for i in range(5)]

    def test_rectangular_hand_example(self):
        pairs = hungarian_max(np.array([[0.5, 0.1], [0.9, 0.2], [0.1, 0.8]]))
        assert pairs == [(1, 0), (2, 1)]

    def test_wide_matrix(self):
        pairs = hungarian_max(np.array([[0.1, 0.9, 0.3], [0.8, 0.2, 0.4]]))
        assert pairs == [(0, 1), (1, 0)]

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            hungarian_max(np.zeros((0, 0)))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            hungarian_max(np.array([[1.0, -0.1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            hungarian_max(np.array([[1.0, bad], [0.5, 0.2]]))

    def test_all_ties_resolve_lexicographically(self):
        pairs = hungarian_max(np.ones((3, 3)))
        assert pairs == [(0, 0), (1, 1), (2, 2)]

    def test_tie_break_prefers_small_columns_in_early_rows(self):
        # both diagonals weigh 1.0; row 0 must take column 0
        pairs = hungarian_max(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert pairs == [(0, 0), (1, 1)]

    def test_tie_break_on_unmatched_rows(self):
        # only one column: matching row 0 and matching row 1 both score 1.0;
        # the lexicographically smaller assignment uses row 0
        pairs = hungarian_max(np.array([[1.0], [1.0]]))
        assert pairs == [(0, 0)]

    def test_tight_edge_on_no_optimum_is_rejected(self):
        # (1, 1) is tight under the optimal duals but lies on no maximum-
        # weight matching: row 2 scores only in column 1. Row 1 must not take
        # it, though it is the smaller of row 1's two tight columns.
        mat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
        tights = []

        def spy(*args):
            tight_rows, tight_cols = exact_duals(*args)
            tight = np.zeros(mat.shape, dtype=bool)
            tight[tight_rows, tight_cols] = True  # indexed by column
            tights.append(tight)
            return tight_rows, tight_cols

        exact_duals = matching._exact_duals
        with mock.patch.object(matching, "_exact_duals", spy):
            pairs = hungarian_max(mat)
        assert tights[0][1, 1]
        assert pairs == lexicographic_assignment(mat.tolist()) == [(0, 0), (1, 2), (2, 1)]

    def test_matches_brute_force_on_seeded_matrices(self):
        rng = random.Random(77)
        for _ in range(150):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            mat = [[rng.random() for _ in range(n)] for _ in range(m)]
            expected, _ = brute_force_assignment(mat)
            assert hungarian_max(np.array(mat)) == expected

    def test_matches_brute_force_on_tied_matrices(self):
        rng = random.Random(78)
        for _ in range(150):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            # few distinct values force plenty of equal-total optima
            mat = [[rng.choice([0.0, 0.5, 1.0]) for _ in range(n)] for _ in range(m)]
            expected, _ = brute_force_assignment(mat)
            assert hungarian_max(np.array(mat)) == expected

    @pytest.mark.parametrize("shape", [(3, 3), (2, 5), (5, 2), (1, 4), (4, 1)])
    def test_matches_brute_force_across_the_exponent_range(self, shape):
        # over the common denominator 2^1074 the smallest subnormal scales
        # to 1 and 1.0 to 2^1074: only exact arithmetic keeps such totals apart
        rng = random.Random(sum(shape) * 10 + shape[0])
        m, n = shape
        for _ in range(60):
            mat = [[rng.choice([0.0, 5e-324, 1e-300, 1.0]) for _ in range(n)] for _ in range(m)]
            expected, _ = brute_force_assignment(mat)
            assert hungarian_max(np.array(mat)) == expected

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (2, 5), (5, 2)])
    @pytest.mark.parametrize("value", [0.0, 5e-324, 1e-300, 1.0])
    def test_all_equal_matrices_take_the_smallest_assignment(self, shape, value):
        mat = np.full(shape, value)
        expected, _ = brute_force_assignment(mat.tolist())
        assert expected == [(i, i) for i in range(min(shape))]
        assert hungarian_max(mat) == expected

    def test_pair_set_invariant_under_positive_scaling(self):
        rng = random.Random(5)
        for _ in range(50):
            mat = np.array([[rng.random() for _ in range(4)] for _ in range(4)])
            assert hungarian_max(mat) == hungarian_max(3.7 * mat)

    def test_total_at_least_greedy(self):
        rng = random.Random(6)
        for _ in range(100):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            mat = [[rng.random() for _ in range(n)] for _ in range(m)]
            pairs = hungarian_max(np.array(mat))
            total = sum(mat[r][c] for r, c in pairs)
            assert total >= greedy_row_assignment_total(mat) - 1e-12

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_matrices())
    def test_matches_the_exact_oracle(self, mat):
        assert hungarian_max(mat) == lexicographic_assignment(mat.tolist())

    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_matrices(LOPSIDED))
    def test_lopsided_matrices_match_the_exact_oracle(self, mat):
        assert hungarian_max(mat) == lexicographic_assignment(mat.tolist())

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("values", [[0.0, 0.5, 1.0], [0.5]])
    def test_lopsided_tie_blocks_match_the_exact_oracle(self, values, transpose):
        # 3-6 rows against 40-120 columns, far beyond LOPSIDED: ties keep
        # most columns, so one class row holds dozens of them
        rng = np.random.default_rng(len(values) + 2 * transpose)
        for _ in range(4):
            mat = rng.choice(values, size=(rng.integers(3, 7), rng.integers(40, 121)))
            mat = mat.T if transpose else mat
            assert hungarian_max(mat) == lexicographic_assignment(mat.tolist())

    @pytest.mark.parametrize("shape", [(6, 6), (4, 40), (40, 4)])
    def test_any_candidate_is_repaired_to_the_exact_oracle(self, shape, monkeypatch):
        # a random assignment in place of scipy's: positive cycles improve
        # it with potentials risen on the candidates before, and the tie-
        # break turns many cycles through the class row (column)
        rng = np.random.default_rng(sum(shape))

        def scrambled(cost, maximize):
            return np.arange(len(cost)), rng.permutation(cost.shape[1])[:len(cost)]

        monkeypatch.setattr("scipy.optimize.linear_sum_assignment", scrambled)
        for _ in range(40):
            mat = rng.choice([0.0, 0.5, 1.0], size=shape)
            assert hungarian_max(mat) == lexicographic_assignment(mat.tolist())

    def test_matches_the_exact_oracle_at_16_to_40_rows(self):
        # the float filter's error bound, 2^-50 (P + 1) for the largest row
        # potential P, grows with the row count: here it spans several ulps
        # of 1.0, so the planted values' 1-ulp neighbours fall inside it and
        # only the exact integers can settle them
        rng = np.random.default_rng(16)
        for _ in range(40):
            planted = [5e-324, 1e-300, *rng.random(rng.integers(1, 4))]
            pool = sorted({float(v) for p in planted
                           for v in (p, np.nextafter(p, 0.0), np.nextafter(p, 2.0))})
            mat = rng.choice(pool, size=tuple(rng.integers(16, 41, size=2)))
            assert hungarian_max(mat) == lexicographic_assignment(mat.tolist())

    def test_near_ties_below_the_float_tolerance_match_the_exact_oracle(self):
        # scores 2^-48..2^-41 apart: the float potentials stop at a 2^-40
        # tolerance, so the exact rounds raise potentials by more than the
        # filter's error bound and must filter the raised columns again
        rng = np.random.default_rng(41)
        for _ in range(60):
            step = 2.0 ** -float(rng.integers(41, 49))
            pool = sorted({float(b + j * step) for b in rng.random(rng.integers(1, 3))
                           for j in range(4)})
            mat = rng.choice(pool, size=tuple(rng.integers(2, 12, size=2)))
            assert hungarian_max(mat) == lexicographic_assignment(mat.tolist())

    def test_baseline_sf_score_matrix_matches_the_exact_oracle(self):
        # baseline-sf scores take a handful of distinct values, so rows
        # have several tight columns and the lexicographic search runs
        g1, g2, _ = make_perturbation_case(2)
        _, result = align(g1, g2, solver_cfg=SolverConfig(chain_mode="baseline-sf"))
        mat = to_matrix(result.distribution, g1.term_ids, g2.term_ids)
        assert len(np.unique(mat)) <= 8
        assert hungarian_max(mat) == lexicographic_assignment(mat.tolist())

    @pytest.mark.parametrize("shape", [(5, 600), (600, 5)])
    def test_five_by_600_matches_its_padded_square(self, shape):
        # two decimals leave ties around every row's 5th best; padding the
        # square by hand keeps every column (row) in the solve
        mat = np.round(np.random.default_rng(9).random(shape), 2)
        square = np.zeros((600, 600))
        square[:shape[0], :shape[1]] = mat
        expected = [(i, j) for i, j in hungarian_max(square) if i < shape[0] and j < shape[1]]
        with mock.patch("scipy.optimize.linear_sum_assignment", wraps=linear_sum_assignment) as solve:
            assert hungarian_max(mat) == expected
        assert max(solve.call_args.args[0].shape) < 600

    @pytest.mark.parametrize("shape", [(5, 600), (600, 5)])
    def test_all_ties_build_no_square(self, shape):
        # one class row stands for the 595 dummy rows: a square padded with
        # them would take 600 x 600 floats, 2.75 MiB, before any exact int
        mat = np.ones(shape)
        hungarian_max(mat)  # scipy.optimize is imported on the first call
        tracemalloc.start()
        try:
            pairs = hungarian_max(mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pairs == [(i, i) for i in range(5)]
        assert peak < 600 * 600 * 8

    def test_inexact_float_candidate_is_repaired(self, monkeypatch):
        # 0.7000000000000001 (7 * 0.1) is one ulp above 0.7: the optimum
        # (0, 2), (1, 0), (2, 1) beats (0, 0), (1, 2), (2, 1) by less than
        # float sums resolve, and scipy's float solver returns the latter
        mat = np.array([[0.5, 0.5, 0.2], [0.7000000000000001, 0.9, 0.4], [0.5, 0.8, 0.0]])
        rows, cols = linear_sum_assignment(mat, maximize=True)
        expected = lexicographic_assignment(mat.tolist())
        assert expected == [(0, 2), (1, 0), (2, 1)]
        exact = [[Fraction(v) for v in row] for row in mat.tolist()]
        assert sum(exact[r][c] for r, c in zip(rows, cols)) < sum(
            exact[r][c] for r, c in expected)
        cycles = []

        def spy(*args):
            cycle = positive_cycle(*args)
            cycles.append(cycle)
            return cycle

        positive_cycle = matching._positive_cycle
        monkeypatch.setattr(matching, "_positive_cycle", spy)
        assert hungarian_max(mat) == expected
        assert any(c is not None for c in cycles)


class TestRefine:
    def test_hand_example_confidences(self):
        dist = np.array([0.9, 0.1, 0.2, 0.8]) / 2.0
        alignment = refine(dist, *ids_for(2, 2), min_confidence=0.0)
        assert alignment.pairs() == {("L0", "R0"), ("L1", "R1")}
        confidences = [c.confidence for c in alignment.correspondences]
        assert confidences == pytest.approx([1.0, 0.8 / 0.9])

    def test_min_confidence_drops_weak_pairs(self):
        dist = np.array([0.9, 0.1, 0.2, 0.8]) / 2.0
        alignment = refine(dist, *ids_for(2, 2), min_confidence=0.95)
        assert alignment.pairs() == {("L0", "R0")}

    def test_min_confidence_one_keeps_only_peak_pairs(self):
        dist = np.array([0.9, 0.1, 0.2, 0.8]) / 2.0
        alignment = refine(dist, *ids_for(2, 2), min_confidence=1.0)
        assert alignment.pairs() == {("L0", "R0")}

    def test_one_to_one_on_rectangular_input(self):
        rng = random.Random(13)
        dist = np.array([rng.random() for _ in range(12)])
        alignment = refine(dist / dist.sum(), *ids_for(3, 4))
        sources = [c.source for c in alignment.correspondences]
        targets = [c.target for c in alignment.correspondences]
        assert len(sources) == len(set(sources)) == 3
        assert len(targets) == len(set(targets))

    def test_metadata_carried_through(self):
        alignment = refine(np.array([1.0]), *ids_for(1, 1), metadata={"gamma": 0.5})
        assert alignment.metadata == {"gamma": 0.5}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, 1.5, 7.0])
    def test_min_confidence_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="min_confidence must lie in"):
            refine(np.array([1.0]), *ids_for(1, 1), min_confidence=bad)


class TestAlignmentSerialization:
    def test_json_round_trip(self, tmp_path):
        alignment = Alignment(
            correspondences=[Correspondence("A", "D", 0.97), Correspondence("B", "E", 0.5)],
            metadata={"gamma": 0.5},
        )
        path = tmp_path / "out.json"
        path.write_text(alignment_to_json(alignment), encoding="utf-8")
        loaded = load_alignment(path)
        assert loaded.pairs() == alignment.pairs()
        assert loaded.metadata == alignment.metadata

    def test_tsv_round_trip(self, tmp_path):
        alignment = Alignment(
            correspondences=[Correspondence("A", "D", 0.97)], metadata={}
        )
        path = tmp_path / "out.tsv"
        save_alignment(alignment, path)
        assert path.read_text() == "A\tD\t0.97\n"
        assert load_alignment(path).pairs() == {("A", "D")}

    def test_tsv_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("\nA\tD\t0.5\n \n\nB\tE\t1.0\n", encoding="utf-8")
        assert load_alignment(path).pairs() == {("A", "D"), ("B", "E")}

    def test_tsv_line_without_three_fields_reported(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("A\tD\t0.5\nB\tE\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^a.tsv: line 2: expected 3 tab-separated fields$"):
            load_alignment(path)

    def test_duplicate_sources_rejected(self):
        with pytest.raises(ValueError, match="one-to-one"):
            Alignment(
                correspondences=[Correspondence("A", "D", 1.0), Correspondence("A", "E", 1.0)]
            )

    def test_confidence_range_enforced(self):
        with pytest.raises(ValueError, match="confidence"):
            Alignment(correspondences=[Correspondence("A", "D", 1.5)])

    @pytest.mark.parametrize("doc", ["[1, 2]", '{"correspondences": 5}'])
    def test_json_without_correspondence_list_reported(self, tmp_path, doc):
        path = tmp_path / "a.json"
        path.write_text(doc, encoding="utf-8")
        with pytest.raises(ValueError, match="a.json"):
            load_alignment(path)

    def test_malformed_json_correspondence_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"correspondences": [{"source": "A"}]}', encoding="utf-8")
        with pytest.raises(ValueError, match="malformed"):
            load_alignment(path)

    @pytest.mark.parametrize("name, text, entry", [
        ("a.json", '{"correspondences": [{"source": "A", "target": "D", "confidence": "abc"}]}',
         "correspondence #0"),
        ("a.tsv", "A\tD\tabc\n", "line 1"),
        ("a.json", '{"correspondences": [{"source": "A", "target": "D", "confidence": 2.0}]}',
         "source='A', target='D'"),
        ("a.tsv", "A\tD\t1.0\nB\tE\t2.0\n", "source='B', target='E'"),
    ], ids=["json-not-a-number", "tsv-not-a-number", "json-out-of-range", "tsv-out-of-range"])
    def test_bad_confidence_names_file_and_entry(self, tmp_path, name, text, entry):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_alignment(path)
        assert str(info.value).startswith(f"{name}: ")
        assert entry in str(info.value)

    def test_json_parse_error_names_file(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"correspondences": [', encoding="utf-8")
        with pytest.raises(ValueError, match=r"^a.json: "):
            load_alignment(path)
