import random

import numpy as np
import pytest

from chainalign.matching import (
    Alignment,
    Correspondence,
    ScoreMatrix,
    alignment_to_json,
    alignment_to_tsv,
    hungarian_max,
    load_alignment,
    refine,
    to_matrix,
)

from oracles import brute_force_assignment, greedy_row_assignment_total


def ids_for(m, n):
    """Row and column term ids of an m x n score matrix."""
    return [f"L{i}" for i in range(m)], [f"R{j}" for j in range(n)]


class TestToMatrix:
    def test_single_state(self):
        mat = to_matrix(np.array([1.0]), *ids_for(1, 1))
        assert mat.values.tolist() == [[1.0]]

    def test_rescaled_by_max(self):
        mat = to_matrix(np.array([0.4, 0.1, 0.1, 0.4]), *ids_for(2, 2))
        assert mat.values.tolist() == [[1.0, 0.25], [0.25, 1.0]]

    def test_all_equal_values_give_all_ones(self):
        mat = to_matrix(np.full(6, 1 / 6), *ids_for(2, 3))
        assert mat.values.tolist() == [[1.0] * 3, [1.0] * 3]

    def test_row_and_column_ids(self):
        mat = to_matrix(np.arange(1.0, 7.0), *ids_for(2, 3))
        assert mat.rows == ("L0", "L1")
        assert mat.cols == ("R0", "R1", "R2")
        assert mat.values[1, 2] == 1.0  # the max cell

    def test_all_zero_distribution_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            to_matrix(np.zeros(4), *ids_for(2, 2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match the state count"):
            to_matrix(np.ones(3), *ids_for(2, 2))


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

    def test_accepts_score_matrix(self):
        mat = ScoreMatrix(rows=("a",), cols=("b",), values=np.array([[1.0]]))
        assert hungarian_max(mat) == [(0, 0)]


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
        path.write_text(alignment_to_tsv(alignment), encoding="utf-8")
        assert load_alignment(path).pairs() == {("A", "D")}

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
