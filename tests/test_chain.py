import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import chainalign
from chainalign.chain import (
    BASELINE_SF,
    EDGE_CONFIDENCE,
    PairwiseChain,
    SolverConfig,
    SolverError,
    build_upmc,
    ergodic_transform,
    initial_distribution,
    iterate,
    normalize,
    steady_state,
)
from chainalign.lexical import LabelNorm, SimilarityConfig
from chainalign.ontology import LabeledEdge, OntologyGraph, Term

from conftest import (
    chain_from_rows,
    dense_chain,
    make_graph,
    random_raw_chain,
    random_stochastic_chain,
    support,
)
from oracles import (
    closed_class_count,
    damp_rows,
    lexical_start,
    normalize_rows,
    pair_chain_arrays,
    stationary_dense,
)


def transition_map(chain, g1, g2):
    """{(left, right) -> {(left', right'): weight}} for readable assertions."""
    pairs = [(x, y) for x in g1.term_ids for y in g2.term_ids]
    return {pairs[i]: {pairs[c]: w for c, w in row} for i, row in enumerate(chain.transitions)}


class TestBuildUpmc:
    def test_figure_pair_transitions_from_a_d(self, figure_left, figure_right):
        chain = build_upmc(figure_left, figure_right, SimilarityConfig())
        tmap = transition_map(chain, figure_left, figure_right)
        # single-character labels all pass gamma = 0.5; (A,D) reaches
        # exactly the two states allowed by the edge pairs (m,m') and (m,p)
        assert set(tmap[("A", "D")]) == {("B", "E"), ("B", "F")}

    def test_transition_requires_edges_on_both_sides(self, figure_left, figure_right):
        chain = build_upmc(figure_left, figure_right, SimilarityConfig())
        tmap = transition_map(chain, figure_left, figure_right)
        assert tmap[("A", "F")] == {("B", "D"): 2.0}  # sigma(m, o') = 1/2
        assert tmap[("C", "E")] == {("A", "F"): 2.0}  # sigma(o, n') = 1/2

    def test_baseline_mode_needs_exact_labels(self, figure_left, figure_right):
        chain = build_upmc(figure_left, figure_right, SimilarityConfig(), BASELINE_SF)
        assert all(not row for row in chain.transitions)

    def test_single_term_graphs(self):
        g1 = make_graph("A", [])
        g2 = make_graph("D", [])
        chain = build_upmc(g1, g2)
        assert len(chain) == 1
        assert chain.transitions == [[]]

    def test_states_enumerate_cross_product(self, figure_left, figure_right):
        chain = build_upmc(figure_left, figure_right)
        assert len(chain) == 9
        assert chain.matrix.shape == (9, 9)
        # (A, D) -> (B, E) sits at row 0 * 3 + 0, column 1 * 3 + 1
        assert chain.matrix[0, 4] > 0

    def test_empty_graph_rejected(self, figure_left):
        with pytest.raises(ValueError, match="at least one term"):
            build_upmc(figure_left, make_graph("", []))

    def test_gamma_one_equals_baseline_support(self, zoo):
        cfg = SimilarityConfig(gamma=1.0)
        ec = build_upmc(zoo, zoo, cfg, EDGE_CONFIDENCE)
        sf = build_upmc(zoo, zoo, cfg, BASELINE_SF)
        assert support(ec) == support(sf)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 1.0])
    def test_baseline_support_subset_of_edge_confidence(self, zoo, gamma):
        cfg = SimilarityConfig(gamma=gamma)
        ec = build_upmc(zoo, zoo, cfg, EDGE_CONFIDENCE)
        sf = build_upmc(zoo, zoo, cfg, BASELINE_SF)
        assert support(sf) <= support(ec)


class TestNormalize:
    def test_formula_mode_hand_example(self):
        chain = dense_chain([[0, 2, 4], [0, 0, 0], [0, 0, 0]], stochastic=False)
        result = normalize(chain, "formula")
        # M = 1/2 + 1/4 = 3/4; T = [1/4, 1/2]; shares [1/3, 2/3]
        assert result.transitions[0] == [(1, pytest.approx(1 / 3)), (2, pytest.approx(2 / 3))]

    def test_complement_mode_hand_example(self):
        chain = dense_chain([[0, 2, 4], [0, 0, 0], [0, 0, 0]], stochastic=False)
        result = normalize(chain, "complement")
        # complements of [2, 4] against their sum 6: [4, 2]; shares [2/3, 1/3]
        assert result.transitions[0] == [(1, pytest.approx(2 / 3)), (2, pytest.approx(1 / 3))]

    def test_complement_favors_similar_edges(self):
        # weight 1 is an exact label match, weight 2 a weaker one: the
        # exact match must end up with the larger transition probability
        chain = dense_chain([[0, 1, 2], [0, 0, 0], [0, 0, 0]], stochastic=False)
        row = normalize(chain, "complement").transitions[0]
        assert row[0][1] > row[1][1]

    def test_single_entry_row_gets_weight_one(self):
        chain = dense_chain([[0, 3.7], [0, 0]], stochastic=False)
        result = normalize(chain)
        assert result.transitions[0] == [(1, 1.0)]

    def test_empty_row_becomes_self_loop(self):
        chain = dense_chain([[0, 1], [0, 0]], stochastic=False)
        result = normalize(chain)
        assert result.transitions[1] == [(1, 1.0)]

    def test_already_stochastic_rejected(self):
        chain = dense_chain([[1.0]], stochastic=True)
        with pytest.raises(ValueError, match="already stochastic"):
            normalize(chain)

    def test_negative_weight_rejected_at_construction(self):
        with pytest.raises(ValueError, match="positive"):
            dense_chain([[0, -1], [0, 0]], stochastic=False)

    def test_extreme_weight_ratio_drops_cancelled_share(self):
        # (5 + 1e-300) - 5 cancels to exactly 0.0; the zero share must be
        # dropped, not stored, and the row must still sum to 1
        chain = dense_chain([[0, 5.0, 1e-300], [0, 0, 0], [0, 0, 0]], stochastic=False)
        row = normalize(chain, "complement").transitions[0]
        assert row == [(2, 1.0)]

    @pytest.mark.parametrize("norm_mode", ["formula", "complement"])
    def test_row_sums_are_one_on_random_chains(self, norm_mode):
        rng = random.Random(42)
        for _ in range(100):
            chain = normalize(random_raw_chain(rng), norm_mode)
            assert chain.stochastic
            for row in chain.transitions:
                assert sum(w for _, w in row) == pytest.approx(1.0, abs=1e-9)


class TestErgodicTransform:
    def test_half_damping_of_swap_chain(self):
        chain = dense_chain([[0, 1], [1, 0]])
        result = ergodic_transform(chain, 0.5)
        assert result.matrix.toarray() == pytest.approx(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_a_equal_one_returns_chain_unchanged(self):
        chain = dense_chain([[0, 1], [1, 0]])
        assert ergodic_transform(chain, 1.0) is chain

    def test_identity_is_fixed_point(self):
        chain = dense_chain([[1, 0], [0, 1]])
        assert ergodic_transform(chain, 0.3).matrix.toarray() == pytest.approx(np.eye(2))

    @pytest.mark.parametrize("a", [0.0, -0.5, 1.5])
    def test_a_out_of_range(self, a):
        chain = dense_chain([[1.0]])
        with pytest.raises(ValueError, match="a must lie"):
            ergodic_transform(chain, a)

    def test_requires_stochastic_chain(self):
        chain = dense_chain([[0, 2], [2, 0]], stochastic=False)
        with pytest.raises(ValueError, match="stochastic"):
            ergodic_transform(chain, 0.85)

    def test_preserves_row_sums(self):
        rng = random.Random(3)
        for _ in range(50):
            chain = random_stochastic_chain(rng, rng.randint(1, 15), dense=False)
            damped = ergodic_transform(chain, rng.uniform(0.1, 0.99))
            for row in damped.transitions:
                assert sum(w for _, w in row) == pytest.approx(1.0, abs=1e-9)

    def test_preserves_stationary_distribution(self):
        rng = random.Random(4)
        for _ in range(20):
            chain = random_stochastic_chain(rng, rng.randint(2, 20))
            base = steady_state(chain).distribution
            for a in (0.5, 0.85, 0.99):
                damped = steady_state(ergodic_transform(chain, a)).distribution
                assert np.max(np.abs(damped - base)) < 1e-6


class TestInitialDistribution:
    def test_single_identical_pair(self):
        g = make_graph(["x"], [])
        chain = build_upmc(g, g)
        assert initial_distribution(chain, g, g).tolist() == [1.0]

    def test_equal_similarities_split_evenly(self):
        g1 = make_graph(["n"], [])
        g2 = make_graph(["a", "b"], [])  # sigma("n", .) = 3/4 for both
        chain = build_upmc(g1, g2)
        assert initial_distribution(chain, g1, g2).tolist() == [0.5, 0.5]

    def test_l1_normalization_of_unequal_similarities(self):
        g1 = make_graph(["node"], [])
        g2 = make_graph(["node", "zzzz"], [])  # sigma = [1, 1/4]
        chain = build_upmc(g1, g2)
        assert initial_distribution(chain, g1, g2).tolist() == pytest.approx([0.8, 0.2])

    def test_respects_label_normalization(self):
        g1 = make_graph(["hasA"], [])
        g2 = make_graph(["has_a"], [])
        chain = build_upmc(g1, g2)
        assert initial_distribution(chain, g1, g2).tolist() == [1.0]


class TestSolverConfig:
    @pytest.mark.parametrize("epsilon", [0.0, -1e-9, float("nan")])
    def test_non_positive_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            SolverConfig(epsilon=epsilon)


class TestIterate:
    def test_identity_chain_returns_pi0_after_one_step(self):
        chain = dense_chain(np.eye(3))
        pi0 = np.array([0.2, 0.3, 0.5])
        result = iterate(chain, pi0)
        assert result.iterations == 1
        assert result.converged
        assert result.distribution == pytest.approx(pi0)

    def test_hand_solved_two_state_chain(self):
        chain = dense_chain([[0.9, 0.1], [0.5, 0.5]])
        result = iterate(chain, np.array([0.5, 0.5]), SolverConfig(epsilon=1e-12))
        assert result.converged
        assert result.distribution == pytest.approx([5 / 6, 1 / 6], abs=1e-9)

    def test_symmetric_chain_goes_uniform(self):
        chain = dense_chain([[0.5, 0.5], [0.5, 0.5]])
        result = iterate(chain, np.array([0.9, 0.1]))
        assert result.distribution == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_requires_stochastic_chain(self):
        chain = dense_chain([[0, 2], [2, 0]], stochastic=False)
        with pytest.raises(ValueError, match="stochastic"):
            iterate(chain, np.array([0.5, 0.5]))

    def test_scaling_pi0_does_not_change_result(self):
        rng = random.Random(9)
        chain = random_stochastic_chain(rng, 12)
        pi0 = np.array([rng.uniform(0.1, 1.0) for _ in range(12)])
        cfg = SolverConfig(epsilon=1e-12)
        a = iterate(chain, pi0, cfg).distribution
        b = iterate(chain, 37.5 * pi0, cfg).distribution
        assert np.max(np.abs(a - b)) < 1e-12

    def test_unconverged_run_reports_flag(self):
        # period-2 swap chain never settles without damping
        chain = dense_chain([[0, 1], [1, 0]])
        result = iterate(chain, np.array([0.9, 0.1]), SolverConfig(max_iters=50))
        assert not result.converged
        assert result.iterations == 50


class TestSteadyState:
    def test_hand_solved_two_state_chain(self):
        chain = dense_chain([[0.9, 0.1], [0.5, 0.5]])
        result = steady_state(chain)
        assert result.distribution == pytest.approx([5 / 6, 1 / 6], abs=1e-9)

    def test_symmetric_chain_goes_uniform(self):
        chain = dense_chain([[0.5, 0.5], [0.5, 0.5]])
        assert steady_state(chain).distribution == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_identity_chain_falls_back_to_uniform(self):
        chain = dense_chain(np.eye(4))
        damped = ergodic_transform(chain, 0.85)
        assert steady_state(damped).distribution == pytest.approx([0.25] * 4)

    def test_random_symmetric_chains_go_uniform(self):
        # symmetric stochastic matrices are doubly stochastic; build them
        # as convex mixes of the identity and transposition matrices
        rng = random.Random(55)
        for _ in range(20):
            n = rng.randint(2, 10)
            mat = np.zeros((n, n))
            parts = [np.eye(n)]
            # adjacent transpositions keep the chain connected; extras mix it
            swaps = [(i, i + 1) for i in range(n - 1)]
            swaps += [tuple(rng.sample(range(n), 2)) for _ in range(3)]
            for i, j in swaps:
                t = np.eye(n)
                t[[i, j]] = t[[j, i]]
                parts.append(t)
            weights = [rng.uniform(0.1, 1.0) for _ in parts]
            total = sum(weights)
            for w, part in zip(weights, parts):
                mat += (w / total) * part
            pi = steady_state(dense_chain(mat)).distribution
            assert pi == pytest.approx([1.0 / n] * n, abs=1e-9)

    def test_reducible_chain_raises_with_iterative_remedy(self):
        blocks = dense_chain(
            [
                [0.5, 0.5, 0, 0],
                [0.5, 0.5, 0, 0],
                [0, 0, 0.5, 0.5],
                [0, 0, 0.5, 0.5],
            ]
        )
        with pytest.raises(SolverError) as info:
            steady_state(blocks)
        message = str(info.value)
        assert "several closed classes" in message and "not unique" in message
        assert 'method="iterative"' in message and "--method iterative" in message
        assert "damping" not in message

    def test_requires_stochastic_chain(self):
        chain = dense_chain([[0, 2], [2, 0]], stochastic=False)
        with pytest.raises(ValueError, match="stochastic"):
            steady_state(chain)

    def test_hand_solved_transient_state(self):
        # state 0 leaks into the absorbing state 1 and keeps no mass
        chain = dense_chain([[0.5, 0.5], [0, 1]])
        assert steady_state(chain).distribution.tolist() == [0.0, 1.0]

    def test_underflowing_weight_raises_numerically_singular(self):
        # one closed class, but 1.0 - 1.0 leaves state 0 no pivot: its only
        # way out (1e-300) is lost against the self-loop
        chain = dense_chain([[1.0, 1e-300], [0, 1.0]])
        with pytest.raises(SolverError, match="numerically singular") as info:
            steady_state(chain)
        assert "--method iterative" in str(info.value)

    def test_import_leaves_sparse_linalg_unloaded(self):
        # steady_state imports scipy.sparse.linalg itself, so importing the
        # package does not pay for it
        src = str(Path(chainalign.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import chainalign; "
             "print('scipy.sparse.linalg' in sys.modules)", src],
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"

    def test_entries_are_non_negative_probabilities(self):
        rng = random.Random(21)
        for _ in range(30):
            chain = random_stochastic_chain(rng, rng.randint(1, 25))
            pi = steady_state(chain).distribution
            assert pi.min() >= 0.0
            assert pi.sum() == pytest.approx(1.0, abs=1e-9)


class TestSolverAgreement:
    def test_iterate_and_steady_state_agree_after_damping(self):
        rng = random.Random(123)
        cfg = SolverConfig(epsilon=1e-12)
        for _ in range(25):
            chain = random_stochastic_chain(rng, rng.randint(2, 30), dense=False)
            damped = ergodic_transform(chain, 0.85)
            pi0 = np.full(len(damped), 1.0 / len(damped))
            by_iteration = iterate(damped, pi0, cfg)
            direct = steady_state(damped, cfg)
            assert by_iteration.converged
            gap = np.max(np.abs(by_iteration.distribution - direct.distribution))
            assert gap < 1e-6


@st.composite
def stochastic_rows(draw):
    """Up to twelve states with sparse rows of one to four columns, and up
    to two dangling rows made self-loops, so chains mix transient states
    with one or more closed classes. Damped by a in {1, 0.85}."""
    n = draw(st.integers(1, 12))
    dangling = draw(st.sets(st.integers(0, n - 1), max_size=2))
    rows = []
    for i in range(n):
        if i in dangling:
            rows.append([(i, 1.0)])
            continue
        cols = sorted(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)))
        weights = [draw(st.floats(0.05, 1.0)) for _ in cols]
        total = sum(weights)
        rows.append([(c, w / total) for c, w in zip(cols, weights)])
    a = draw(st.sampled_from([1.0, 0.85]))
    return damp_rows(rows, a) if a < 1.0 else rows


class TestReducibleSteadyState:
    """c04 covers irreducible chains; these may be reducible, with dangling
    rows and transient states, and are checked against the oracles."""

    @settings(max_examples=300, deadline=None)
    @given(stochastic_rows())
    def test_raises_exactly_on_several_closed_classes(self, rows):
        chain = chain_from_rows(rows, stochastic=True)
        n = len(rows)
        if support(chain) == {(i, i) for i in range(n)}:
            assert steady_state(chain).distribution.tolist() == [1.0 / n] * n
            return
        closed = closed_class_count(rows)
        if closed > 1:
            with pytest.raises(SolverError, match=rf"several closed classes \({closed} found\)"):
                steady_state(chain)
            return
        pi = steady_state(chain).distribution
        assert np.max(np.abs(pi - stationary_dense(chain.matrix.toarray()))) <= 1e-12
        assert np.max(np.abs(pi @ chain.matrix - pi)) <= 1e-12

    @pytest.mark.parametrize("rows, count", [
        ([[(0, 1.0)], [(0, 0.5), (1, 0.5)]], 1),
        ([[(0, 1.0)], [(1, 1.0)], [(0, 0.5), (1, 0.5)]], 2),
        ([[(1, 1.0)], [(2, 1.0)], [(0, 1.0)], [(3, 1.0)]], 2),
        ([[(1, 1.0)], [(0, 1.0)], [(0, 0.5), (3, 0.5)], [(2, 1.0)]], 1),
    ])
    def test_closed_class_oracle(self, rows, count):
        assert closed_class_count(rows) == count


class TestChainValidation:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="sorted and unique"):
            chain_from_rows([[(0, 0.5), (0, 0.5)]], stochastic=True)

    def test_unsorted_columns_rejected(self):
        with pytest.raises(ValueError, match="sorted and unique"):
            chain_from_rows([[(1, 0.5), (0, 0.5)], [(1, 1.0)]], stochastic=True)

    def test_column_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            chain_from_rows([[(1, 1.0)]], stochastic=True)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match="square"):
            PairwiseChain(sparse.csr_matrix(np.ones((2, 3))))

    def test_bad_row_sum_rejected_when_stochastic(self):
        with pytest.raises(ValueError, match="row 1: stochastic row sums to 0.5"):
            dense_chain([[1.0, 0], [0, 0.5]], stochastic=True)

    def test_empty_row_rejected_when_stochastic(self):
        with pytest.raises(ValueError, match="sums to"):
            dense_chain([[0, 1.0], [0, 0]], stochastic=True)

    def test_transitions_read_rows_as_python_numbers(self):
        chain = dense_chain([[0.5, 0.5], [0, 1.0]])
        assert chain.transitions == [[(0, 0.5), (1, 0.5)], [(1, 1.0)]]
        assert all(type(c) is int and type(w) is float for row in chain.transitions for c, w in row)


class TestNormalizationOracle:
    """normalize and ergodic_transform reproduce the per-row oracle bit for bit."""

    def assert_matches_oracle(self, rows, baseline: bool = False):
        for norm_mode in ("complement", "formula"):
            expected = normalize_rows(rows, norm_mode, baseline)
            normalized = normalize(chain_from_rows(rows), norm_mode)
            assert normalized.transitions == expected
            for a in (0.85, 0.5, 0.1):
                assert ergodic_transform(normalized, a).transitions == damp_rows(expected, a)

    def test_random_raw_chains(self):
        for seed in range(200):
            self.assert_matches_oracle(random_raw_chain(random.Random(seed)).transitions)

    def test_unit_weight_rows_normalize_uniformly(self):
        # baseline-sf chains store only the weight 1.0, which both readings
        # must turn into the oracle's uniform 1/outdegree
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 80)
            rows = [[(c, 1.0) for c in sorted(rng.sample(range(n), rng.randint(0, n)))]
                    for _ in range(n)]
            self.assert_matches_oracle(rows, baseline=True)

    def test_cancellation_row(self):
        self.assert_matches_oracle([[(1, 5.0), (2, 1e-300)], [], []])
        assert normalize_rows([[(1, 5.0), (2, 1e-300)]], "complement") == [[(2, 1.0)]]

    def test_long_rows(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(8, 60)
            rows = []
            for _ in range(n):
                cols = sorted(rng.sample(range(n), rng.randint(0, min(n, 40))))
                rows.append([(c, rng.choice([1.0, 4 / 3, 2.0, rng.uniform(0.05, 5.0)]))
                             for c in cols])
            assert max(map(len, rows)) >= 8
            self.assert_matches_oracle(rows)


# labels within an edit or two of each other, folding variants of one
# another, folding to "" ("_-") or expanding under casefold ("Straße")
EDGE_LABELS = ["isA", "is_a", "IS-A", "isAn", "partOf", "part", "_-", "Straße", "STRASSE", "x"]
TERM_LABELS = ["Bird", "bird", "Birds", "B-ird", "_-", "Straße", "strasse", "fish"]


@st.composite
def labeled_graphs(draw):
    """Up to five terms; parallel edges may carry different labels, and a
    graph may have no edges at all."""
    ids = [f"t{i}" for i in range(draw(st.integers(1, 5)))]
    terms = {t: Term(id=t, label=draw(st.sampled_from(TERM_LABELS))) for t in ids}
    edges = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(EDGE_LABELS)),
        max_size=12,
    ))
    return OntologyGraph(terms=terms, edges=[LabeledEdge(s, d, l) for s, d, l in edges])


class TestPairwiseOracle:
    """build_upmc and initial_distribution score all label pairs at once; the
    oracle scores one adjacency pair and one term pair at a time."""

    @settings(max_examples=200, deadline=None)
    @given(labeled_graphs(), labeled_graphs(), st.sampled_from([0.0, 0.5, 1.0]),
           st.sampled_from(list(LabelNorm)), st.sampled_from([EDGE_CONFIDENCE, BASELINE_SF]))
    def test_matches_per_pair_scoring(self, g1, g2, gamma, norm, mode):
        cfg = SimilarityConfig(gamma=gamma, label_normalization=norm)
        fold = norm is LabelNorm.FOLD
        chain = build_upmc(g1, g2, cfg, mode)
        indptr, indices, data = pair_chain_arrays(g1, g2, gamma, fold, mode == BASELINE_SF)
        assert chain.matrix.indptr.tolist() == indptr
        assert chain.matrix.indices.tolist() == indices
        assert chain.matrix.data.tolist() == data
        pi0 = initial_distribution(chain, g1, g2, cfg)
        assert pi0.tolist() == lexical_start(g1, g2, fold).tolist()
        rows = chain.transitions
        for norm_mode in ("complement", "formula"):
            expected = normalize_rows(rows, norm_mode, baseline=mode == BASELINE_SF)
            assert normalize(chain, norm_mode).transitions == expected
