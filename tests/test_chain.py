import itertools
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

import chainalign
from chainalign.chain import (
    BASELINE_SF,
    EDGE_CONFIDENCE,
    PairwiseChain,
    SolverConfig,
    SolverError,
    build_upmc,
    ergodic_transform,
    exact_matches,
    initial_distribution,
    iterate,
    normalize,
    product_order,
    steady_state,
)
from chainalign import lexical
from chainalign.lexical import (
    LabelNorm,
    SimilarityConfig,
    labels_share_exact_match,
    levenshtein,
    normalize_label,
)
from chainalign.ontology import load_ontology
from chainalign.pipeline import build_chain

from benchcases import make_perturbation_case
from conftest import (
    DATA_DIR,
    FIXTURE_FILES,
    chain_from_rows,
    dense_chain,
    labeled_graphs,
    make_graph,
    random_raw_chain,
    random_stochastic_chain,
    support,
)
from oracles import (
    closed_class_count,
    closed_classes,
    damp_rows,
    iterate_rmatmul,
    lexical_start,
    normalize_rows,
    normalize_then_damp,
    pair_chain_arrays,
    stationary_dense,
    steady_state_indexed,
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
        chain = exact_matches(build_upmc(figure_left, figure_right, SimilarityConfig()))
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
        ec = build_upmc(zoo, zoo, SimilarityConfig(gamma=1.0))
        assert support(ec) == support(exact_matches(ec))

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 1.0])
    def test_baseline_support_subset_of_edge_confidence(self, zoo, gamma):
        ec = build_upmc(zoo, zoo, SimilarityConfig(gamma=gamma))
        sf = exact_matches(ec)
        assert support(sf) <= support(ec)
        # the baseline chain does not depend on gamma
        assert support(sf) == support(build_upmc(zoo, zoo, SimilarityConfig(gamma=1.0)))


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
        assert initial_distribution(g, g).tolist() == [1.0]

    def test_equal_similarities_split_evenly(self):
        g1 = make_graph(["n"], [])
        g2 = make_graph(["a", "b"], [])  # sigma("n", .) = 3/4 for both
        assert initial_distribution(g1, g2).tolist() == [0.5, 0.5]

    def test_l1_normalization_of_unequal_similarities(self):
        g1 = make_graph(["node"], [])
        g2 = make_graph(["node", "zzzz"], [])  # sigma = [1, 1/4]
        assert initial_distribution(g1, g2).tolist() == pytest.approx([0.8, 0.2])

    def test_respects_label_normalization(self):
        g1 = make_graph(["hasA"], [])
        g2 = make_graph(["has_a"], [])
        assert initial_distribution(g1, g2).tolist() == [1.0]


class TestSolverConfig:
    @pytest.mark.parametrize("epsilon", [0.0, -1e-9, float("nan")])
    def test_non_positive_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            SolverConfig(epsilon=epsilon)

    @pytest.mark.parametrize("max_iters", [2.5, "10", 0])
    def test_max_iters_must_be_a_positive_integer(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be a positive integer"):
            SolverConfig(max_iters=max_iters)

    @pytest.mark.parametrize("field, value", [
        ("damping_a", 0.0), ("damping_a", 1.5), ("method", "exact"),
        ("norm_mode", "softmax"), ("chain_mode", "sf"),
    ])
    def test_bad_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must .*, got {value!r}$"):
            SolverConfig(**{field: value})

    def test_damping_and_norm_mode_checks_are_shared(self):
        raw = dense_chain([[0, 1], [1, 0]], stochastic=False)

        def message(call, *args, **kwargs):
            with pytest.raises(ValueError) as info:
                call(*args, **kwargs)
            return str(info.value)

        damping = message(SolverConfig, damping_a=1.5)
        assert damping == message(normalize, raw, "complement", 1.5)
        assert damping == message(ergodic_transform, normalize(raw), 1.5)
        assert message(SolverConfig, norm_mode="softmax") == message(normalize, raw, "softmax")


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

    @pytest.mark.parametrize("pi0", [[0.5, 0.25, 0.25], [-0.5, 1.5], [0.0, 0.0],
                                     [np.nan, 1.0], [np.inf, 1.0]],
                             ids=["wrong-length", "negative", "all-zero", "nan", "inf"])
    def test_bad_pi0_rejected(self, pi0):
        with pytest.raises(ValueError, match="^pi0 must"):
            iterate(dense_chain(np.eye(2)), np.array(pi0))

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

    @pytest.mark.parametrize("matrix, expected", [
        # closed class {0, 1}: pi_1 = 2 pi_0; state 2 leaks into it
        ([[0.5, 0.5, 0], [0.25, 0.75, 0], [0.2, 0.3, 0.5]], [1 / 3, 2 / 3, 0]),
        # closed class {1, 2} between the transient states 0 and 3
        ([[0.5, 0.5, 0, 0], [0, 0.6, 0.4, 0], [0, 0.8, 0.2, 0], [0.1, 0, 0.4, 0.5]],
         [0, 2 / 3, 1 / 3, 0]),
        # the absorbing state 0 drains the rest
        ([[1, 0, 0], [0.5, 0.5, 0], [0, 0.5, 0.5]], [1, 0, 0]),
    ])
    def test_hand_solved_closed_class_before_transient_states(self, matrix, expected):
        pi = steady_state(dense_chain(matrix)).distribution
        assert np.max(np.abs(pi - expected)) <= 1e-12
        assert np.max(np.abs(pi - stationary_dense(matrix))) <= 1e-12
        assert all(pi[i] == 0.0 for i, e in enumerate(expected) if e == 0)

    def test_underflowing_weight_raises_numerically_singular(self):
        # one closed class, but 1.0 - 1.0 leaves state 0 no pivot: its only
        # way out (1e-300) is lost against the self-loop
        chain = dense_chain([[1.0, 1e-300], [0, 1.0]])
        with pytest.raises(SolverError, match="numerically singular") as info:
            steady_state(chain)
        assert "--method iterative" in str(info.value)

    def test_negative_solution_raises_ill_conditioned(self):
        # rows may sum to 1 within ROW_SUM_TOL; row 1's excess e = 1e-10
        # outweighs the 1e-12 that leaves the block {1, 2}, so the block's
        # last pivot is about -e, and the solution has entries of both signs
        e = 1e-10
        chain = dense_chain([[0, 0.5, 0, 0.5], [0, 0.5, 0.5 + e, 0],
                             [1e-12, 0.5, 0.5, 0], [0.9 * e, 0, 0, 1 - 0.9 * e]])
        with pytest.raises(SolverError, match="significantly negative entry") as info:
            steady_state(chain)
        assert "ill-conditioned" in str(info.value) and "--method iterative" in str(info.value)

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

    def test_import_leaves_assignment_modules_unloaded(self):
        # hungarian_max imports scipy.optimize and steady_state
        # scipy.sparse.csgraph on first use: scipy.optimize alone adds
        # 0.2-0.4 s to start-up
        src = str(Path(chainalign.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import chainalign; "
             "print([m for m in ('scipy.optimize', 'scipy.sparse.csgraph') if m in sys.modules])",
             src],
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "[]"

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
            direct = steady_state(damped)
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


@st.composite
def ring_graphs(draw):
    """One to eight terms on a ring (one term: a self-loop) plus up to six
    chords, so every term has an out-edge. Each edge carries "linksTo" or
    "linkTo", one edit apart, so every pair of edges is compatible, with
    weight 1 or 4/3."""
    n = draw(st.integers(1, 8))
    ids = [f"t{i}" for i in range(n)]
    pairs = {(i, (i + 1) % n) for i in range(n)}
    pairs |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=6)))
    return make_graph(ids, [(ids[s], ids[d], draw(st.sampled_from(["linksTo", "linkTo"])))
                            for s, d in sorted(pairs)])


class TestPairChainSteadyState:
    """steady_state on pair chains from build_upmc, whose product order has
    two factors; one side may be a single term, a 1 x 1 factor."""

    @settings(max_examples=150, deadline=None)
    @given(ring_graphs(), ring_graphs(), st.sampled_from([1.0, 0.85]))
    @example(make_graph("A", [("A", "A", "linksTo")]),
             make_graph("DEF", [("D", "E", "linksTo"), ("E", "F", "linkTo"), ("F", "D", "linksTo"),
                                ("D", "F", "linksTo")]), 1.0)
    @example(make_graph("ABCD", [("A", "B", "linksTo"), ("B", "C", "linksTo"), ("C", "D", "linkTo"),
                                 ("D", "A", "linksTo"), ("A", "C", "linksTo"),
                                 ("A", "A", "linkTo")]),
             make_graph("E", [("E", "E", "linkTo")]), 0.85)
    def test_matches_dense_oracle(self, g1, g2, a):
        chain = normalize(build_upmc(g1, g2), "complement", a)
        assert chain.n2 == len(g2.term_ids)
        assume(closed_class_count(chain.transitions) == 1)
        pi = steady_state(chain).distribution
        assert np.max(np.abs(pi - stationary_dense(chain.matrix.toarray()))) <= 1e-12
        assert np.max(np.abs(pi @ chain.matrix - pi)) <= 1e-12


class TestChainValidation:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="sorted and unique"):
            chain_from_rows([[(0, 0.5), (0, 0.5)]], stochastic=True)

    def test_unsorted_columns_rejected(self):
        with pytest.raises(ValueError, match="sorted and unique"):
            chain_from_rows([[(1, 0.5), (0, 0.5)], [(1, 1.0)]], stochastic=True)

    @pytest.mark.parametrize("rows", [
        [[(1, 0.5), (2, 0.5)], [(0, 1.0)], [(2, 1.0)]],
        [[(2, 1.0)], [], [(2, 1.0)]],
        [[], [(0, 0.5), (2, 0.5)], [(0, 1.0)]],
    ])
    def test_row_may_start_at_or_below_previous_rows_last_column(self, rows):
        assert chain_from_rows(rows).transitions == rows

    @pytest.mark.parametrize("rows", [
        [[(0, 1.0)], [(2, 0.5), (1, 0.5)], [(2, 1.0)]],
        [[(0, 1.0)], [], [(1, 0.5), (1, 0.5)]],
        [[(2, 1.0)], [(0, 0.25), (2, 0.25), (1, 0.5)], [(2, 1.0)]],
    ])
    def test_descending_or_duplicate_column_inside_a_later_row_rejected(self, rows):
        with pytest.raises(ValueError, match="sorted and unique"):
            chain_from_rows(rows)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 4), max_size=4), min_size=1, max_size=5))
    def test_rejects_exactly_the_rows_not_strictly_rising(self, columns):
        n = max(len(columns), 5)
        rows = [[(c, 1.0) for c in cols] for cols in columns] + [[]] * (n - len(columns))
        if all(a < b for cols in columns for a, b in zip(cols, cols[1:])):
            chain_from_rows(rows)
        else:
            with pytest.raises(ValueError, match="sorted and unique"):
                chain_from_rows(rows)

    def test_column_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            chain_from_rows([[(1, 1.0)]], stochastic=True)

    @pytest.mark.parametrize("matrix", [np.eye(2), sparse.csc_matrix(np.eye(2))])
    def test_non_csr_matrix_rejected(self, matrix):
        with pytest.raises(ValueError, match="must be a scipy.sparse.csr_matrix, got"):
            PairwiseChain(matrix)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match="square"):
            PairwiseChain(sparse.csr_matrix(np.ones((2, 3))))

    @pytest.mark.parametrize("n2", [0, -2, 4, 5, 2.0, "2", None])
    def test_grid_width_must_divide_the_states(self, n2):
        with pytest.raises(ValueError, match=rf"divides the 6 states, got {n2!r}"):
            PairwiseChain(sparse.csr_matrix((6, 6)), n2=n2)

    @pytest.mark.parametrize("n2", [1, 2, 3, 6])
    def test_grid_width_dividing_the_states_accepted(self, n2):
        assert PairwiseChain(sparse.csr_matrix((6, 6)), n2=n2).n2 == n2

    def test_grid_width_survives_every_transform(self, figure_left, birds):
        raw = build_upmc(figure_left, birds)
        assert raw.n2 == len(birds.term_ids) > 1
        assert exact_matches(raw).n2 == raw.n2
        assert normalize(raw, "complement", 0.85).n2 == raw.n2
        assert ergodic_transform(normalize(raw), 0.85).n2 == raw.n2
        # both sides without edges: the chain has no entries, but a width
        assert build_upmc(make_graph("ABC", []), make_graph("DE", [])).n2 == 2

    def test_damping_recorded_by_every_transform(self, figure_left, birds):
        raw = build_upmc(figure_left, birds)
        assert raw.damping == 1.0
        assert normalize(raw, "complement", 0.85).damping == 0.85
        assert ergodic_transform(normalize(raw, "complement", 0.5), 0.5).damping == 0.25
        half = PairwiseChain(raw.matrix, n2=raw.n2, damping=0.5)
        assert exact_matches(half).damping == 0.5

    @pytest.mark.parametrize("a", [0.0, -0.5, 1.5, np.nan])
    def test_damping_outside_unit_interval_rejected(self, a):
        with pytest.raises(ValueError, match=r"^damping must lie in \(0, 1\]"):
            PairwiseChain(sparse.csr_matrix((2, 2)), damping=a)

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


class TestPairwiseOracle:
    """build_upmc and initial_distribution score all label pairs at once; the
    oracle scores one adjacency pair and one term pair at a time."""

    @settings(max_examples=200, deadline=None)
    @given(labeled_graphs(), labeled_graphs(), st.sampled_from([0.0, 0.5, 1.0]),
           st.sampled_from(list(LabelNorm)), st.sampled_from([EDGE_CONFIDENCE, BASELINE_SF]))
    def test_matches_per_pair_scoring(self, g1, g2, gamma, norm, mode):
        cfg = SimilarityConfig(gamma=gamma, label_normalization=norm)
        fold = norm is LabelNorm.FOLD
        chain = build_upmc(g1, g2, cfg)
        if mode == BASELINE_SF:
            chain = exact_matches(chain)
        indptr, indices, data = pair_chain_arrays(g1, g2, gamma, fold, mode == BASELINE_SF)
        assert chain.matrix.indptr.tolist() == indptr
        assert chain.matrix.indices.tolist() == indices
        assert chain.matrix.data.tolist() == data
        pi0 = initial_distribution(g1, g2, cfg)
        assert pi0.tolist() == lexical_start(g1, g2, fold).tolist()
        rows = chain.transitions
        for norm_mode in ("complement", "formula"):
            expected = normalize_rows(rows, norm_mode, baseline=mode == BASELINE_SF)
            assert normalize(chain, norm_mode).transitions == expected

    @settings(max_examples=100, deadline=None)
    @given(labeled_graphs(), labeled_graphs(), st.sampled_from(list(LabelNorm)))
    def test_baseline_sf_is_edge_confidence_at_gamma_one(self, g1, g2, norm):
        cfg = SimilarityConfig(label_normalization=norm)
        sets1, sets2 = list(g1.adjacency.values()), list(g2.adjacency.values())
        chain = exact_matches(build_upmc(g1, g2, cfg))
        shared = [[labels_share_exact_match(s1, s2, cfg) for s2 in sets2] for s1 in sets1]
        # at gamma 1 the edge-confidence oracle keeps exactly the pairs at
        # edit distance 0, each with weight 1
        indptr, indices, data = pair_chain_arrays(g1, g2, 1.0, norm is LabelNorm.FOLD, False)
        assert chain.matrix.indptr.tolist() == indptr
        assert chain.matrix.indices.tolist() == indices
        assert chain.matrix.data.tolist() == data
        norm1 = [[normalize_label(a, cfg) for a in s] for s in sets1]
        norm2 = [[normalize_label(b, cfg) for b in s] for s in sets2]
        assert shared == [[any(levenshtein(a, b) == 0 for a in n1 for b in n2) for n2 in norm2]
                          for n1 in norm1]

    def test_edit_distance_kernel_runs_once_per_build_upmc(self, birds, zoo):
        # build_chain reads the raw chain in either mode and runs no kernel
        with mock.patch.object(lexical, "levenshtein_matrix",
                               wraps=lexical.levenshtein_matrix) as kernel:
            raw = build_upmc(birds, zoo)
            assert kernel.call_count == 1
            for mode in (EDGE_CONFIDENCE, BASELINE_SF):
                build_chain(raw, SolverConfig(chain_mode=mode))
        assert kernel.call_count == 1


def csr_arrays(matrix):
    """indptr, indices and data of a compressed matrix, as (dtype, bytes)."""
    return [(a.dtype.str, a.tobytes()) for a in (matrix.indptr, matrix.indices, matrix.data)]


@st.composite
def raw_rows(draw):
    """Rows of a raw chain as (column, weight) lists, in a drawn order: an
    empty row, a single-entry row, a row that stores its diagonal entry, a
    row of weights 5 and 1e-300 (one share cancels to exactly 0.0 under
    either reading) and up to five rows of random entries."""
    kinds = draw(st.permutations(
        ["empty", "single", "diagonal", "cancel"] + ["random"] * draw(st.integers(0, 5))))
    n = len(kinds)
    column = st.integers(0, n - 1)
    weight = st.one_of(st.sampled_from([1.0, 4 / 3, 2.0, 5.0, 1e-300]), st.floats(0.05, 5.0))
    rows = []
    for i, kind in enumerate(kinds):
        if kind == "cancel":
            cols = draw(st.lists(column, min_size=2, max_size=2, unique=True))
            rows.append(sorted(zip(cols, draw(st.permutations([5.0, 1e-300])))))
            continue
        if kind == "empty":
            cols = set()
        elif kind == "single":
            cols = {draw(column)}
        elif kind == "diagonal":
            cols = {i} | set(draw(st.lists(column, max_size=3)))
        else:
            cols = set(draw(st.lists(column, max_size=n)))
        rows.append([(c, draw(weight)) for c in sorted(cols)])
    return rows


DAMPING = st.one_of(st.just(1.0), st.just(0.85),
                    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


class TestFusedNormalize:
    """normalize damps in the same pass; the two-stage oracle is the
    package's earlier normalize followed by ergodic_transform."""

    @settings(max_examples=150, deadline=None)
    @given(raw_rows(), DAMPING)
    def test_matches_two_stage_oracle(self, rows, a):
        raw = chain_from_rows(rows)
        for norm_mode in ("complement", "formula"):
            expected = csr_arrays(normalize_then_damp(raw.matrix, norm_mode, a))
            assert csr_arrays(normalize(raw, norm_mode, a).matrix) == expected
            # ergodic_transform damps through the same helper
            damped = ergodic_transform(normalize(raw, norm_mode), a)
            assert csr_arrays(damped.matrix) == expected

    def test_generated_rows_cancel_a_share(self):
        # the cancelling row of raw_rows loses an entry under both readings
        raw = chain_from_rows([[(0, 5.0), (1, 1e-300)], []])
        for norm_mode in ("complement", "formula"):
            assert len(normalize(raw, norm_mode).transitions[0]) == 1

    @pytest.mark.parametrize("a", [0.0, 1.5])
    def test_damping_out_of_range_rejected(self, a):
        with pytest.raises(ValueError, match="a must lie"):
            normalize(dense_chain([[0, 1], [1, 0]], stochastic=False), "complement", a)

    @pytest.mark.parametrize("left", FIXTURE_FILES)
    @pytest.mark.parametrize("right", FIXTURE_FILES)
    def test_fixture_pair_chains(self, left, right):
        raw = build_upmc(load_ontology(DATA_DIR / left), load_ontology(DATA_DIR / right))
        for a in (1.0, 0.85):
            expected = normalize_then_damp(raw.matrix, "complement", a)
            assert csr_arrays(normalize(raw, "complement", a).matrix) == csr_arrays(expected)


def two_rings(n1, n2):
    """Two hand-made single-label rings with chords: n1 terms with chords
    i -> i + 2 and i -> 7i + 3, and n2 terms with chords i -> i + 2 and
    i -> 5i + 1. The i -> i + 2 chords close cycles of n - 1 hops, so both
    are aperiodic and their pair chain has one closed class."""
    def ring(prefix, n, step, shift):
        ids = [f"{prefix}{i:02d}" for i in range(n)]
        pairs = {(i, (i + 1) % n) for i in range(n)} | {(i, (i + 2) % n) for i in range(n)}
        pairs |= {(i, (step * i + shift) % n) for i in range(n)}
        return make_graph(ids, [(ids[s], ids[d], "linksTo") for s, d in sorted(pairs) if s != d])
    return ring("a", n1, 7, 3), ring("b", n2, 5, 1)


class TestPinnedSystem:
    """steady_state factors I - P^T without the row and column of r, the
    first state of the closed class, with its states in product order;
    checked against the same system built densely by numpy."""

    def check(self, chain):
        (closed,) = closed_classes(chain.transitions)
        r = min(closed)
        n = len(chain)
        expected = np.delete(np.delete(np.eye(n) - chain.matrix.toarray().T, r, axis=0), r, axis=1)
        order = product_order(chain)
        # a product order: row k of the grid pairs ontology 1's k-th term
        # with every term of ontology 2, in one order for all k
        grid = order.reshape(-1, chain.n2)
        assert sorted(order.tolist()) == list(range(n))
        assert (grid // chain.n2 == grid[:, :1] // chain.n2).all()
        assert (grid % chain.n2 == grid[0] % chain.n2).all()
        # each state but r, at its index in the pinned system
        permuted = order[order != r] - (order[order != r] > r)
        with mock.patch("scipy.sparse.linalg.splu", wraps=splu) as factor:
            try:
                steady_state(chain)
            except SolverError as exc:
                # one closed class makes the exact system nonsingular, but
                # not the float one: a damping a with 1 - a == 1.0 leaves
                # every damped diagonal at 1.0, and I - P^T at 0.0 there
                assert "numerically singular" in str(exc)
                # rank on the system's own scale of 1: numpy's default
                # tolerance scales with the largest singular value, which
                # underflows to 0 when every entry is subnormal
                assert np.linalg.matrix_rank(expected, tol=(n - 1) * np.finfo(float).eps) < n - 1
        # the last call factors the system, in the order given
        (system,) = factor.call_args.args
        assert factor.call_args.kwargs["permc_spec"] == "NATURAL" and system.format == "csc"
        assert np.array_equal(system.toarray(), expected[permuted][:, permuted])
        assert system.nnz == np.count_nonzero(expected)

    @settings(max_examples=100, deadline=None)
    @given(raw_rows(), st.sampled_from(["complement", "formula"]), DAMPING)
    @example([[], [(0, 1.0)], [(0, 1.0), (2, 1.0)], [(0, 5.0), (1, 1e-300)]],
             "complement", 1.445556695610359e-125)
    @example([[], [(0, 1.0), (1, 1.0)], [(0, 1.0)], [(0, 5.0), (1, 1e-300)]],
             "complement", 1.1754943508222875e-38)
    @example([[(0, 1.0), (2, 1.0)], [(0, 1.0)], [], [(0, 5.0), (1, 1e-300)]],
             "complement", 5.622889229788019e-142)
    @example([[(0, 1e-300), (5, 5.0)], [], [(0, 1.0), (1, 1.0)], [(4, 1.0)], [(0, 1.0), (2, 1.0)],
              [(0, 1.0), (3, 1.0), (5, 1.0)]], "formula", 1e-323)
    def test_matches_dense_construction(self, rows, norm_mode, a):
        chain = normalize(chain_from_rows(rows), norm_mode, a)
        assume(support(chain) != {(i, i) for i in range(len(chain))})  # not the identity
        if closed_class_count(chain.transitions) > 1:
            with mock.patch("scipy.sparse.linalg.splu") as factor, pytest.raises(SolverError):
                steady_state(chain)
            assert factor.call_count == 0
            return
        self.check(chain)

    def test_ring_chain(self):
        # a ring with chords, as in the steady-state benchmark: every
        # diagonal entry is inserted by damping, and state 0 is pinned
        n = 30
        rows = [sorted({(i + 1) % n: 1.0, (i * 7 + 3) % n: 2.0}.items()) for i in range(n)]
        chain = normalize(chain_from_rows(rows), "complement", 0.85)
        assert chain.matrix[:, 0].nnz > 1
        self.check(chain)

    def test_pair_chain(self):
        chain = normalize(build_upmc(*two_rings(5, 4)), "complement", 0.85)
        assert chain.n2 == 4
        self.check(chain)

    def test_product_order_fills_less_than_colamd_or_state_order(self):
        # a count, not a timing: L + U of steady_state's factor against
        # SuperLU's default order (COLAMD) on the same pinned system, and
        # against state order, the product of the two term orders as given
        chain = normalize(build_upmc(*two_rings(30, 30)), "complement", 0.85)
        factors = []

        def spy(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]

        with mock.patch("scipy.sparse.linalg.splu", side_effect=spy):
            pi = steady_state(chain).distribution
        # every state carries mass, so all are in the closed class and r is 0
        assert (pi > 0).all()
        keep = np.arange(len(chain)) != 0
        system = (sparse.identity(len(chain), format="csc") - chain.matrix.T)[keep][:, keep]
        fill = factors[-1].L.nnz + factors[-1].U.nnz
        colamd = splu(system, options=dict(SymmetricMode=True))
        assert fill < colamd.L.nnz + colamd.U.nnz
        natural = splu(system, permc_spec="NATURAL", options=dict(SymmetricMode=True))
        assert fill < natural.L.nnz + natural.U.nnz


class TestPinnedAssembly:
    """steady_state assembles its pinned system in one CSC construction;
    the oracle assembles it by sparse indexing, as the package did before.
    Both factor the same system, so pi is the same to the last bit."""

    def assert_matches_indexed(self, chain):
        expected = steady_state_indexed(chain)
        if expected is None:
            with pytest.raises(SolverError):
                steady_state(chain)
        else:
            assert np.array_equal(steady_state(chain).distribution, expected)

    @settings(max_examples=100, deadline=None)
    @given(raw_rows(), st.sampled_from(["complement", "formula"]), DAMPING)
    def test_generated_chains(self, rows, norm_mode, a):
        chain = normalize(chain_from_rows(rows), norm_mode, a)
        assume(support(chain) != {(i, i) for i in range(len(chain))})  # not the identity
        self.assert_matches_indexed(chain)

    @settings(max_examples=50, deadline=None)
    @given(ring_graphs(), ring_graphs(), st.sampled_from([1.0, 0.85]))
    def test_pair_chains(self, g1, g2, a):
        self.assert_matches_indexed(normalize(build_upmc(g1, g2), "complement", a))

    def test_ring_pair_chain(self):
        self.assert_matches_indexed(normalize(build_upmc(*two_rings(12, 9)), "complement", 0.85))


class TestTransposedIterate:
    """iterate multiplies by a once-built transpose; the oracle is the
    earlier ``pi @ P`` loop."""

    def assert_matches_loop(self, chain, pi0, cfg):
        result = iterate(chain, pi0, cfg)
        pi, iterations, converged = iterate_rmatmul(chain.matrix, pi0, cfg.epsilon, cfg.max_iters,
                                                    chain.damping)
        assert result.distribution.tobytes() == pi.tobytes()
        assert (result.iterations, result.converged) == (iterations, converged)
        return result

    @settings(max_examples=100, deadline=None)
    @given(raw_rows(), DAMPING, st.sampled_from([1e-3, 1e-9, 1e-15]), st.integers(1, 40),
           st.data())
    def test_matches_rmatmul_loop(self, rows, a, epsilon, max_iters, data):
        chain = normalize(chain_from_rows(rows), "complement", a)
        pi0 = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(rows),
                                          max_size=len(rows))))
        self.assert_matches_loop(chain, pi0, SolverConfig(epsilon=epsilon, max_iters=max_iters))

    def test_run_stopped_at_max_iters(self):
        chain = dense_chain([[0, 1], [1, 0]])
        result = self.assert_matches_loop(chain, np.array([0.9, 0.1]), SolverConfig(max_iters=50))
        assert (result.iterations, result.converged) == (50, False)

    def test_perturbation_case_chain(self):
        base, mutant, _ = make_perturbation_case(0)
        chain = normalize(build_upmc(base, mutant), "complement", 0.85)
        pi0 = initial_distribution(base, mutant)
        result = self.assert_matches_loop(chain, pi0, SolverConfig())
        assert result.converged and result.iterations > 1


class TestUndampedStop:
    """iterate stops on the undamped residual, read through chain.damping."""

    @settings(max_examples=60, deadline=None)
    @given(raw_rows(), st.sampled_from(["complement", "formula"]),
           st.one_of(st.just(1.0), st.just(0.85), st.floats(0.05, 1.0)),
           st.sampled_from([1e-3, 1e-6, 1e-9]), st.data())
    def test_converged_run_bounds_the_undamped_residual(self, rows, norm_mode, a, epsilon, data):
        # the stop test measured pi_t, and pi_{t+1} = pi_t P' is returned.
        # P' = aQ + (1-a)I commutes with the undamped Q, so pi_{t+1}(Q - I)
        # = pi_t(Q - I) P', at most epsilon times P''s largest column sum
        raw = chain_from_rows(rows)
        chain = normalize(raw, norm_mode, a)
        pi0 = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(rows),
                                          max_size=len(rows))))
        result = iterate(chain, pi0, SolverConfig(epsilon=epsilon, max_iters=2000))
        assume(result.converged)
        undamped = normalize(raw, norm_mode).matrix
        pi = result.distribution
        column_sum = chain.matrix.sum(axis=0).max()
        assert np.max(np.abs(pi @ undamped - pi)) <= epsilon * column_sum + 1e-12


class TestExactMatches:
    """The baseline-sf raw chain read off the edge-confidence one, against
    the oracle's similarity-flooding rule (a shared normalized label)."""

    @staticmethod
    def assert_matches_baseline_oracle(g1, g2, cfg):
        derived = exact_matches(build_upmc(g1, g2, cfg)).matrix
        fold = cfg.label_normalization is LabelNorm.FOLD
        indptr, indices, data = pair_chain_arrays(g1, g2, cfg.gamma, fold, True)
        assert (derived.indptr.tolist(), derived.indices.tolist(), derived.data.tolist()) == (
            indptr, indices, data)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.76, 1.0])
    @pytest.mark.parametrize("norm", list(LabelNorm))
    def test_equals_baseline_build(self, gamma, norm):
        cfg = SimilarityConfig(gamma=gamma, label_normalization=norm)
        graphs = [load_ontology(DATA_DIR / name) for name in FIXTURE_FILES]
        base, mutant, _ = make_perturbation_case(1)
        for g1, g2 in [*itertools.product(graphs, graphs), (base, mutant)]:
            self.assert_matches_baseline_oracle(g1, g2, cfg)

    @settings(max_examples=100, deadline=None)
    @given(labeled_graphs(), labeled_graphs(), st.sampled_from([0.0, 0.5, 0.76, 1.0]),
           st.sampled_from(list(LabelNorm)))
    def test_equals_baseline_build_on_generated_graphs(self, g1, g2, gamma, norm):
        self.assert_matches_baseline_oracle(
            g1, g2, SimilarityConfig(gamma=gamma, label_normalization=norm))

    def test_stochastic_chain_rejected(self):
        with pytest.raises(ValueError, match="unnormalized"):
            exact_matches(dense_chain([[1.0]]))
