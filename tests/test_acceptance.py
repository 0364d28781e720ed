"""Acceptance suite: one test per release criterion.

Each test prints a ``ACCEPTANCE <nn> ...: PASS`` line once its assertions
hold (visible with ``pytest -v -s``); a failing criterion shows up as a
regular pytest failure. Tolerances are pinned here and nowhere else.

Criterion 1 note: the edit-distance oracle domain is every ordered pair
over {a, b, c} with a combined length budget (|a| + |b| <= 8, exhaustive,
83,653 pairs) plus the full cross product of all strings up to length 4
(14,641 pairs). Checking the plain recursive oracle against the literal
"all pairs of lengths <= 8" cross product (96.8M pairs) cannot fit any
10-second budget; the budgeted domains cover every length shape up to
(4, 4) and every extreme shape up to (8, 0) with zero sampling.
"""
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from chainalign.chain import (
    BASELINE_SF,
    EDGE_CONFIDENCE,
    SolverConfig,
    build_upmc,
    ergodic_transform,
    exact_matches,
    iterate,
    normalize,
    steady_state,
)
from chainalign.cli import execute
from chainalign.evaluation import ReferenceAlignment, compare, comparison_csv, evaluate
from chainalign.lexical import SimilarityConfig, edit_similarity, levenshtein
from chainalign.matching import hungarian_max
from chainalign.ontology import load_ontology
from chainalign.pipeline import align

from benchcases import make_perturbation_case
from conftest import (
    DATA_DIR,
    FIXTURE_FILES,
    chain_from_rows,
    dense_chain,
    make_graph,
    random_raw_chain,
    support,
)
from oracles import brute_force_assignment, levenshtein_memoized, levenshtein_recursive


def passed(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def all_strings(alphabet: str, max_len: int) -> list[str]:
    return [
        "".join(p)
        for n in range(max_len + 1)
        for p in itertools.product(alphabet, repeat=n)
    ]


def dense_random_chain(rng: random.Random, n: int):
    rows = []
    for _ in range(n):
        weights = [rng.uniform(0.05, 1.0) for _ in range(n)]
        total = sum(weights)
        rows.append([w / total for w in weights])
    return dense_chain(rows)


def ring_random_chain(rng: random.Random, n: int):
    """Sparse rows plus a ring edge per row, so the chain stays irreducible."""
    transitions = []
    for i in range(n):
        cols = {(i + 1) % n} | set(rng.sample(range(n), rng.randint(0, min(n, 3))))
        cols = sorted(cols)
        weights = [rng.uniform(0.05, 1.0) for _ in cols]
        total = sum(weights)
        transitions.append([(c, w / total) for c, w in zip(cols, weights)])
    return chain_from_rows(transitions, stochastic=True)


def test_c01_levenshtein_oracle_equivalence():
    start = time.perf_counter()
    strings = all_strings("abc", 8)
    by_length: dict[int, list[str]] = {}
    for s in strings:
        by_length.setdefault(len(s), []).append(s)

    mismatches = 0
    # plain (uncached) recursion wherever the combined length keeps the
    # branching tractable
    for i in range(7):
        for j in range(7 - i):
            for a in by_length[i]:
                for b in by_length[j]:
                    mismatches += levenshtein(a, b) != levenshtein_recursive(a, b)
    # memoized transcription of the same recurrence for the wider budget
    for i in range(9):
        for j in range(9 - i):
            if i + j <= 6:
                continue
            for a in by_length[i]:
                for b in by_length[j]:
                    mismatches += levenshtein(a, b) != levenshtein_memoized(a, b)
    # full cross product of the short strings
    short = all_strings("abc", 4)
    for a in short:
        for b in short:
            mismatches += levenshtein(a, b) != levenshtein_memoized(a, b)
    # seeded random pairs up to length 12
    rng = random.Random(20240901)
    for _ in range(1000):
        a = "".join(rng.choices("abc", k=rng.randint(0, 12)))
        b = "".join(rng.choices("abc", k=rng.randint(0, 12)))
        mismatches += levenshtein(a, b) != levenshtein_memoized(a, b)

    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 10.0
    passed(1, f"levenshtein-oracle ({elapsed:.1f}s)")


def test_c02_edit_similarity_exactness():
    for dist in range(11):
        pairs = [("", "q" * dist), ("x" * dist, "y" * dist)]
        for a, b in pairs:
            assert levenshtein_memoized(a, b) == dist
            expected = 1.0 if dist == 0 else (0.75 if dist == 1 else 1.0 / dist)
            assert edit_similarity(a, b) == expected  # exact float of the rational
    passed(2, "edit-similarity-branches")


def test_c03_normalization_stochasticity():
    rng = random.Random(31337)
    single = empty = 0
    for _ in range(500):
        raw = random_raw_chain(rng, max_states=400)
        for norm_mode in ("formula", "complement"):
            chain = normalize(raw, norm_mode)
            for row in chain.transitions:
                assert abs(sum(w for _, w in row) - 1.0) <= 1e-9
        single += sum(len(r) == 1 for r in raw.transitions)
        empty += sum(len(r) == 0 for r in raw.transitions)
    assert single > 0 and empty > 0  # degenerate rows really were exercised
    passed(3, "normalization-stochasticity")


def test_c04_solver_agreement():
    start = time.perf_counter()
    rng = random.Random(777)
    cfg = SolverConfig(epsilon=1e-12, max_iters=100_000)
    for k in range(200):
        n = rng.randint(2, 50)
        chain = dense_random_chain(rng, n) if k % 2 == 0 else ring_random_chain(rng, n)
        damped = ergodic_transform(chain, 0.85)
        pi0 = np.full(n, 1.0 / n)
        it = iterate(damped, pi0, cfg)
        ss = steady_state(damped)
        assert it.converged
        assert np.max(np.abs(it.distribution - ss.distribution)) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    passed(4, f"solver-agreement ({elapsed:.1f}s)")


def test_c05_hand_solved_chain():
    chain = dense_chain([[0.9, 0.1], [0.5, 0.5]])
    expected = [5 / 6, 1 / 6]  # balance equation: 0.1 pi_0 = 0.5 pi_1
    it = iterate(chain, np.array([0.5, 0.5]), SolverConfig(epsilon=1e-12))
    ss = steady_state(chain)
    assert it.distribution == pytest.approx(expected, abs=1e-9)
    assert ss.distribution == pytest.approx(expected, abs=1e-9)
    passed(5, "hand-solved-chain")


def test_c06_ergodic_transform_stationarity():
    rng = random.Random(606)
    for _ in range(100):
        chain = dense_random_chain(rng, rng.randint(2, 25))
        base = steady_state(chain).distribution
        for a in (0.5, 0.85, 0.99):
            damped = steady_state(ergodic_transform(chain, a)).distribution
            assert np.max(np.abs(damped - base)) < 1e-6
    passed(6, "ergodic-transform-stationarity")


def test_c07_hungarian_oracle_equivalence():
    rng = random.Random(4242)
    rectangular = 0
    for _ in range(500):
        m = rng.randint(1, 6)
        n = rng.randint(1, 7)
        if rng.random() < 0.5:
            m, n = n, m
        rectangular += m != n
        mat = [[rng.random() for _ in range(n)] for _ in range(m)]
        expected_pairs, expected_total = brute_force_assignment(mat)
        got = hungarian_max(np.array(mat))
        assert got == expected_pairs
        total = sum(Fraction(mat[r][c]) for r, c in got)
        assert total == expected_total
    assert rectangular > 100
    passed(7, "hungarian-oracle")


def test_c08_baseline_reduction():
    fixtures = [load_ontology(DATA_DIR / name) for name in FIXTURE_FILES]
    figure_left = make_graph("ABC", [("A", "B", "m"), ("B", "C", "n"), ("C", "A", "o")])
    figure_right = make_graph(
        "DEF", [("D", "E", "m'"), ("E", "F", "n'"), ("F", "D", "o'"), ("D", "F", "p")]
    )
    graph_pairs = [(g, g) for g in fixtures]
    graph_pairs += [(figure_left, figure_right), (fixtures[0], fixtures[1])]
    graph_pairs += [make_perturbation_case(i)[:2] for i in range(5)]

    for g1, g2 in graph_pairs:
        # at gamma 1 edge confidence keeps exactly the baseline's transitions
        exact = build_upmc(g1, g2, SimilarityConfig(gamma=1.0))
        assert support(exact) == support(exact_matches(exact))
        for gamma in (0.25, 0.5, 0.75):
            ec = build_upmc(g1, g2, SimilarityConfig(gamma=gamma))
            sf = support(exact_matches(ec))
            assert sf == support(exact)
            assert sf <= support(ec)
    passed(8, "baseline-reduction")


def test_c09_self_alignment():
    for name in FIXTURE_FILES:
        g = load_ontology(DATA_DIR / name)
        identity = {(t, t) for t in g.terms}
        for method in ("iterative", "steady-state"):
            for mode in (EDGE_CONFIDENCE, BASELINE_SF):
                cfg = SolverConfig(method=method, chain_mode=mode)
                alignment, _ = align(g, g, solver_cfg=cfg)
                report = evaluate(alignment.pairs(), identity)
                assert alignment.pairs() == identity, (name, method, mode)
                assert report.precision == 1.0
                assert report.recall == 1.0
                assert report.f_measure == 1.0
    passed(9, "self-alignment")


def test_c10_recall_trend_on_label_perturbations():
    start = time.perf_counter()
    at_least = strictly = 0
    for case in range(30):
        base, mutant, reference = make_perturbation_case(case)
        rows = compare(base, mutant, reference, case=f"case{case:02d}")
        by_mode = {r.mode: r.report for r in rows}
        sf = by_mode[BASELINE_SF].recall
        ec = by_mode[EDGE_CONFIDENCE].recall
        at_least += ec >= sf
        strictly += ec > sf
    elapsed = time.perf_counter() - start
    assert at_least >= 25, f"edge-confidence recall >= baseline in only {at_least}/30"
    assert strictly >= 15, f"strictly greater in only {strictly}/30"
    assert elapsed < 60.0
    passed(10, f"recall-trend ({at_least}/30 >=, {strictly}/30 >, {elapsed:.1f}s)")


def test_c11_metric_formulas():
    returned = {"a", "b", "c"}
    valid = {"a", "b", "d", "e"}
    report = evaluate(returned, valid)
    assert report.precision == 2 / 3
    assert report.recall == 1 / 2
    assert report.f_measure == pytest.approx(4 / 7, abs=1e-15)
    passed(11, "metric-formulas")


def test_c12_compare_determinism(tmp_path):
    zoo = DATA_DIR / "zoo.json"
    reference = tmp_path / "ref.tsv"
    reference.write_text(
        "".join(f"{t}\t{t}\n" for t in ("lion", "tiger", "bear", "wolf")),
        encoding="utf-8",
    )
    blobs = []
    for i in range(2):
        out = tmp_path / f"run{i}.csv"
        code = execute(
            ["compare", str(zoo), str(zoo), str(reference), "-o", str(out),
             "--case", "determinism"]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    passed(12, "compare-determinism")
