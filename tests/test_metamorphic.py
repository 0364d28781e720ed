"""Metamorphic properties of the whole pipeline: rewrites of the input
ontologies whose effect on the output is known without an oracle."""
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainalign.chain import SolverConfig, SolverError
from chainalign.matching import Alignment, Correspondence, alignment_to_json, to_matrix
from chainalign.ontology import LabeledEdge, OntologyGraph, Term, load_ontology
from chainalign.pipeline import align

from conftest import DATA_DIR, FIXTURE_FILES, labeled_graphs

SOLVERS = [SolverConfig(method=method, chain_mode=mode)
           for method in ("iterative", "steady-state")
           for mode in ("edge-confidence", "baseline-sf")]
FIXTURE_PAIRS = list(product(FIXTURE_FILES, repeat=2))


def fixture_pair(names):
    return [load_ontology(DATA_DIR / name) for name in names]


def renamed(g: OntologyGraph, new_ids) -> OntologyGraph:
    """``g`` with its k-th smallest term id replaced by ``new_ids[k]``."""
    rename = dict(zip(g.term_ids, new_ids))
    return OntologyGraph(
        terms={rename[t]: Term(rename[t], g.label(t)) for t in g.terms},
        edges=[LabeledEdge(rename[e.source], rename[e.target], e.label) for e in g.edges],
    )


def sorted_ids(n: int):
    """n distinct non-empty ids in sorted order."""
    return st.lists(st.text(min_size=1, max_size=4), min_size=n, max_size=n,
                    unique=True).map(sorted)


def outcome(g1, g2, solver, back1=None, back2=None):
    """align's alignment as JSON, with ids mapped through ``back1`` and
    ``back2`` when given, and its distribution; or the message of the
    SolverError it raised, and None."""
    try:
        alignment, result = align(g1, g2, solver_cfg=solver)
    except SolverError as exc:
        return str(exc), None
    if back1 is not None:
        alignment = Alignment([Correspondence(back1[c.source], back2[c.target], c.confidence)
                               for c in alignment.correspondences], alignment.metadata)
    return alignment_to_json(alignment), result.distribution


def check_renaming(g1, g2, ids1, ids2, solver):
    text, _ = outcome(g1, g2, solver)
    got, _ = outcome(renamed(g1, ids1), renamed(g2, ids2), solver,
                     dict(zip(ids1, g1.term_ids)), dict(zip(ids2, g2.term_ids)))
    assert got == text


def check_doubled_edges(g1, g2, solver):
    def doubled(g):
        return OntologyGraph(terms=g.terms, edges=g.edges + g.edges)

    text, dist = outcome(g1, g2, solver)
    got, got_dist = outcome(doubled(g1), doubled(g2), solver)
    assert got == text
    assert (got_dist is None and dist is None) or got_dist.tobytes() == dist.tobytes()


def check_swap(g1, g2, solver):
    # scores, not pairs: the tie-break favours early rows, so swapping the
    # sides may pick a different one of several tied optima
    text, forward = outcome(g1, g2, solver)
    swapped_text, backward = outcome(g2, g1, solver)
    if forward is None or backward is None:
        assert swapped_text == text  # the same SolverError
        return
    scores = to_matrix(forward, g1.term_ids, g2.term_ids)
    swapped = to_matrix(backward, g2.term_ids, g1.term_ids)
    np.testing.assert_allclose(swapped, scores.T, rtol=0.0, atol=1e-12)


class TestOrderPreservingRenaming:
    """Only the sorted order of term ids reaches the chain, so renaming
    ids in an order-preserving way renames the output and nothing else."""

    @settings(max_examples=60, deadline=None)
    @given(labeled_graphs(), labeled_graphs(), st.sampled_from(SOLVERS), st.data())
    def test_generated_graphs(self, g1, g2, solver, data):
        ids1 = data.draw(sorted_ids(len(g1)))
        ids2 = data.draw(sorted_ids(len(g2)))
        check_renaming(g1, g2, ids1, ids2, solver)

    @pytest.mark.parametrize("names", FIXTURE_PAIRS)
    def test_fixtures(self, names):
        g1, g2 = fixture_pair(names)
        for solver in SOLVERS:
            # ids by rank on one side, a common prefix on the other
            check_renaming(g1, g2, [f"n{k:03d}" for k in range(len(g1))],
                           ["x" + t for t in g2.term_ids], solver)


class TestDuplicateEdges:
    """Listing every edge twice is a no-op."""

    @settings(max_examples=60, deadline=None)
    @given(labeled_graphs(), labeled_graphs(), st.sampled_from(SOLVERS))
    def test_generated_graphs(self, g1, g2, solver):
        check_doubled_edges(g1, g2, solver)

    @pytest.mark.parametrize("names", FIXTURE_PAIRS)
    def test_fixtures(self, names):
        g1, g2 = fixture_pair(names)
        for solver in SOLVERS:
            check_doubled_edges(g1, g2, solver)


class TestSwappedSides:
    """Aligning g2 with g1 transposes the peak-rescaled score matrix of
    aligning g1 with g2, up to float rounding."""

    @settings(max_examples=60, deadline=None)
    @given(labeled_graphs(), labeled_graphs(), st.sampled_from(SOLVERS))
    def test_generated_graphs(self, g1, g2, solver):
        check_swap(g1, g2, solver)

    @pytest.mark.parametrize("names", FIXTURE_PAIRS)
    def test_fixtures(self, names):
        g1, g2 = fixture_pair(names)
        for solver in SOLVERS:
            check_swap(g1, g2, solver)
