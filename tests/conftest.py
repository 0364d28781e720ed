from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy import sparse

from chainalign.chain import PairwiseChain
from chainalign.ontology import LabeledEdge, OntologyGraph, Term, load_ontology

DATA_DIR = Path(__file__).parent / "data"

FIXTURE_FILES = ["birds.json", "zoo.json", "forest.json"]


def make_graph(term_ids, edges) -> OntologyGraph:
    """Small helper: terms labeled by their id, edges as (src, dst, label)."""
    return OntologyGraph(
        terms={t: Term(id=t, label=t) for t in term_ids},
        edges=[LabeledEdge(s, d, l) for s, d, l in edges],
    )


@pytest.fixture
def figure_left() -> OntologyGraph:
    """Three-term cycle with one object property per hop."""
    return make_graph("ABC", [("A", "B", "m"), ("B", "C", "n"), ("C", "A", "o")])


@pytest.fixture
def figure_right() -> OntologyGraph:
    """Three-term cycle plus a chord, primed labels."""
    return make_graph(
        "DEF",
        [("D", "E", "m'"), ("E", "F", "n'"), ("F", "D", "o'"), ("D", "F", "p")],
    )


@pytest.fixture(params=FIXTURE_FILES)
def fixture_graph(request) -> OntologyGraph:
    return load_ontology(DATA_DIR / request.param)


@pytest.fixture
def birds() -> OntologyGraph:
    return load_ontology(DATA_DIR / "birds.json")


@pytest.fixture
def zoo() -> OntologyGraph:
    return load_ontology(DATA_DIR / "zoo.json")


def dense_chain(matrix, stochastic: bool = True) -> PairwiseChain:
    """Chain from a dense square matrix; zeros are not stored."""
    return PairwiseChain(sparse.csr_matrix(np.asarray(matrix, dtype=float)), stochastic)


def chain_from_rows(rows, stochastic: bool = False) -> PairwiseChain:
    """Chain whose row i lists ``(column, weight)`` pairs sorted by column."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    cols = [c for r in rows for c, _ in r]
    weights = [w for r in rows for _, w in r]
    matrix = sparse.csr_matrix((np.array(weights, dtype=float), np.array(cols, dtype=np.int32),
                                indptr), shape=(len(rows), len(rows)))
    return PairwiseChain(matrix, stochastic)


def support(chain) -> set[tuple[int, int]]:
    """All (row, column) positions that carry a transition."""
    rows, cols = chain.matrix.nonzero()
    return set(zip(rows.tolist(), cols.tolist()))


def random_raw_chain(rng: random.Random, max_states: int = 20) -> PairwiseChain:
    """Seeded unnormalized chain with a sparse mix of filled and empty rows."""
    n = rng.randint(1, max_states)
    transitions = []
    for _ in range(n):
        k = rng.randint(0, min(n, 4))
        cols = sorted(rng.sample(range(n), k))
        transitions.append([(c, rng.uniform(0.05, 5.0)) for c in cols])
    return chain_from_rows(transitions)


def random_stochastic_chain(
    rng: random.Random, n: int, dense: bool = True
) -> PairwiseChain:
    """Seeded row-stochastic chain; dense rows make it irreducible and aperiodic."""
    transitions = []
    for _ in range(n):
        if dense:
            cols = range(n)
        else:
            k = rng.randint(1, n)
            cols = sorted(rng.sample(range(n), k))
        weights = [rng.uniform(0.05, 1.0) for _ in cols]
        total = sum(weights)
        transitions.append([(c, w / total) for c, w in zip(cols, weights)])
    return chain_from_rows(transitions, stochastic=True)


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
