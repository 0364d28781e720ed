"""Pairwise Markov chain over term pairs and its stationary solvers.

The chain's states are the full cross product of the two ontologies'
terms, and the whole chain is one n1*n2 x n1*n2 scipy CSR matrix: state
(i, j), the i-th term of ontology 1 paired with the j-th of ontology 2
(sorted ids on each side), is row and column i * n2 + j. A transition
(x, y) -> (x', y') exists exactly when ontology 1 has an edge x -> x'
and ontology 2 has an edge y -> y' whose label sets are lexically
compatible. Its weight is the thresholded reciprocal similarity of the
closest label pair across the two label sets (``lexical.label_set_weights``,
computed once per pair of label sets). ``build_upmc`` spreads those
weights over the adjacency entries that carry the sets: each entry of
ontology 1 is paired with the entries of ontology 2 that its set weighs
nonzero against, and SciPy converts the (row, column, weight) triplets
to CSR.

The two chain modes share that build, and ``pipeline.build_chain`` takes
it to either one. ``edge-confidence`` uses the chain as built.
``baseline-sf``, the pairwise connectivity graph of plain similarity
flooding, admits a transition with weight 1 only when the label sets
share an identical (normalized) label; an edge-confidence weight is 1.0
exactly then, so ``exact_matches`` reads the baseline-sf chain off the
edge-confidence one.

Row normalization turns the raw weights into a row-stochastic matrix.
Two readings of that step are implemented. Both treat the stored weight
as a dissimilarity d (identical labels give the smallest weight, 1):

* ``complement``: T_ij = (sum_j d_ij) - d_ij, then divide by the row sum
  of T. More similar means more probable. This is the default.
* ``formula``: M_i = sum_j 1/d_ij, T_ij = M_i - 1/d_ij, then divide by
  the row sum of T. Note this gives *less* similar edges the larger
  share; it is kept selectable because it is the other defensible
  reading of the normalization, and the discrepancy should stay visible
  rather than silently resolved.

Rows with a single entry get probability 1 on it; empty rows become
self-loops. Baseline chains normalize to uniform 1/outdegree under
either reading, because all their weights are 1: a row of k of them
gives each entry (k-1) / (k(k-1)), computed from exact integers, which
rounds to the same float as 1/k.

The ergodic damping transform P' = aP + (1-a)I removes periodicity (it
preserves the stationary distribution of irreducible chains) and should
be applied before either solver. ``normalize`` applies it straight
after it rescales the rows, as one sparse sum of two matrices built
straight from arrays: the row shares scaled by a, on the raw chain's
pattern, and the diagonal, which carries (1-a) in every row and a more
in the empty rows (their self-loops). Entries that come to 0.0 are
dropped. ``ergodic_transform`` damps an already stochastic chain through
the same helper.

The stationary distribution comes from either power iteration from the
lexical initial distribution, or a direct sparse LU solve of
(I - P^T) pi = 0. Power iteration reads P^T as ``P.T``, a CSC matrix
over P's own CSR arrays, which copies nothing. The direct solve requires a
unique stationary distribution, which holds exactly when the pair graph
has one closed class; it counts the closed classes first and raises
``SolverError`` on more than one (power iteration still answers such
chains). It then pins pi to 1 at the closed class's first state r and
solves the other n - 1 equations for the other n - 1 entries, a system
that keeps the sparsity of P; pi is normalized afterwards. The system is
permuted by sparse indexing into a product order (``product_order``) and
factored in it: each ontology's term graph, read off the chain, is
ordered by minimum degree, and state (i, j) is numbered
p1[i] * n2 + p2[j]. A pair chain lies inside the product of its two term
graphs, so that order keeps the LU's fill within the blocks where
ontology 1's own filled graph has an entry.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

# label_set_confidence and labels_share_exact_match are not called here; they
# stay bound as chain attributes, which the benchmark's tracer wraps
from .lexical import (  # noqa: F401
    SimilarityConfig,
    label_distances,
    label_set_confidence,
    label_set_weights,
    labels_share_exact_match,
    similarity_of_distance,
)
from .ontology import OntologyGraph

EDGE_CONFIDENCE = "edge-confidence"
BASELINE_SF = "baseline-sf"
CHAIN_MODES = (EDGE_CONFIDENCE, BASELINE_SF)

NORM_FORMULA = "formula"
NORM_COMPLEMENT = "complement"
NORM_MODES = (NORM_FORMULA, NORM_COMPLEMENT)

METHOD_ITERATIVE = "iterative"
METHOD_STEADY_STATE = "steady-state"
METHODS = (METHOD_ITERATIVE, METHOD_STEADY_STATE)

ROW_SUM_TOL = 1e-9

# What to do when the direct solve fails. Damping cannot help: aP + (1-a)I
# has the same communicating classes as P.
_REMEDY = ('use method="iterative" (--method iterative), which solves the chain '
           "from the lexical initial distribution")


class SolverError(RuntimeError):
    """The stationary system could not be solved as posed."""


def _check_damping(a: float, name: str = "damping_a") -> None:
    if isinstance(a, bool) or not 0.0 < a <= 1.0:  # True is no damping weight
        raise ValueError(f"{name} must lie in (0, 1], got {a}")


def _check_norm_mode(norm_mode: str) -> None:
    if norm_mode not in NORM_MODES:
        raise ValueError(f"norm_mode must be one of {NORM_MODES}, got {norm_mode!r}")


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-9
    max_iters: int = 10_000
    damping_a: float = 0.85
    method: str = METHOD_ITERATIVE
    norm_mode: str = NORM_COMPLEMENT
    chain_mode: str = EDGE_CONFIDENCE

    def __post_init__(self):
        # bool is an int subclass, but True is no tolerance or iteration count
        if isinstance(self.epsilon, bool) or not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if (not isinstance(self.max_iters, int) or isinstance(self.max_iters, bool)
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        _check_damping(self.damping_a)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        _check_norm_mode(self.norm_mode)
        if self.chain_mode not in CHAIN_MODES:
            raise ValueError(f"chain_mode must be one of {CHAIN_MODES}, got {self.chain_mode!r}")


@dataclass(frozen=True)
class PairwiseChain:
    """Transition matrix over pair states, held as one CSR matrix.

    State (i, j), term i of ontology 1 with term j of ontology 2 (sorted
    ids on each side), is row and column i * n2 + j. Every stored weight
    is positive and every row's columns are sorted and unique.
    ``stochastic`` records whether rows have been normalized to sum to 1.
    ``n2`` is the width of the pair grid, ontology 2's term count; it is 1
    for a chain that is not a pair chain. ``damping`` is the a of the
    damping aP + (1-a)I that made the chain (1 for none), which ``iterate``
    needs to read its steps as undamped residuals.
    """

    matrix: sparse.csr_matrix
    stochastic: bool = False
    n2: int = 1
    damping: float = 1.0

    def __post_init__(self):
        m = self.matrix
        if not isinstance(m, sparse.csr_matrix):
            raise ValueError(f"matrix must be a scipy.sparse.csr_matrix, got {type(m).__name__}")
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if not isinstance(self.n2, int) or self.n2 < 1 or n % self.n2:
            raise ValueError(
                f"n2 must be a positive integer that divides the {n} states, got {self.n2!r}")
        _check_damping(self.damping, "damping")
        if ((m.indices < 0) | (m.indices >= n)).any():
            raise ValueError("column index out of range")
        # every entry must exceed the one before it, except at a row start
        rising = np.diff(m.indices) > 0
        starts = m.indptr[1:-1]
        rising[starts[(starts > 0) & (starts < len(m.indices))] - 1] = True
        if not rising.all():
            raise ValueError("columns must be sorted and unique within each row")
        if not (m.data > 0).all():
            raise ValueError("stored weights must be positive")
        if self.stochastic:
            sums = m @ np.ones(n)
            off = np.abs(sums - 1.0) > ROW_SUM_TOL
            if off.any():
                i = int(np.argmax(off))
                raise ValueError(f"row {i}: stochastic row sums to {sums[i]}, not 1")

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def transitions(self) -> list[list[tuple[int, float]]]:
        """Each row's ``(column, weight)`` pairs as Python numbers, sorted by column."""
        cols, weights = self.matrix.indices.tolist(), self.matrix.data.tolist()
        ptr = self.matrix.indptr.tolist()
        return [list(zip(cols[a:b], weights[a:b])) for a, b in zip(ptr, ptr[1:])]


@dataclass(frozen=True)
class SolveResult:
    """Stationary distribution, the iterations spent and whether they converged."""

    distribution: np.ndarray
    iterations: int
    converged: bool


def _edges(g: OntologyGraph, scale: int):
    """Adjacency entries as arrays, sorted by source and then target term:
    source and target offsets (term index times ``scale``) and label-set
    ids; and the label sets in id order."""
    pos = {t: i for i, t in enumerate(g.term_ids)}
    # both endpoints of every entry in one gather, as (entries, 2)
    ends = np.fromiter(map(pos.__getitem__, itertools.chain.from_iterable(g.adjacency)),
                       dtype=np.intp, count=2 * len(g.adjacency)).reshape(-1, 2)
    sets = list(map(frozenset, g.adjacency.values()))
    distinct = list(dict.fromkeys(sets))
    ids = dict(zip(distinct, range(len(distinct))))
    sid = np.fromiter(map(ids.__getitem__, sets), dtype=np.intp, count=len(sets))
    order = np.lexsort((ends[:, 1], ends[:, 0]))
    return ends[order, 0] * scale, ends[order, 1] * scale, sid[order], distinct


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ranges starts[k], ..., starts[k] + sizes[k] - 1, one after another."""
    out = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    out += np.arange(len(out))
    return out


def _partners(weight: np.ndarray, sid2: np.ndarray):
    """Each g1 label set's partners: the g2 entries whose label set it
    weighs nonzero against. Returns set, entry and weight of every such
    pair, sorted by set and then entry."""
    s, t = np.divmod(np.flatnonzero(weight > 0), weight.shape[1])
    count = np.bincount(sid2, minlength=weight.shape[1])
    # the entries of set t, for each (s, t)
    entry = np.argsort(sid2, kind="stable")[_ranges(np.cumsum(count)[t] - count[t], count[t])]
    owner = np.repeat(s, count[t])
    order = np.lexsort((entry, owner))
    return owner[order], entry[order], np.repeat(weight[s, t], count[t])[order]


def build_upmc(
    g1: OntologyGraph,
    g2: OntologyGraph,
    cfg: SimilarityConfig | None = None,
) -> PairwiseChain:
    """Construct the unnormalized edge-confidence chain for two ontologies.

    Every adjacency entry carries one label set, so each pair of entries
    takes the weight of its two label sets (``label_set_weights``). Each g1
    entry, in (source, target) order, is paired with its set's partners
    (``_partners``), the g2 entries in (source, target) order too, so
    every row's columns come in sorted order. SciPy's COO to CSR
    conversion keeps that order within each row, so it has nothing to sort.
    """
    cfg = cfg or SimilarityConfig()
    if not g1.terms or not g2.terms:
        raise ValueError("both ontologies must contain at least one term")

    # an edge x -> x2 of g1 contributes i * n2 to the row and column indices,
    # an edge y -> y2 of g2 contributes j
    n2 = len(g2.term_ids)
    n = len(g1.term_ids) * n2
    src1, dst1, sid1, sets1 = _edges(g1, n2)
    src2, dst2, sid2, sets2 = _edges(g2, 1)
    if not sets1 or not sets2:
        return PairwiseChain(sparse.csr_matrix((n, n)), n2=n2)

    owner, partner, weight = _partners(label_set_weights(sets1, sets2, cfg), sid2)
    count = np.bincount(owner, minlength=len(sets1))
    made = count[sid1]  # the pairs each g1 entry makes
    # the narrowest width that holds a state index; the arrays of one entry
    # per pair are built in it, and freed once read, to keep the peak low at scale
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    e1 = np.repeat(np.arange(len(sid1), dtype=index), made)
    at = _ranges(np.cumsum(count)[sid1] - made, made)
    e2, data = partner.astype(index)[at], weight[at]
    del at
    rows = src1.astype(index)[e1]
    rows += src2.astype(index)[e2]
    cols = dst1.astype(index)[e1]
    cols += dst2.astype(index)[e2]
    del e1, e2
    # adjacency keys are unique on each side, so no (row, col) repeats, and
    # SciPy's conversion keeps each row's columns in the sorted order given
    return PairwiseChain(sparse.csr_matrix((data, (rows, cols)), shape=(n, n)), n2=n2)


def exact_matches(chain: PairwiseChain) -> PairwiseChain:
    """The baseline-sf chain read off an unnormalized edge-confidence chain.

    ``label_set_weights`` gives a pair of label sets the edge-confidence
    weight 1.0 exactly when their least distance d is 0: sigma is 1 only
    at d = 0, and 1 reaches every gamma in [0, 1]. That is similarity
    flooding's rule, so the entries equal to 1.0 are the baseline-sf chain.
    """
    if chain.stochastic:
        raise ValueError("exact_matches requires an unnormalized chain")
    m = chain.matrix.copy()
    m.data[m.data != 1.0] = 0.0
    m.eliminate_zeros()
    return PairwiseChain(m, n2=chain.n2, damping=chain.damping)


def normalize(chain: PairwiseChain, norm_mode: str = NORM_COMPLEMENT,
              a: float = 1.0) -> PairwiseChain:
    """Rescale every row of an unnormalized chain to sum to 1, and damp it.

    Damping (P' = aP + (1-a)I, see ``ergodic_transform``) follows through
    the same helper; ``a`` = 1 leaves the chain undamped.
    """
    if chain.stochastic:
        raise ValueError("chain is already stochastic")
    _check_norm_mode(norm_mode)
    _check_damping(a)
    m = chain.matrix
    # empty rows become self-loops of weight 1
    return PairwiseChain(_damped(m, _shares(m, norm_mode), a, loops=np.diff(m.indptr) == 0),
                         stochastic=True, n2=chain.n2, damping=a)


def _shares(m: sparse.csr_matrix, norm_mode: str) -> np.ndarray:
    """Each stored weight's transition probability within its row."""
    n = m.shape[0]
    counts = np.diff(m.indptr)
    rows = np.repeat(np.arange(n), counts)
    d = m.data if norm_mode == NORM_COMPLEMENT else 1.0 / m.data
    # bincount adds each row's values left to right from 0.0, as sum() does,
    # so the row sums are the floats a per-row Python loop gives
    temp = np.bincount(rows, d, n)[rows] - d
    temp[counts[rows] == 1] = 1.0
    return temp / np.bincount(rows, temp, n)[rows]


def _damped(m: sparse.csr_matrix, data: np.ndarray, a: float,
            loops: np.ndarray) -> sparse.csr_matrix:
    """aP + (1-a)I, where P holds ``data`` on m's pattern plus a self-loop
    of weight 1 on every row where ``loops`` is set. aP and the diagonal,
    a * loop + (1-a) in each row, are each built straight from arrays;
    their sparse sum keeps columns sorted and drops the entries that come
    to 0.0."""
    n = m.shape[0]
    p = sparse.csr_matrix((data if a == 1.0 else data * a, m.indices, m.indptr), shape=m.shape)
    return p + sparse.csr_matrix((a * loops + (1.0 - a), np.arange(n), np.arange(n + 1)),
                                 shape=m.shape)


def ergodic_transform(chain: PairwiseChain, a: float) -> PairwiseChain:
    """Damp the chain: P' = aP + (1-a)I. ``a`` = 1 returns the chain as is.
    A chain damped by d before is damped by a * d after."""
    if not chain.stochastic:
        raise ValueError("ergodic transform requires a stochastic chain")
    _check_damping(a)
    if a == 1.0:
        return chain
    m = chain.matrix
    return PairwiseChain(_damped(m, m.data, a, np.zeros(len(chain))), stochastic=True,
                         n2=chain.n2, damping=chain.damping * a)


def initial_distribution(
    g1: OntologyGraph,
    g2: OntologyGraph,
    cfg: SimilarityConfig | None = None,
) -> np.ndarray:
    """Lexical starting point: state (x, y) weighted by sigma of the term labels."""
    # state (i, j) at i * n2 + j: the row-major order of the distance matrix
    dist = label_distances([g1.label(t) for t in g1.term_ids],
                           [g2.label(t) for t in g2.term_ids], cfg or SimilarityConfig())
    values = similarity_of_distance(dist.ravel())
    return values / values.sum()


def iterate(chain: PairwiseChain, pi0: np.ndarray, cfg: SolverConfig | None = None) -> SolveResult:
    """Power iteration pi_t = pi_{t-1} P until the undamped residual falls
    under epsilon.

    On a chain damped by a (``chain.damping``), P' = aP + (1-a)I, a step
    pi P' - pi is a(pi P - pi), so the run stops once the max-norm step is
    at most epsilon * a: the undamped residual max|pi P - pi| of the vector
    it measured is then at most epsilon. The vector returned is one step
    further on. A damping too small to bring the residual under epsilon
    within ``max_iters`` ends with ``converged`` False.
    """
    cfg = cfg or SolverConfig()
    if not chain.stochastic:
        raise ValueError("iterate requires a stochastic chain")
    pi = np.asarray(pi0, dtype=float)
    if pi.shape != (len(chain),):
        raise ValueError(f"pi0 must have one entry per state ({len(chain)})")
    if not np.isfinite(pi).all() or pi.min() < 0 or pi.sum() <= 0:
        raise ValueError("pi0 must be a finite non-negative vector with positive mass")
    pi = pi / pi.sum()
    # pi P as P^T pi, where P.T is a CSC matrix over P's own arrays, no
    # copy. scipy's CSC matvec sums each entry from 0.0 in increasing row
    # of P, as the CSR matvec of a transposed copy and pi @ P do, so the
    # floats are the same.
    transposed = chain.matrix.T
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iters + 1):
        nxt = transposed @ pi
        delta = np.abs(nxt - pi).max()
        pi = nxt
        if delta <= cfg.epsilon * chain.damping:
            converged = True
            break
    pi = pi / pi.sum()
    return SolveResult(distribution=pi, iterations=iterations, converged=converged)


def product_order(chain: PairwiseChain) -> np.ndarray:
    """The chain's states in the order the direct solve eliminates them.

    Each ontology's term graph is read off the chain's pattern: rows and
    columns ``// n2`` for ontology 1, ``% n2`` for ontology 2. Each is
    ordered by SuperLU's multiple minimum degree on its symmetrized pattern,
    and state (i, j) takes position ``p1[i] * n2 + p2[j]``: the terms of
    ontology 1 in their order, each with the terms of ontology 2 in theirs.
    On a chain that is not a pair chain (``n2`` = 1) this is the minimum
    degree order of the chain itself.

    Why it keeps fill down: a transition (x, y) -> (x', y') needs the
    edges x -> x' and y -> y', so the chain's pattern lies inside the
    strong product of the two term graphs. Eliminating in this order, a
    fill path between two states runs through lower-numbered states, and
    so projects onto ontology 1 as a path through lower-numbered terms.
    Hence the LU's nonzero n2 x n2 blocks sit only where ontology 1's own
    filled graph has an entry, and the order of ontology 2 thins each block.
    """
    m, n2 = chain.matrix, chain.n2
    rows = np.repeat(np.arange(len(chain)), np.diff(m.indptr))
    first = _minimum_degree_order(rows // n2, m.indices // n2, len(chain) // n2)
    second = _minimum_degree_order(rows % n2, m.indices % n2, n2)
    return (first[:, None] * n2 + second).ravel()


def _minimum_degree_order(src: np.ndarray, dst: np.ndarray, size: int) -> np.ndarray:
    """The nodes 0 .. size - 1 of the graph src -> dst, in SuperLU's
    multiple minimum degree order of A^T + A."""
    from scipy.sparse.linalg import splu

    # a COO, summed by SciPy: a dense size² pattern orders alike but peaks at
    # 31 MB for 2,000 terms. Each edge counts 1 and each diagonal len(src) + 1
    # more, strictly dominant, so the factorization that yields the order cannot fail
    nodes = np.arange(size)
    graph = sparse.csc_matrix(
        (np.r_[np.ones(len(src)), np.full(size, len(src) + 1.0)],
         (np.r_[src, nodes], np.r_[dst, nodes])), shape=(size, size))
    position = splu(graph, permc_spec="MMD_AT_PLUS_A").perm_c
    return np.argsort(position)


def steady_state(chain: PairwiseChain) -> SolveResult:
    """Direct stationary solve of (I - P^T) pi = 0, pinned at one state.

    The solution is unique exactly when the chain has one closed class (a
    strongly connected component that no stored transition leaves); more
    raise ``SolverError``. Otherwise pi_r = 1 at r, the closed class's first
    state (a transient state has no mass to pin), and sparse LU solves the
    other n - 1 equations: I - P^T without row and column r, against P's
    row r without column r. Sparse indexing permutes the system's rows and
    columns alike into ``product_order``, which SuperLU is told to keep
    (``permc_spec="NATURAL"``). Each column of the system is a row of
    I - P less one entry, so for a row of P that sums to exactly 1 it is
    column diagonally dominant, and stays so under a symmetric permutation
    and through every elimination step: each diagonal pivot is at least as
    large as any entry below it. The elimination therefore needs no row
    pivoting, and in symmetric mode, with a diagonal pivot threshold of
    0.5 that rounding cannot cross, SuperLU takes every diagonal pivot, so
    the given order is the one factored. ``PairwiseChain`` accepts row
    sums within ``ROW_SUM_TOL`` of 1, and a row summing to 1 + e can miss
    dominance by up to e: where less than e of weight leaves a block of
    states, a pivot can turn negative. The solution can then have entries
    of both signs, and a significantly negative one raises
    ``SolverError``. Expects any damping to have been applied already, as
    ``normalize`` does with its ``a``. A pure identity chain admits every
    distribution as stationary; the uniform one is returned.
    """
    # imported here: scipy.sparse.linalg adds about 0.1 s to `import chainalign`
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import splu

    if not chain.stochastic:
        raise ValueError("steady_state requires a stochastic chain")
    n = len(chain)
    m = chain.matrix
    # one entry per row, on the diagonal (its weight is 1 within the
    # stochastic row-sum tolerance)
    if np.array_equal(m.indptr, np.arange(n + 1)) and np.array_equal(m.indices, np.arange(n)):
        pi = np.full(n, 1.0 / n)
        return SolveResult(distribution=pi, iterations=0, converged=True)
    count, labels = connected_components(m, directed=True, connection="strong")
    rows = np.repeat(np.arange(n), np.diff(m.indptr))
    left = np.zeros(count, dtype=bool)  # components that some transition leaves
    left[labels[rows[labels[rows] != labels[m.indices]]]] = True
    closed = count - np.count_nonzero(left)
    if closed > 1:
        raise SolverError(
            "stationary system is singular: the pair chain splits into several "
            f"closed classes ({closed} found), so its stationary distribution is "
            f"not unique; {_REMEDY}"
        )
    r = int(np.argmin(left[labels]))
    order = product_order(chain)
    order = order[order != r]
    system = sparse.identity(n - 1, format="csc") - m[order][:, order].T
    try:
        lu = splu(system, permc_spec="NATURAL", diag_pivot_thresh=0.5,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # a weight too small to register against 1
        raise SolverError(f"stationary system is numerically singular ({exc}); {_REMEDY}") from exc
    # the right-hand side: P's row r, read in ``order``
    rhs = np.zeros(n)
    row_r = slice(m.indptr[r], m.indptr[r + 1])
    rhs[m.indices[row_r]] = m.data[row_r]
    pi = np.empty(n)
    pi[r] = 1.0
    pi[order] = lu.solve(rhs[order])
    pi = pi / pi.sum()
    lowest = pi.min()
    if lowest < -1e-9:
        raise SolverError(
            f"stationary solve produced a significantly negative entry ({lowest:.3e}), "
            f"so the system is ill-conditioned; {_REMEDY}"
        )
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    return SolveResult(distribution=pi, iterations=0, converged=True)


def dump_triplets(chain: PairwiseChain) -> str:
    """Sparse triplet CSV (row,col,weight) for external inspection."""
    m = chain.matrix
    rows = np.repeat(np.arange(len(chain)), np.diff(m.indptr))
    lines = ["row,col,weight"]
    lines += [f"{i},{c},{w!r}" for i, c, w in zip(rows.tolist(), m.indices.tolist(), m.data.tolist())]
    return "\n".join(lines) + "\n"
