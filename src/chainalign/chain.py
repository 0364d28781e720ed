"""Pairwise Markov chain over term pairs and its stationary solvers.

The chain's states are the full cross product of the two ontologies'
terms, and the whole chain is one n1*n2 x n1*n2 scipy CSR matrix: state
(i, j), the i-th term of ontology 1 paired with the j-th of ontology 2
(sorted ids on each side), is row and column i * n2 + j. A transition
(x, y) -> (x', y') exists exactly when ontology 1 has an edge x -> x'
and ontology 2 has an edge y -> y' whose label sets are lexically
compatible:

* ``edge-confidence`` mode weights the transition by the thresholded
  reciprocal similarity of the closest label pair;
* ``baseline-sf`` mode admits the transition with weight 1 only when the
  label sets share an identical (normalized) label, reproducing the
  pairwise connectivity graph of plain similarity flooding.

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
self-loops. Baseline chains always normalize to uniform 1/outdegree.

The stationary distribution comes from either power iteration from the
lexical initial distribution, or a direct linear solve of
pi (P - I) = 0 with one equation replaced by sum(pi) = 1. The direct
solve requires a unique stationary distribution; chains whose pair graph
splits into several closed classes make the system singular and raise
``SolverError`` (power iteration still answers them). The ergodic
damping transform P' = aP + (1-a)I removes periodicity (it preserves the
stationary distribution of irreducible chains) and should be applied
before either solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

# label_set_confidence and labels_share_exact_match are no longer called here;
# they stay bound as chain attributes, which the benchmark's tracer wraps
from .lexical import (  # noqa: F401
    SimilarityConfig,
    label_set_confidence,
    labels_share_exact_match,
    levenshtein_matrix,
    normalize_label,
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


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-9
    max_iters: int = 10_000
    damping_a: float = 0.85
    method: str = METHOD_ITERATIVE
    norm_mode: str = NORM_COMPLEMENT
    chain_mode: str = EDGE_CONFIDENCE

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if not 0.0 < self.damping_a <= 1.0:
            raise ValueError(f"damping_a must lie in (0, 1], got {self.damping_a}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.norm_mode not in NORM_MODES:
            raise ValueError(f"norm_mode must be one of {NORM_MODES}, got {self.norm_mode!r}")
        if self.chain_mode not in CHAIN_MODES:
            raise ValueError(f"chain_mode must be one of {CHAIN_MODES}, got {self.chain_mode!r}")


@dataclass
class PairwiseChain:
    """Transition matrix over pair states, held as one CSR matrix.

    State (i, j), term i of ontology 1 with term j of ontology 2 (sorted
    ids on each side), is row and column i * n2 + j. Every stored weight
    is positive and every row's columns are sorted and unique.
    ``stochastic`` records whether rows have been normalized to sum to 1.
    """

    matrix: sparse.csr_matrix
    stochastic: bool = False
    mode: str = EDGE_CONFIDENCE

    def __post_init__(self):
        m = self.matrix
        if not isinstance(m, sparse.csr_matrix):
            raise ValueError(f"matrix must be a scipy.sparse.csr_matrix, got {type(m).__name__}")
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if ((m.indices < 0) | (m.indices >= n)).any():
            raise ValueError("column index out of range")
        rows = np.repeat(np.arange(n), np.diff(m.indptr))
        if (np.diff(rows * n + m.indices) <= 0).any():
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
    """Stationary distribution plus how it was obtained."""

    distribution: np.ndarray
    iterations: int
    converged: bool
    method: str


def _distinct(labels: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct labels in first-seen order, and each label's index among them."""
    ids: dict[str, int] = {}
    inverse = [ids.setdefault(s, len(ids)) for s in labels]
    return list(ids), np.array(inverse, dtype=np.intp)


def _edges(g: OntologyGraph, scale: int):
    """Adjacency entries as arrays: source and target offsets (term index
    times ``scale``) and label-set ids; and the label sets in id order."""
    pos = {t: i for i, t in enumerate(g.term_ids)}
    set_ids: dict[frozenset, int] = {}
    src, dst, sid = [], [], []
    for (x, x2), labels in g.adjacency.items():
        src.append(pos[x] * scale)
        dst.append(pos[x2] * scale)
        sid.append(set_ids.setdefault(frozenset(labels), len(set_ids)))
    return np.array(src), np.array(dst), np.array(sid, dtype=np.intp), list(set_ids)


def _least_distances(sets1: list, sets2: list, cfg: SimilarityConfig) -> np.ndarray:
    """Least edit distance between the normalized labels of every pair of label sets."""
    def members(sets):
        labels, ids = _distinct([normalize_label(label, cfg) for s in sets for label in s])
        return labels, ids, np.cumsum([0] + [len(s) for s in sets[:-1]])

    labels1, ids1, starts1 = members(sets1)
    labels2, ids2, starts2 = members(sets2)
    dist = levenshtein_matrix(labels1, labels2)
    # minimum over each set's rows, then over each set's columns
    dist = np.minimum.reduceat(dist[ids1], starts1, axis=0)
    return np.minimum.reduceat(dist[:, ids2], starts2, axis=1)


def _grouped(sid: np.ndarray, n_sets: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries ordered by label-set id, with each set's first position and size."""
    order = np.argsort(sid, kind="stable")
    counts = np.bincount(sid, minlength=n_sets)
    return order, np.cumsum(counts) - counts, counts


def build_upmc(
    g1: OntologyGraph,
    g2: OntologyGraph,
    cfg: SimilarityConfig | None = None,
    chain_mode: str = EDGE_CONFIDENCE,
) -> PairwiseChain:
    """Construct the unnormalized pairwise chain for two ontologies.

    Every adjacency entry carries one label set, so the transitions are
    blocks: each compatible (label set of g1, label set of g2) pair joins
    all g1 entries with the first set to all g2 entries with the second,
    at one weight. A pair's weight depends only on the least edit
    distance d between their normalized labels, because sigma falls
    strictly as d grows: ``label_set_confidence`` is 1/sigma(d) when
    sigma(d) >= gamma, ``labels_share_exact_match`` is d == 0.
    """
    cfg = cfg or SimilarityConfig()
    if chain_mode not in CHAIN_MODES:
        raise ValueError(f"chain_mode must be one of {CHAIN_MODES}, got {chain_mode!r}")
    if not g1.terms or not g2.terms:
        raise ValueError("both ontologies must contain at least one term")

    # an edge x -> x2 of g1 contributes i * n2 to the row and column indices,
    # an edge y -> y2 of g2 contributes j
    n2 = len(g2.term_ids)
    n = len(g1.term_ids) * n2
    src1, dst1, sid1, sets1 = _edges(g1, n2)
    src2, dst2, sid2, sets2 = _edges(g2, 1)
    if not sets1 or not sets2:
        return PairwiseChain(sparse.csr_matrix((n, n)), stochastic=False, mode=chain_mode)

    dist = _least_distances(sets1, sets2, cfg)
    if chain_mode == BASELINE_SF:
        weight = np.where(dist == 0, 1.0, 0.0)
    else:
        sigma = similarity_of_distance(dist)
        weight = np.where(sigma >= cfg.gamma, 1.0 / sigma, 0.0)

    # one block of count1[s] * count2[t] triples per compatible pair (s, t)
    s, t = np.nonzero(weight)
    order1, first1, count1 = _grouped(sid1, len(sets1))
    order2, first2, count2 = _grouped(sid2, len(sets2))
    size = count1[s] * count2[t]
    pair = np.repeat(np.arange(len(s)), size)
    offset = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    width = count2[t][pair]
    e1 = order1[first1[s][pair] + offset // width]
    e2 = order2[first2[t][pair] + offset % width]

    # adjacency keys are unique on each side, so no (row, col) repeats
    matrix = sparse.csr_matrix(
        (weight[s, t][pair], (src1[e1] + src2[e2], dst1[e1] + dst2[e2])), shape=(n, n)
    )
    return PairwiseChain(matrix, stochastic=False, mode=chain_mode)


def _row_sums(matrix: sparse.csr_matrix, values: np.ndarray) -> np.ndarray:
    """Per-row sums of ``values`` laid out like ``matrix.data``.

    csr_matvec adds each row's entries left to right from 0.0, as ``sum()``
    does, so the sums are the same floats a per-row Python loop gives.
    """
    laid_out = sparse.csr_matrix((values, matrix.indices, matrix.indptr), shape=matrix.shape)
    return laid_out @ np.ones(matrix.shape[1])


def normalize(chain: PairwiseChain, norm_mode: str = NORM_COMPLEMENT) -> PairwiseChain:
    """Rescale every row of an unnormalized chain to sum to 1."""
    if chain.stochastic:
        raise ValueError("chain is already stochastic")
    if norm_mode not in NORM_MODES:
        raise ValueError(f"norm_mode must be one of {NORM_MODES}, got {norm_mode!r}")

    # empty rows become self-loops, which the single-entry rule sends to 1.0
    empty = np.diff(chain.matrix.indptr) == 0
    m = chain.matrix + sparse.diags(empty.astype(float), format="csr")
    counts = np.diff(m.indptr)
    row_len = np.repeat(counts, counts)  # length of each entry's row
    if chain.mode == BASELINE_SF:
        shares = 1.0 / row_len
    else:
        d = m.data if norm_mode == NORM_COMPLEMENT else 1.0 / m.data
        temp = np.repeat(_row_sums(m, d), counts) - d
        temp[row_len == 1] = 1.0
        shares = temp / np.repeat(_row_sums(m, temp), counts)
    m.data = shares
    # extreme weight ratios can cancel a share to exactly 0.0; zero weights
    # are never stored
    m.eliminate_zeros()
    return PairwiseChain(m, stochastic=True, mode=chain.mode)


def ergodic_transform(chain: PairwiseChain, a: float) -> PairwiseChain:
    """Damp the chain: P' = aP + (1-a)I. ``a`` = 1 returns the chain as is."""
    if not chain.stochastic:
        raise ValueError("ergodic transform requires a stochastic chain")
    if not 0.0 < a <= 1.0:
        raise ValueError(f"a must lie in (0, 1], got {a}")
    if a == 1.0:
        return chain
    damped = a * chain.matrix + sparse.diags(np.full(len(chain), 1.0 - a), format="csr")
    return PairwiseChain(damped, stochastic=True, mode=chain.mode)


def initial_distribution(
    chain: PairwiseChain,
    g1: OntologyGraph,
    g2: OntologyGraph,
    cfg: SimilarityConfig | None = None,
) -> np.ndarray:
    """Lexical starting point: state (x, y) weighted by sigma of the term labels."""
    cfg = cfg or SimilarityConfig()
    labels1, at1 = _distinct([normalize_label(g1.label(t), cfg) for t in g1.term_ids])
    labels2, at2 = _distinct([normalize_label(g2.label(t), cfg) for t in g2.term_ids])
    if len(chain) != len(at1) * len(at2):
        raise ValueError("chain states must be the cross product of the two ontologies' terms")
    # state (i, j) at i * n2 + j: the row-major order of the gathered matrix
    dist = levenshtein_matrix(labels1, labels2)[np.ix_(at1, at2)]
    values = similarity_of_distance(dist.ravel())
    total = values.sum()
    if total <= 0.0:
        return np.full(len(values), 1.0 / len(values))
    return values / total


def iterate(chain: PairwiseChain, pi0: np.ndarray, cfg: SolverConfig | None = None) -> SolveResult:
    """Power iteration pi_t = pi_{t-1} P until the max-norm step falls under epsilon."""
    cfg = cfg or SolverConfig()
    if not chain.stochastic:
        raise ValueError("iterate requires a stochastic chain")
    pi = np.asarray(pi0, dtype=float)
    if pi.shape != (len(chain),):
        raise ValueError(f"pi0 must have one entry per state ({len(chain)})")
    if pi.min() < 0 or pi.sum() <= 0:
        raise ValueError("pi0 must be a non-negative vector with positive mass")
    pi = pi / pi.sum()
    matrix = chain.matrix
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iters + 1):
        nxt = pi @ matrix
        delta = np.max(np.abs(nxt - pi))
        pi = nxt
        if delta <= cfg.epsilon:
            converged = True
            break
    pi = pi / pi.sum()
    return SolveResult(distribution=pi, iterations=iterations,
                       converged=converged, method=METHOD_ITERATIVE)


def _solve_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting; raises on singular systems."""
    n = a.shape[0]
    a = a.copy()
    b = b.copy()
    scale = max(np.abs(a).max(), 1.0)
    tol = scale * 1e-12 * max(n, 10)
    for k in range(n):
        pivot_row = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[pivot_row, k]) < tol:
            raise SolverError(
                "stationary system is singular: the pair chain splits into several "
                f"closed classes, so its stationary distribution is not unique; {_REMEDY}"
            )
        if pivot_row != k:
            a[[k, pivot_row]] = a[[pivot_row, k]]
            b[[k, pivot_row]] = b[[pivot_row, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= np.outer(factors, a[k, k:])
        b[k + 1:] -= factors * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def steady_state(chain: PairwiseChain, cfg: SolverConfig | None = None) -> SolveResult:
    """Direct stationary solve: pi (P - I) = 0 with sum(pi) = 1.

    Expects any damping to have been applied already (see
    ``ergodic_transform``). A pure identity chain admits every
    distribution as stationary; the uniform one is returned for it.
    """
    cfg = cfg or SolverConfig()
    if not chain.stochastic:
        raise ValueError("steady_state requires a stochastic chain")
    n = len(chain)
    m = chain.matrix
    # one entry per row, on the diagonal (its weight is 1 within the
    # stochastic row-sum tolerance)
    if np.array_equal(m.indptr, np.arange(n + 1)) and np.array_equal(m.indices, np.arange(n)):
        pi = np.full(n, 1.0 / n)
        return SolveResult(distribution=pi, iterations=0, converged=True,
                           method=METHOD_STEADY_STATE)
    system = m.toarray().T - np.eye(n)
    system[n - 1, :] = 1.0
    rhs = np.zeros(n)
    rhs[n - 1] = 1.0
    pi = _solve_dense(system, rhs)
    lowest = pi.min()
    if lowest < -1e-9:
        raise SolverError(
            f"stationary solve produced a significantly negative entry ({lowest:.3e}), "
            f"so the system is ill-conditioned; {_REMEDY}"
        )
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    return SolveResult(distribution=pi, iterations=0, converged=True,
                       method=METHOD_STEADY_STATE)


def dump_triplets(chain: PairwiseChain) -> str:
    """Sparse triplet CSV (row,col,weight) for external inspection."""
    m = chain.matrix
    rows = np.repeat(np.arange(len(chain)), np.diff(m.indptr))
    lines = ["row,col,weight"]
    lines += [f"{i},{c},{w!r}" for i, c, w in zip(rows.tolist(), m.indices.tolist(), m.data.tolist())]
    return "\n".join(lines) + "\n"
