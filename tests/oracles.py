"""Independent reference implementations the production code is checked against.

These deliberately take the slow, literal route: the edit distance is the
plain recurrence (optionally memoized so longer strings stay tractable),
the bag distance comes from character counters, one assignment oracle
enumerates every injective row-to-column map and another runs shortest
augmenting paths on one exact int cost per cell, the pair chain is scored
one adjacency pair and one term pair at a time, closed classes come from
plain reachability sets and the stationary distribution from a dense
solve. Nothing here shares code with the package, but for the one
oracle noted below.

The last five are the package's earlier constructions, kept as
array-for-array references for the ones that replaced them: the
label-set weights from the distance of every label pair (it calls the
package's full-matrix kernel, which is itself checked against the
recurrence here), normalization followed by damping as two sparse
stages, power iteration as ``pi @ P``, the direct solve with its
pinned system assembled by sparse indexing (it calls the package's
``product_order``), and the JSON ontology reader that tried a lean test
on each entry before per-entry parsers (it builds the package's
``Term``, ``LabeledEdge`` and ``OntologyGraph``).
"""
from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from chainalign.chain import product_order
from chainalign.lexical import label_distances, similarity_of_distance
from chainalign.ontology import (
    HIERARCHY_LABEL,
    LabeledEdge,
    OntologyError,
    OntologyGraph,
    Term,
)


def levenshtein_recursive(a: str, b: str) -> int:
    """Direct transcription of the branching recurrence, no caching."""
    def rec(i: int, j: int) -> int:
        if i == 0 and j == 0:
            return 0
        if j == 0:
            return i
        if i == 0:
            return j
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


def levenshtein_memoized(a: str, b: str) -> int:
    """Same recurrence, memoized; usable on strings of a dozen characters."""
    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0 and j == 0:
            return 0
        if j == 0:
            return i
        if i == 0:
            return j
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    result = rec(len(a), len(b))
    rec.cache_clear()
    return result



def bag_distance(a: str, b: str) -> int:
    """The longer string's length less the characters both hold, each
    counted as often as the string holding it fewer times holds it."""
    return max(len(a), len(b)) - sum((Counter(a) & Counter(b)).values())


def brute_force_assignment(matrix) -> tuple[list[tuple[int, int]], Fraction]:
    """Best assignment of min(m, n) pairs by exhaustive enumeration.

    Totals are compared as exact rationals; among equal-total optima the
    lexicographically smallest (row, col) list is kept, matching the
    production tie-break contract. Returns (pairs, total).
    """
    m = len(matrix)
    n = len(matrix[0])
    exact = [[Fraction(float(v)) for v in row] for row in matrix]
    best_pairs: list[tuple[int, int]] | None = None
    best_total: Fraction | None = None
    if m <= n:
        for cols in itertools.permutations(range(n), m):
            pairs = sorted(zip(range(m), cols))
            total = sum(exact[r][c] for r, c in pairs)
            if best_total is None or total > best_total or (
                total == best_total and pairs < best_pairs
            ):
                best_total = total
                best_pairs = pairs
    else:
        for rows in itertools.permutations(range(m), n):
            pairs = sorted(zip(rows, range(n)))
            total = sum(exact[r][c] for r, c in pairs)
            if best_total is None or total > best_total or (
                total == best_total and pairs < best_pairs
            ):
                best_total = total
                best_pairs = pairs
    return best_pairs, best_total


def _min_cost_assignment(cost: list[list[int]]) -> list[int]:
    """Square min-cost assignment over Python int costs.

    Shortest augmenting paths with dual potentials; all arithmetic is
    exact. Returns ``match`` with ``match[col] = row``, both 1-based.
    """
    n = len(cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # 1-based: p[j] = row matched to column j, 0 = free
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv: list[int | None] = [None] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = None
            j1 = 0
            row_cost = cost[i0 - 1]
            ui = u[i0]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row_cost[j - 1] - ui - v[j]
                if minv[j] is None or cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if delta is None or minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return p


def lexicographic_assignment(matrix) -> list[tuple[int, int]]:
    """Exact maximum-weight assignment of min(m, n) pairs, with equal-weight
    optima resolved to the lexicographically smallest (row, col) list.

    One Python int cost per cell of the zero-padded square: each score
    over the matrix's largest denominator, times a scale, plus a tie key
    below that scale. O(size^3) in pure Python, so usable up to a few
    hundred rows.
    """
    rows = [[float(v) for v in row] for row in matrix]
    m, n = len(rows), len(rows[0])
    size = max(m, n)
    base = n + 1
    # Every float is a dyadic rational num / 2^k, so over the largest
    # denominator each score becomes an exact integer.
    ratios = [x.as_integer_ratio() for row in rows for x in row]
    denom = max(d for _, d in ratios)
    scaled = [num * (denom // d) for num, d in ratios]
    # The tie key (n - j) * base^(m-1-i) rewards small columns in early
    # rows strongly enough to dominate every later row's choice. An
    # assignment's keys total less than base^m < big, so weight * big
    # decides first and the key only separates equal weights.
    big = 2 * base ** m
    cost = [[0] * size for _ in range(size)]
    for i in range(m):
        place = base ** (m - 1 - i)
        for j in range(n):
            cost[i][j] = -scaled[i * n + j] * big - (n - j) * place
    match = _min_cost_assignment(cost)
    return sorted(
        (match[j] - 1, j - 1) for j in range(1, size + 1) if match[j] - 1 < m and j - 1 < n
    )


def greedy_row_assignment_total(matrix) -> float:
    """Row-by-row greedy baseline: each row takes its best unused column."""
    m = len(matrix)
    n = len(matrix[0])
    used: set[int] = set()
    total = 0.0
    for r in range(min(m, n)):
        best_c = max(
            (c for c in range(n) if c not in used),
            key=lambda c: matrix[r][c],
        )
        used.add(best_c)
        total += matrix[r][best_c]
    return total


def normalize_rows(rows, norm_mode: str, baseline: bool = False):
    """Row normalization, one row at a time in plain Python floats.

    ``rows`` lists ``(column, weight)`` pairs per row, sorted by column.
    Sums run left to right, as ``sum()`` does, so the result is the exact
    float the package must produce: single-entry rows get 1.0, empty rows a
    self-loop, baseline rows 1/outdegree, and shares that cancel to 0.0
    are dropped.
    """
    out = []
    for i, row in enumerate(rows):
        if not row:
            out.append([(i, 1.0)])
            continue
        if len(row) == 1:
            out.append([(row[0][0], 1.0)])
            continue
        weights = [w for _, w in row]
        if baseline:
            shares = [1.0 / len(row)] * len(row)
        elif norm_mode == "formula":
            m_i = sum(1.0 / w for w in weights)
            temp = [m_i - 1.0 / w for w in weights]
            total = sum(temp)
            shares = [t / total for t in temp]
        else:
            row_sum = sum(weights)
            temp = [row_sum - w for w in weights]
            total = sum(temp)
            shares = [t / total for t in temp]
        out.append([(c, s) for (c, _), s in zip(row, shares) if s > 0.0])
    return out


def damp_rows(rows, a: float):
    """P' = aP + (1-a)I, one row at a time: a*w off the diagonal, a*w + (1-a) on it."""
    out = []
    for i, row in enumerate(rows):
        scaled = {c: a * w for c, w in row}
        scaled[i] = scaled.get(i, 0.0) + (1.0 - a)
        out.append(sorted(scaled.items()))
    return out


def closed_classes(rows) -> set[frozenset[int]]:
    """Closed classes of the chain whose row i lists ``(column, weight)`` pairs.

    A closed class is a set of states that reach each other and reach
    nothing else: state i is in one exactly when every state it reaches
    reaches i back.
    """
    reach = []
    for start in range(len(rows)):
        seen, todo = {start}, [start]
        while todo:
            for c, _ in rows[todo.pop()]:
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
        reach.append(seen)
    return {frozenset(reach[i]) for i in range(len(rows))
            if all(i in reach[j] for j in reach[i])}


def closed_class_count(rows) -> int:
    return len(closed_classes(rows))


def stationary_dense(matrix) -> np.ndarray:
    """pi with pi P = pi and sum(pi) = 1, from ``numpy.linalg.solve`` on the
    dense system P^T - I whose last row is replaced by ones."""
    p = np.asarray(matrix, dtype=float)
    n = p.shape[0]
    system = p.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def fold_label(label: str, fold: bool) -> str:
    """Label normalization: casefold and drop '_', '-' and spaces, or keep as is."""
    if not fold:
        return label
    return label.casefold().replace("_", "").replace("-", "").replace(" ", "")


def similarity(a: str, b: str) -> float:
    """sigma of two normalized labels: 1, 3/4 at distance 1, else 1/distance."""
    dist = levenshtein_memoized(a, b)
    if dist == 0:
        return 1.0
    if dist == 1:
        return 0.75
    return 1.0 / dist


def pair_chain_arrays(g1, g2, gamma: float, fold: bool, baseline: bool):
    """The raw pair chain as CSR (indptr, indices, data) lists, one adjacency
    pair at a time.

    Edge confidence weighs (x, y) -> (x', y') by 1/sigma of the most
    similar label pair across the two label sets, when that sigma reaches
    gamma; baseline weighs it 1.0 when the sets share a normalized label.
    """
    n2 = len(g2.terms)
    left = {t: i for i, t in enumerate(sorted(g1.terms))}
    right = {t: j for j, t in enumerate(sorted(g2.terms))}
    rows: dict[int, dict[int, float]] = {}
    for (x, x2), labels1 in g1.adjacency.items():
        for (y, y2), labels2 in g2.adjacency.items():
            names1 = {fold_label(a, fold) for a in labels1}
            names2 = {fold_label(b, fold) for b in labels2}
            if baseline:
                w = 1.0 if names1 & names2 else 0.0
            else:
                best = max(similarity(a, b) for a in names1 for b in names2)
                w = 1.0 / best if best >= gamma else 0.0
            if w > 0.0:
                rows.setdefault(left[x] * n2 + right[y], {})[left[x2] * n2 + right[y2]] = w
    indptr, indices, data = [0], [], []
    for r in range(len(left) * n2):
        row = sorted(rows.get(r, {}).items())
        indices += [c for c, _ in row]
        data += [w for _, w in row]
        indptr.append(len(indices))
    return indptr, indices, data


def lexical_start(g1, g2, fold: bool) -> np.ndarray:
    """Initial distribution: sigma of every term-label pair, L1-normalized."""
    labels1 = [fold_label(g1.terms[t].label, fold) for t in sorted(g1.terms)]
    labels2 = [fold_label(g2.terms[t].label, fold) for t in sorted(g2.terms)]
    values = np.array([similarity(a, b) for a, b in itertools.product(labels1, labels2)])
    total = values.sum()
    if total <= 0.0:
        return np.full(len(values), 1.0 / len(values))
    return values / total



def label_set_weights_full(sets1, sets2, cfg) -> np.ndarray:
    """Edge-confidence weight of every pair of label sets from the edit
    distance of every pair of their labels: the least distance d over each
    pair of sets, weighted 1/sigma(d) when sigma(d) >= gamma, else 0."""
    dist = label_distances([s for group in sets1 for s in group],
                           [s for group in sets2 for s in group], cfg)
    # minimum over each set's rows, then over each set's columns
    starts1 = np.cumsum([0] + [len(group) for group in sets1[:-1]])
    starts2 = np.cumsum([0] + [len(group) for group in sets2[:-1]])
    dist = np.minimum.reduceat(np.minimum.reduceat(dist, starts1, axis=0), starts2, axis=1)
    sigma = similarity_of_distance(dist)
    return np.where(sigma >= cfg.gamma, 1.0 / sigma, 0.0)


def normalize_then_damp(matrix, norm_mode: str, a: float) -> sparse.csr_matrix:
    """Row-normalize a raw CSR chain, then damp it to aP + (1-a)I, as two
    sparse stages: empty rows get a self-loop by adding a diagonal matrix,
    shares that cancel to 0.0 are eliminated, and damping scales the
    matrix and adds (1-a)I (skipped at a = 1)."""
    empty = np.diff(matrix.indptr) == 0
    m = matrix + sparse.diags(empty.astype(float), format="csr")
    counts = np.diff(m.indptr)
    ones = np.ones(m.shape[1])
    d = m.data if norm_mode == "complement" else 1.0 / m.data
    sums = sparse.csr_matrix((d, m.indices, m.indptr), shape=m.shape) @ ones
    temp = np.repeat(sums, counts) - d
    temp[np.repeat(counts, counts) == 1] = 1.0
    totals = sparse.csr_matrix((temp, m.indices, m.indptr), shape=m.shape) @ ones
    m.data = temp / np.repeat(totals, counts)
    m.eliminate_zeros()
    if a == 1.0:
        return m
    return a * m + sparse.diags(np.full(m.shape[0], 1.0 - a), format="csr")


def iterate_rmatmul(matrix, pi0, epsilon: float, max_iters: int, damping: float = 1.0):
    """Power iteration as ``pi @ P`` from pi0 / sum(pi0), stopping once the
    max-norm step is at most epsilon * damping: on P = aQ + (1-a)I, a
    ``damping`` of a, the undamped residual max|pi Q - pi| is then at most
    epsilon. Returns (pi, iterations, converged)."""
    pi = pi0 / pi0.sum()
    converged = False
    for iterations in range(1, max_iters + 1):
        nxt = pi @ matrix
        delta = np.max(np.abs(nxt - pi))
        pi = nxt
        if delta <= epsilon * damping:
            converged = True
            break
    return pi / pi.sum(), iterations, converged


def steady_state_indexed(chain) -> np.ndarray | None:
    """The direct solve pinned at r, the first state of the chain's one
    closed class, with I - P^T without row and column r assembled by
    sparse indexing in ``product_order`` and factored in that order, as
    ``steady_state`` does. None where ``steady_state`` raises: several
    closed classes, a numerically singular system, or a significantly
    negative entry."""
    closed = closed_classes(chain.transitions)
    if len(closed) > 1:
        return None
    (states,) = closed
    r = min(states)
    n = len(chain)
    m = chain.matrix
    order = product_order(chain)
    order = order[order != r]
    system = sparse.identity(n - 1, format="csc") - m[order][:, order].T
    try:
        lu = splu(system, permc_spec="NATURAL", diag_pivot_thresh=0.5,
                  options=dict(SymmetricMode=True))
    except RuntimeError:
        return None
    pi = np.empty(n)
    pi[r] = 1.0
    pi[order] = lu.solve(m[r].toarray()[0, order])
    pi = pi / pi.sum()
    if pi.min() < -1e-9:
        return None
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _make_graph(terms: list[Term], edges: list[LabeledEdge]) -> OntologyGraph:
    by_id: dict[str, Term] = {}
    for t in terms:
        if t.id in by_id:
            raise OntologyError(f"duplicate term id {t.id!r}")
        by_id[t.id] = t
    return OntologyGraph(terms=by_id, edges=edges)


def _string(value, where: str, key: str) -> str:
    if not isinstance(value, str):
        raise OntologyError(f"{where}: {key!r} must be a JSON string, got {value!r}")
    return value


def _edge_from_json(obj, index: int) -> LabeledEdge:
    where = f"edge #{index}"
    if not isinstance(obj, dict):
        raise OntologyError(f"{where}: expected an object")
    try:
        source = _string(obj["from"], where, "from")
        target = _string(obj["to"], where, "to")
    except KeyError as exc:
        raise OntologyError(f"{where}: missing key {exc}") from None
    kind = obj.get("kind", "object")
    if kind not in ("object", "hierarchy"):
        raise OntologyError(f"{where}: kind must be 'object' or 'hierarchy', got {kind!r}")
    label = HIERARCHY_LABEL if kind == "hierarchy" else _string(
        obj.get("label", ""), where, "label")
    if not label:
        raise OntologyError(f"{where}: empty label")
    return LabeledEdge(source=source, target=target, label=label)


def _term_from_json(obj, index: int) -> Term:
    where = f"term #{index}"
    if not isinstance(obj, dict) or "id" not in obj:
        raise OntologyError(f"{where}: expected an object with an 'id'")
    tid = _string(obj["id"], where, "id")
    return Term(id=tid, label=_string(obj.get("label", tid), where, "label"))


def _terms_from_json(items: list) -> list[Term]:
    """One ``Term`` per entry. An entry with a non-empty string id and
    label passes a lean check; any other goes through ``_term_from_json``,
    which raises the error that names it."""
    terms = []
    for i, t in enumerate(items):
        if (type(t) is dict and type(tid := t.get("id")) is str and tid
                and type(label := t.get("label", tid)) is str and label):
            terms.append(Term(tid, label))
        else:
            terms.append(_term_from_json(t, i))
    return terms


def _edges_from_json(items: list) -> list[LabeledEdge]:
    """One ``LabeledEdge`` per entry. An entry with string endpoints, a
    known kind and a non-empty string label passes a lean check; any other
    goes through ``_edge_from_json``, which raises the error that names it."""
    edges = []
    for i, e in enumerate(items):
        if type(e) is dict:
            kind = e.get("kind", "object")
            label = HIERARCHY_LABEL if kind == "hierarchy" else e.get("label")
            if (type(source := e.get("from")) is str and type(target := e.get("to")) is str
                    and (kind == "object" or kind == "hierarchy")
                    and type(label) is str and label):
                edges.append(LabeledEdge(source, target, label))
                continue
        edges.append(_edge_from_json(e, i))
    return edges


def load_json_lean_then_full(text: str, name: str) -> OntologyGraph:
    """The earlier reader of JSON ontology text: the same top-level checks
    as ``ontology._load_json``, then a lean test per entry with per-entry
    parsers that raise the error for an entry that fails it, then the
    duplicate-id check over the parsed terms."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OntologyError(
            f"{name}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise OntologyError(f"{name}: top-level value must be an object")
    for key in ("terms", "edges"):
        if not isinstance(doc.get(key, []), list):
            raise OntologyError(f"{name}: '{key}' must be a list")
    try:
        terms = _terms_from_json(doc.get("terms", []))
        return _make_graph(terms, _edges_from_json(doc.get("edges", [])))
    except OntologyError as exc:
        raise OntologyError(f"{name}: {exc}") from None
