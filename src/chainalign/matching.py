"""Refine a stationary pair distribution into a one-to-one alignment.

The distribution is reshaped into an m x n score matrix (rows follow
ontology 1's sorted term ids, columns ontology 2's) and rescaled so the
best pair scores 1.0. Maximum-weight bipartite matching then selects one
partner per term.

The assignment is exact over the float scores, read as dyadic rationals.
scipy's float solver ``linear_sum_assignment`` proposes one, and float
Bellman-Ford rounds give it approximate dual potentials. A float filter
with a rigorous error bound settles every dual slack that is clearly
positive; only the entries in doubt (the matched ones and a few more per
row on real score matrices) become exact integers. Exact Bellman-Ford
rounds over them either prove the candidate optimal with integer dual
potentials or find the positive cycle that improves it, and the filter
runs again wherever a potential rises. By complementary slackness the
maximum-weight assignments are exactly the perfect matchings of those
potentials' tight edges, all of them in doubt, and the one returned is
the lexicographically smallest (row, col) list among them. That makes
golden outputs stable even for score matrices full of ties, which float
assignment solvers do not guarantee.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .ontology import is_json_path


@dataclass(frozen=True)
class Correspondence:
    source: str
    target: str
    confidence: float


@dataclass
class Alignment:
    """One-to-one correspondence set with the settings that produced it."""

    correspondences: list[Correspondence]
    metadata: dict = field(default_factory=dict)

    def pairs(self) -> set[tuple[str, str]]:
        return {(c.source, c.target) for c in self.correspondences}

    def __post_init__(self):
        sources = [c.source for c in self.correspondences]
        targets = [c.target for c in self.correspondences]
        if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
            raise ValueError("alignment must be one-to-one")
        for c in self.correspondences:
            if not 0.0 <= c.confidence <= 1.0:
                raise ValueError(f"confidence out of [0, 1]: {c}")


def to_matrix(dist: np.ndarray, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
    """Reshape a pair distribution over ``rows`` x ``cols`` into a matrix
    rescaled to peak 1.0."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (len(rows) * len(cols),):
        raise ValueError("distribution length must match the state count")
    bad = np.flatnonzero(~(dist >= 0.0) | np.isinf(dist))  # NaN fails >= too
    if bad.size:
        raise ValueError(
            f"distribution entries must be finite and non-negative; state {bad[0]} "
            f"is {float(dist[bad[0]])!r} ({bad.size} of {dist.size} entries fail)"
        )
    values = dist.reshape(len(rows), len(cols))
    peak = values.max()
    if peak <= 0.0:
        raise ValueError("cannot build a score matrix from an all-zero distribution")
    return values / peak


def _positive_cycle(pred: list[int], starts: list[int]) -> list[int] | None:
    """A cycle of the predecessor graph reachable back from ``starts``, or None.

    ``pred[i]`` is the row whose relaxation last raised row i's potential
    (-1 if none did). Predecessors change only on strict improvement, so
    every cycle among them has positive length.
    """
    walk = [-1] * len(pred)
    for start in starts:
        x = start
        while x >= 0 and walk[x] < 0:
            walk[x] = start
            x = pred[x]
        if x >= 0 and walk[x] == start:
            cycle = [x]
            y = pred[x]
            while y != x:
                cycle.append(y)
                y = pred[y]
            return cycle
    return None


def _floor_scaled(values: np.ndarray, shift: int) -> np.ndarray:
    """floor(x * 2^shift) of each non-negative float x of ``values``, exactly
    (object dtype)."""
    mant, expo = np.frexp(values)
    shifts = expo.astype(int) + (shift - 53)  # x = (mant * 2^53) * 2^(expo - 53)
    return (np.ldexp(mant, 53).astype(np.int64).astype(object)
            << np.maximum(shifts, 0).astype(object) >> np.maximum(-shifts, 0).astype(object))


def _float_potentials(scaled: np.ndarray, match: np.ndarray) -> np.ndarray:
    """Approximate row potentials of ``match`` in float arithmetic.

    Bellman-Ford rounds from zero towards u[i] >= u[k] + gain[i, k], where
    ``gain[i, k]`` is what row i gains by taking row k's column. A round
    only revisits the columns of the rows whose potential rose in the
    round before. They only seed the exact rounds, so float rounding may
    stop them early.
    """
    rows = np.arange(len(match))
    gain = scaled[:, match] - scaled[rows, match]
    u = np.zeros(len(match))
    frontier = rows
    tol = 2.0 ** -40  # entries lie in [0, 1]
    for _ in range(len(match)):
        reach = gain[:, frontier]
        reach += u[frontier]
        best = reach.max(axis=1)
        if not (best > u + tol).any():
            break
        frontier = np.flatnonzero(best > u)
        u[frontier] = best[frontier]
    return u


def _exact_duals(arr: np.ndarray, scaled: np.ndarray, match: np.ndarray, pot: np.ndarray,
                 emin: int, emax: int) -> tuple[np.ndarray, np.ndarray]:
    """Make ``match`` exactly optimal and return its tight edges.

    ``arr`` holds the m x n scores, exact ints in units of 2^(emin - 53);
    ``scaled`` holds them times 2^-emax, zero-padded to the square of
    ``match``. ``pot`` holds integer seed potentials (object dtype) in the
    units of the scores; ``match`` and ``pot`` change in place.

    Every slack u[i] - u[k] - (s[i, match[k]] - s[k, match[k]]) must end
    non-negative. A filter computes, in float, the slacks in each column k
    to check (at first all). Scaled scores lie in [0, 1), ldexp rounds the
    tiniest by at most 2^-1075, and scaled potentials are at most P, so a
    float slack above 2^-50 (P + 1) is exactly positive. Only the entries
    in doubt get exact ints, and Bellman-Ford rounds over them raise
    ``pot``, each round revisiting the columns of the rows that rose in
    the one before. A risen row's column is filtered again. A positive
    cycle among the predecessors improves the candidate (each row on it
    takes its predecessor's column), and the filter starts over. Once
    nothing rises the potentials prove ``match`` optimal, and its tight
    entries, all in doubt, are returned as (rows, columns): row i may take
    column c and keep the potentials tight.
    """
    size = len(match)
    m, n = arr.shape
    rows = np.arange(size)
    unit = 1 << (emax - emin + 53)  # one scaled unit, in score units

    def exact(i, c):  # the exact scores of cells (i, c), 0 on the padding
        inside = (i < m) & (c < n)
        values = np.zeros(len(i))
        values[inside] = arr[i[inside], c[inside]]
        return _floor_scaled(values, 53 - emin)

    def column(q):  # (i, exact gain) of each entry in doubt in column q
        i, k, g = passes[last[q]]
        a, b = np.searchsorted(k, [q, q + 1])
        return zip(i[a:b].tolist(), g[a:b].tolist())

    p = (pot / unit).astype(float)  # int / int rounds correctly
    recheck = None
    while True:
        if recheck is None:  # a new candidate
            gain = scaled[:, match] - scaled[rows, match]
            own = exact(rows, match)
            pred = [-1] * size
            last = np.zeros(size, dtype=int)  # the filter pass that last took each column
            passes = []  # (rows i, columns k in ascending order, exact gains) in doubt
            recheck = rows
        slack = gain[:, recheck]
        slack += p[recheck]
        slack -= p[:, None]  # minus the slacks, column by column
        j, i = np.nonzero(slack.T >= -2.0 ** -50 * (p.max() + 1))
        k = recheck[j]
        g = exact(i, match[k]) - own[k]
        last[recheck] = len(passes)
        passes.append((i, k, g))
        reach = pot[k] + g
        up = np.flatnonzero(reach > pot[i])
        edges = zip(i[up].tolist(), k[up].tolist(), reach[up].tolist())
        risen = {}
        cycle = None
        while cycle is None:
            raised = {}
            for r, q, v in edges:
                if v > pot[r]:
                    pot[r] = v
                    pred[r] = q
                    raised[r] = None
            if not raised:
                break
            risen.update(raised)
            cycle = _positive_cycle(pred, list(raised))
            edges = [(r, q, pot[q] + gq) for q in raised for r, gq in column(q)]
        if cycle is not None:
            match[cycle] = match[[pred[x] for x in cycle]]
            recheck = None
        elif risen:
            recheck = np.sort(np.fromiter(risen, dtype=int, count=len(risen)))
            p[recheck] = (pot[recheck] / unit).astype(float)
        else:
            tight_rows, tight_cols = [], []
            for t, (i, k, g) in enumerate(passes):
                keep = (last[k] == t) & (pot[i] - pot[k] == g)  # the column's latest pass
                tight_rows.append(i[keep])
                tight_cols.append(match[k[keep]])
            return np.concatenate(tight_rows), np.concatenate(tight_cols)


def _lexicographic_matching(tight_rows: np.ndarray, tight_cols: np.ndarray,
                            match: np.ndarray, m: int) -> None:
    """Turn ``match`` into the lexicographically smallest perfect matching
    of the tight edges (``tight_rows[e]``, ``tight_cols[e]``), fixing rows
    0..m-1 in turn (in place).

    Row i may take a free tight column c exactly when c's current owner
    reaches i along tight arcs (r -> k when r may take k's column) among
    the rows not yet fixed: that path and the edge (i, c) close an
    alternating cycle of tight edges, so turning it keeps the matching
    perfect and optimal. Row i takes the smallest such column, found by one
    backward search from i, and the rows on the cycle each take their
    successor's column. A tight edge on no maximum-weight matching closes
    no such cycle, so the search never takes it.
    """
    size = len(match)
    # a row whose only tight column is its own keeps it: it reaches no other row
    movable = np.flatnonzero(np.bincount(tight_rows, minlength=size)[:m] > 1).tolist()
    if not movable:
        return
    # options[ptr[r]:ptr[r + 1]]: the columns row r may take, ascending;
    # takers[at[c]:at[c + 1]]: the rows that may take column c
    by_row = np.lexsort((tight_cols, tight_rows))
    options = tight_cols[by_row].tolist()
    ptr = np.searchsorted(tight_rows[by_row], np.arange(size + 1)).tolist()
    by_col = np.argsort(tight_cols, kind="stable")
    takers = tight_rows[by_col].tolist()
    at = np.searchsorted(tight_cols[by_col], np.arange(size + 1)).tolist()
    col = match.tolist()
    owner = [0] * size
    for r, c in enumerate(col):
        owner[c] = r
    free = [True] * size
    for i in movable:
        cols = [c for c in options[ptr[i]:ptr[i + 1]] if free[c]]
        if cols[0] != col[i]:
            target = owner[cols[0]]
            succ = {i: i}  # succ[r]: the row whose column r takes on the way to i
            queue = [i]
            for f in queue:  # breadth first; the loop reads rows appended on the way
                for r in takers[at[col[f]]:at[col[f] + 1]]:
                    if r >= i and r not in succ:
                        succ[r] = f
                        queue.append(r)
                if target in succ:
                    break
            c = next(c for c in cols if owner[c] in succ)
            x = owner[c]
            while x != i:
                col[x] = col[succ[x]]
                owner[col[x]] = x
                x = succ[x]
            col[i] = c
            owner[c] = i
        free[col[i]] = False
    match[:] = col


def hungarian_max(mat: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-weight assignment of min(m, n) pairs, sorted by row.

    Accepts any finite, non-negative 2-D array. A wide m x n input keeps
    only the columns where some row scores at least its own m-th best: a
    row matched lower has a free better column among its top m. A tall one
    keeps rows alike. The rest is padded to a square with zero-weight
    dummies internally; dummy pairs never appear in the output. The
    weight is maximal over the exact scores, and ties between optimal
    assignments resolve to the lexicographically smallest (row, col) list.

    Exact integers are made only where floats cannot decide. Every dual
    slack is first computed in float: with the scores scaled into [0, 1)
    and the largest row potential P (at most the matrix size), rounding
    moves it by less than 2^-50 (P + 1), so a float slack above that bound
    is exactly positive. Only the entries in doubt get exact integer
    scores, and the filter runs again on the column of every row whose
    exact potential rises, and on every improved candidate (see
    ``_exact_duals``). No n x n array of Python ints is built.
    """
    # imported here: scipy.optimize adds 0.2-0.4 s to `import chainalign`
    from scipy.optimize import linear_sum_assignment

    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("matrix must be 2-D and non-empty")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    if arr.min() < 0:
        raise ValueError("matrix entries must be non-negative")
    m, n = arr.shape
    rows, cols = np.arange(m), np.arange(n)
    if m < n:
        cols = np.flatnonzero((arr >= np.partition(arr, n - m, axis=1)[:, n - m, None]).any(axis=0))
        arr = arr[:, cols]
    elif m > n:
        rows = np.flatnonzero((arr >= np.partition(arr, m - n, axis=0)[m - n]).any(axis=1))
        arr = arr[rows]
    m, n = arr.shape
    size = max(m, n)

    # Each score is mant * 2^expo with mant * 2^53 an integer, so in units
    # of 2^(emin - 53), emin the smallest non-zero score's exponent, every
    # score is an exact integer.
    top = arr.max()
    low = np.min(arr, initial=top, where=arr > 0)  # the smallest non-zero score, if any
    emin, emax = np.frexp([low, top])[1].tolist()
    scaled = np.zeros((size, size))
    scaled[:m, :n] = np.ldexp(arr, -emax)  # into [0, 1); the tiniest may round
    _, match = linear_sum_assignment(scaled, maximize=True)
    pot = _floor_scaled(_float_potentials(scaled, match), emax - emin + 53)

    tight_rows, tight_cols = _exact_duals(arr, scaled, match, pot, emin, emax)
    _lexicographic_matching(tight_rows, tight_cols, match, m)
    kept = np.flatnonzero(match[:m] < n)
    return list(zip(rows[kept].tolist(), cols[match[kept]].tolist()))


def refine(
    dist: np.ndarray,
    rows: Sequence[str],
    cols: Sequence[str],
    min_confidence: float = 0.0,
    metadata: dict | None = None,
) -> Alignment:
    """Match the rescaled score matrix of a distribution over ``rows`` x
    ``cols`` and keep pairs scoring at least ``min_confidence``."""
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError(f"min_confidence must lie in [0, 1], got {min_confidence}")
    scores = to_matrix(dist, rows, cols)
    correspondences = []
    for r, c in hungarian_max(scores):
        score = float(scores[r, c])
        if score >= min_confidence:
            correspondences.append(Correspondence(source=rows[r], target=cols[c], confidence=score))
    return Alignment(correspondences=correspondences, metadata=dict(metadata or {}))


def alignment_to_json(alignment: Alignment) -> str:
    doc = {
        "metadata": alignment.metadata,
        "correspondences": [
            {"source": c.source, "target": c.target, "confidence": c.confidence}
            for c in alignment.correspondences
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_alignment(alignment: Alignment, path: str | Path) -> None:
    """Write ``alignment`` as ``load_alignment`` reads it: JSON by the ``.json``
    name, else ``source<TAB>target<TAB>confidence`` lines."""
    if is_json_path(path):
        text = alignment_to_json(alignment)
    else:
        text = "".join(f"{c.source}\t{c.target}\t{c.confidence!r}\n"
                       for c in alignment.correspondences)
    Path(path).write_text(text, encoding="utf-8")


def load_alignment(path: str | Path) -> Alignment:
    """Read an alignment from ``path``, JSON or TSV by its name (``is_json_path``)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    metadata = {}
    correspondences = []
    if is_json_path(path):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path.name}: {exc}") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("correspondences", []), list):
            raise ValueError(f"{path.name}: expected an object with a 'correspondences' list")
        metadata = doc.get("metadata", {})
        for i, c in enumerate(doc.get("correspondences", [])):
            try:
                ids = c["source"], c["target"]
                if not all(isinstance(x, str) for x in ids):
                    raise TypeError(f"source and target must be JSON strings, got {ids!r}")
                correspondences.append(Correspondence(*ids, float(c["confidence"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path.name}: correspondence #{i} is malformed: {exc}"
                ) from None
    else:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path.name}: line {lineno}: expected 3 tab-separated fields")
            try:
                correspondences.append(Correspondence(parts[0], parts[1], float(parts[2])))
            except ValueError as exc:
                raise ValueError(f"{path.name}: line {lineno}: {exc}") from None
    try:
        return Alignment(correspondences=correspondences, metadata=metadata)
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None
