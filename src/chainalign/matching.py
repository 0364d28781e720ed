"""Refine a stationary pair distribution into a one-to-one alignment.

The distribution is reshaped into an m x n score matrix (rows follow
ontology 1's sorted term ids, columns ontology 2's) and rescaled so the
best pair scores 1.0. Maximum-weight bipartite matching then selects one
partner per term.

The assignment is exact over the float scores, read as dyadic rationals.
scipy's float solver ``linear_sum_assignment`` proposes one; Bellman-Ford
rounds over the scores as exact integers then either prove it optimal
with integer dual potentials or find the positive cycle that improves it.
By complementary slackness the maximum-weight assignments are exactly the
perfect matchings of those potentials' tight edges, and the one returned
is the lexicographically smallest (row, col) list among them. That makes
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


def _floor_scaled(x: float, shift: int) -> int:
    """floor(x * 2^shift), exactly."""
    num, den = x.as_integer_ratio()
    shift -= den.bit_length() - 1
    return num << shift if shift >= 0 else num >> -shift


def _float_potentials(scaled: np.ndarray, match: np.ndarray) -> np.ndarray:
    """Approximate row potentials of ``match`` in float arithmetic.

    Bellman-Ford rounds from zero towards u[i] >= u[k] + gain[i, k], where
    ``gain[i, k]`` is what row i gains by taking row k's column. They only
    seed the exact rounds, so float rounding may stop them early.
    """
    rows = np.arange(len(match))
    gain = scaled[:, match] - scaled[rows, match]
    u = np.zeros(len(match))
    tol = 2.0 ** -40  # entries lie in [0, 1]
    for _ in range(len(match)):
        best = (gain + u).max(axis=1)
        if not (best > u + tol).any():
            break
        u = np.maximum(u, best)
    return u


def _exact_duals(weight: np.ndarray, match: np.ndarray, pot: np.ndarray) -> np.ndarray:
    """Make ``match`` exactly optimal and return its tight edges.

    ``weight`` holds the exact int scores (object dtype) and ``pot``
    integer seed potentials; ``match`` and ``pot`` change in place.
    Bellman-Ford rounds raise ``pot`` until
    u[i] >= u[k] + weight[i, match[k]] - weight[k, match[k]] holds for
    every pair of rows. A round only revisits the rows whose potential rose
    in the round before. A positive cycle among the predecessors means the
    candidate can gain weight: each row on it takes its predecessor's
    column, and the rounds go on. Once no potential rises, ``match`` is a
    maximum-weight assignment (its potentials prove it) and the returned
    ``tight[i, k]`` says whether row i taking ``match[k]`` keeps the
    potentials tight.
    """
    rows = np.arange(len(match))
    while True:
        wmatch = weight[:, match]
        offset = pot - wmatch[rows, rows]
        reach = wmatch + offset  # reach[i, k] = u[k] + weight[i, match[k]] - weight[k, match[k]]
        pred = np.full(len(match), -1)
        frontier = rows
        while True:
            best = reach[:, frontier].max(axis=1)
            up = np.flatnonzero(best > pot)
            if up.size == 0:
                return reach == pot[:, None]
            pred[up] = frontier[reach[np.ix_(up, frontier)].argmax(axis=1)]
            pot[up] = best[up]
            offset[up] = pot[up] - wmatch[up, up]
            reach[:, up] = wmatch[:, up] + offset[up]
            frontier = up
            cycle = _positive_cycle(pred.tolist(), up.tolist())
            if cycle is not None:
                match[cycle] = match[pred[cycle]]
                break


def _lexicographic_matching(tight: np.ndarray, match: np.ndarray, m: int) -> None:
    """Turn ``match`` into the lexicographically smallest perfect matching
    of the tight subgraph, fixing rows 0..m-1 in turn (in place).

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
    allowed = np.empty_like(tight)  # allowed[i, c]: row i may take column c
    allowed[:, match] = tight
    owner = np.empty(size, dtype=int)
    owner[match] = np.arange(size)
    free = np.ones(size, dtype=bool)
    # a row whose only tight column is its own keeps it: it reaches no other row
    for i in np.flatnonzero(np.count_nonzero(allowed[:m], axis=1) > 1):
        options = allowed[i] & free
        if options.argmax() != match[i]:
            cols = np.flatnonzero(options)
            reached = np.zeros(size, dtype=bool)
            reached[i] = True
            succ = np.full(size, -1)
            frontier = np.array([i])
            while frontier.size and not reached[owner[cols[0]]]:
                hits = allowed[i:, match[frontier]]
                new = np.flatnonzero(hits.any(axis=1) & ~reached[i:])
                succ[new + i] = frontier[hits[new].argmax(axis=1)]
                reached[new + i] = True
                frontier = new + i
            cycle = [owner[cols[reached[owner[cols]]][0]]]
            while cycle[-1] != i:
                cycle.append(succ[cycle[-1]])
            match[cycle] = match[cycle[1:] + cycle[:1]]
            owner[match[cycle]] = cycle
        free[match[i]] = False


def hungarian_max(mat: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-weight assignment of min(m, n) pairs, sorted by row.

    Accepts any finite, non-negative 2-D array. A wide m x n input keeps
    only the columns where some row scores at least its own m-th best: a
    row matched lower has a free better column among its top m. A tall one
    keeps rows alike. The rest is padded to a square with zero-weight
    dummies internally; dummy pairs never appear in the output. The
    weight is maximal over the exact scores, and ties between optimal
    assignments resolve to the lexicographically smallest (row, col) list.
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
    elif m > n:
        rows = np.flatnonzero((arr >= np.partition(arr, m - n, axis=0)[m - n]).any(axis=1))
    arr = arr[np.ix_(rows, cols)]
    m, n = arr.shape
    size = max(m, n)

    # Each distinct score is mant * 2^expo with mant * 2^53 an integer, so
    # in units of 2^(emin - 53) every score is an exact integer.
    values, inverse = np.unique(arr, return_inverse=True)
    mant, expo = np.frexp(values)
    emin, emax = int(expo.min()), int(expo.max())
    exact = np.ldexp(mant, 53).astype(np.int64).astype(object) << (expo - emin).astype(object)
    index = np.full((size, size), len(values))  # padding points at a trailing 0
    index[:m, :n] = inverse.reshape(m, n)
    weight = np.append(exact, 0)[index]

    scaled = np.zeros((size, size))
    scaled[:m, :n] = np.ldexp(arr, -emax)  # into [0, 1); the tiniest may round
    _, match = linear_sum_assignment(scaled, maximize=True)
    pot = np.array([_floor_scaled(u, emax - emin + 53)
                    for u in _float_potentials(scaled, match).tolist()], dtype=object)

    tight = _exact_duals(weight, match, pot)
    _lexicographic_matching(tight, match, m)
    return [(int(rows[i]), int(cols[match[i]])) for i in range(m) if match[i] < n]


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
