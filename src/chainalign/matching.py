"""Refine a stationary pair distribution into a one-to-one alignment.

The distribution is reshaped into an m x n score matrix (rows follow
ontology 1's sorted term ids, columns ontology 2's) and rescaled so the
best pair scores 1.0. Maximum-weight bipartite matching then selects one
partner per term.

The assignment is exact over the float scores, read as dyadic rationals:
scipy's ``linear_sum_assignment`` proposes one, and exact integer
Bellman-Ford rounds over the dual slacks that a float filter leaves in
doubt prove it optimal or improve it. One zero-score class row stands for
all the dummy rows of a rectangular input. By complementary slackness the
maximum-weight assignments are the perfect matchings of the tight edges,
and the lexicographically smallest (row, col) list among them is returned:
golden outputs stay stable on ties, which float solvers do not guarantee.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .ontology import is_json_path, write_text


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


def _positive_cycle(pred: list[int], holder: list[int], starts: list[int]) -> list[int] | None:
    """A cycle of the predecessor graph reachable back from ``starts``, or None.

    Node i's predecessor ``holder[pred[i]]`` holds the column whose taking
    last raised i's potential (``pred[i] == -1`` and ``holder[-1] == -1`` if
    none did). Predecessors change only on strict improvement, so every
    cycle among them has positive length.
    """
    walk = [-1] * len(pred)
    for start in starts:
        x = start
        while x >= 0 and walk[x] < 0:
            walk[x] = start
            x = holder[pred[x]]
        if x >= 0 and walk[x] == start:
            cycle = [x]
            while holder[pred[cycle[-1]]] != x:
                cycle.append(holder[pred[cycle[-1]]])
            return cycle
    return None


def _floor_scaled(values: np.ndarray, shift: int) -> np.ndarray:
    """floor(x * 2^shift) of each non-negative float x of ``values``, exactly
    (object dtype)."""
    mant, expo = np.frexp(values)
    shifts = expo.astype(int) + (shift - 53)  # x = (mant * 2^53) * 2^(expo - 53)
    return (np.ldexp(mant, 53).astype(np.int64).astype(object)
            << np.maximum(shifts, 0).astype(object) >> np.maximum(-shifts, 0).astype(object))


def _float_potentials(scaled: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Approximate node potentials of the candidate ``owner`` in float.

    Row i of ``scaled`` holds node i's scores; ``owner[c]`` is the node
    holding column c, one per real row and the rest for the class row.
    Rounds from zero towards u[i] >= u[k] + gain[i, k], the most node i
    gains by taking a column of node k, revisit only the nodes that rose.
    They only seed the exact rounds, so rounding may stop them early.
    """
    size = len(scaled)
    best = scaled[:, np.argsort(owner, kind="stable")]  # node k's column k, the last's from k on
    best[:, size - 1] = best[:, size - 1:].max(axis=1)
    gain = best[:, :size] - best.diagonal()
    u, frontier = np.zeros(size), np.arange(size)
    tol = 2.0 ** -40  # entries lie in [0, 1]
    for _ in range(size):
        reach = gain[:, frontier]
        reach += u[frontier]
        top = reach.max(axis=1)
        if not (top > u + tol).any():
            break
        frontier = np.flatnonzero(top > u)
        u[frontier] = top[frontier]
    return u


def _exact_duals(scores: np.ndarray, scaled: np.ndarray, owner: np.ndarray, pot: np.ndarray,
                 emin: int, emax: int) -> tuple[np.ndarray, np.ndarray]:
    """Make the candidate ``owner`` exactly optimal; return its tight edges.

    ``scores`` holds the nodes' scores (see ``_float_potentials``), exact
    ints in units of 2^(emin - 53), and ``scaled`` them times 2^-emax;
    ``pot`` holds integer seed potentials (object dtype) in score units.
    ``owner`` and ``pot`` change in place. Every slack u[i] - u[owner[c]] -
    (s[i, c] - s[owner[c], c]) must end non-negative. Each pass of a float
    filter computes every slack: scaled scores lie in [0, 1), ldexp rounds
    the tiniest by at most 2^-1075 and scaled potentials are at most P, so a
    float slack above 2^-50 (P + 1) is exactly positive. The rest, bar a
    node's own entries, get exact ints. Bellman-Ford rounds over them raise
    ``pot``, each revisiting the entries in the columns of the nodes that
    rose in the one before. A positive cycle among the predecessors improves
    the candidate (each node on it takes the column that raised it);
    otherwise, if a potential rose, the filter runs again. Once nothing
    rises the potentials prove ``owner`` optimal; its tight entries, own or
    in doubt, are returned as (nodes, columns). An entry of exact slack 0
    is in doubt on every pass, so the last pass holds them all.
    """
    size, n = scaled.shape
    cols = np.arange(n)
    unit = 1 << (emax - emin + 53)  # one scaled unit, in score units
    p = (pot / unit).astype(float)  # int / int rounds correctly
    new = True
    while True:
        if new:  # a new candidate
            gain = scaled - scaled[owner, cols]
            holder = owner.tolist() + [-1]  # holder[-1]: no predecessor
            pred = [-1] * size  # the column whose taking last raised each node
            new = False
        slack = gain + p[owner]
        slack -= p[:, None]  # minus the slacks
        i, c = np.nonzero(slack >= -2.0 ** -50 * (p.max() + 1))
        k = owner[c]
        other = i != k  # an own entry's slack is 0
        i, c, k = i[other], c[other], k[other]
        g = np.subtract(*_floor_scaled(scores[np.stack([i, k]), c], 53 - emin))
        by = np.argsort(k, kind="stable")  # node x's columns' entries: by[ptr[x]:ptr[x + 1]]
        ptr = np.searchsorted(k[by], np.arange(size + 1)).tolist()
        reach = pot[k] + g
        up = np.flatnonzero(reach > pot[i])
        edges = zip(i[up].tolist(), c[up].tolist(), reach[up].tolist())
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
            cycle = _positive_cycle(pred, holder, list(raised))
            edges = [(r, q, pot[x] + gq) for x in raised for r, q, gq in
                     zip(*(e[by[ptr[x]:ptr[x + 1]]].tolist() for e in (i, c, g)))]
        if risen:  # the filter needs p in step with pot, also on a new candidate
            p[list(risen)] = (pot[list(risen)] / unit).astype(float)
        if cycle is not None:
            owner[[pred[x] for x in cycle]] = cycle
            new = True
        elif not risen:
            t = pot[i] - pot[k] == g
            return np.concatenate([owner, i[t]]), np.concatenate([cols, c[t]])


def _lexicographic_matching(tight_rows: np.ndarray, tight_cols: np.ndarray, col: np.ndarray,
                            owner: np.ndarray, m: int, n: int) -> list[int]:
    """The lexicographically smallest perfect matching of the tight edges
    (``tight_rows[e]``, ``tight_cols[e]``), from the one where row i holds
    ``col[i]`` and column c is held by ``owner[c]``, fixing rows 0..m-1 in
    turn. A class row m holds every column no real row holds; every
    unmatched row holds the class column n.

    Row i may take a smaller tight column c, not held by a fixed row,
    exactly when c is freed by a chain of moves that starts with i freeing
    its own column: a row not yet fixed that may take a freed column it
    does not hold moves there and frees its own (the class row frees every
    column it holds). The moves and (i, c) close an alternating cycle of
    tight edges, and turning it keeps the matching perfect and optimal.
    Row i takes the smallest such column, found by one breadth-first search
    over freed columns. A tight edge on no maximum-weight matching closes
    no such cycle, so the search never takes it.
    """
    # a row whose only tight column is its own keeps it: it frees no column another takes
    movable = np.flatnonzero(np.bincount(tight_rows, minlength=m)[:m] > 1).tolist()
    if not movable:
        return col.tolist()
    # options[ptr[r]:ptr[r + 1]]: the columns row r may take, ascending;
    # takers[at[c]:at[c + 1]]: the rows that may take column c
    by_row = np.lexsort((tight_cols, tight_rows))
    options = tight_cols[by_row].tolist()
    ptr = np.searchsorted(tight_rows[by_row], np.arange(m + 1)).tolist()
    by_col = np.argsort(tight_cols, kind="stable")
    takers = tight_rows[by_col].tolist()
    at = np.searchsorted(tight_cols[by_col], np.arange(n + 2)).tolist()
    owner = owner.tolist() + [m]  # the class column's entry is never read
    col = col.tolist() + [n]  # the class row's entry
    for i in movable:  # rows before i are fixed, and so are their columns
        better = [c for c in options[ptr[i]:ptr[i + 1]] if c < col[i] and owner[c] >= i]
        if better:
            freed = {col[i]: i}  # freed[y]: the row that leaves column y
            moves = {}  # moves[r]: the column row r takes
            queue = [col[i]]
            for y in queue:  # breadth first; the loop reads columns appended on the way
                for r in takers[at[y]:at[y + 1]]:
                    if r > i and r not in moves and col[r] != y:
                        moves[r] = y
                        for x in [k for k in range(n) if owner[k] == m] if r == m else [col[r]]:
                            if x not in freed:  # the class column is freed once
                                freed[x] = r
                                queue.append(x)
                if better[0] in freed:
                    break
            c = next((c for c in better if c in freed), None)
            if c is not None:
                x = freed[c]
                while x != i:
                    col[x] = moves[x]
                    owner[col[x]] = x
                    x = freed[col[x]]
                col[i], owner[c] = c, i
    return col[:m]


def hungarian_max(mat: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-weight assignment of min(m, n) pairs, sorted by row.

    Accepts any finite, non-negative 2-D array. The weight is maximal over
    the exact scores, and ties between optimal assignments resolve to the
    lexicographically smallest (row, col) list. A tall input is solved as
    its transpose, so rows never outnumber columns. One zero-score class
    row stands for any dummy rows that would pad it to a square: they
    score alike, so one node with one potential holds every unmatched
    column. No square is built, and no dummy pair is returned.

    Exact integers are made only where floats cannot decide: with scores
    scaled into [0, 1), rounding moves a float dual slack by less than
    2^-50 (P + 1), P the largest potential (at most the node count). Only
    the entries in doubt get exact integer scores. The filter covers every
    column again once a potential rises, and on every improved candidate
    (see ``_exact_duals``). No n x n array of Python ints is built.
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
    tall = arr.shape[0] > arr.shape[1]
    work = arr.T if tall else arr
    rows, cols = work.shape
    scores = np.concatenate([work, np.zeros((int(rows < cols), cols))])  # and the class row, if any

    # in units of 2^(emin - 53), emin the smallest non-zero score's exponent,
    # every score mant * 2^expo (mant * 2^53 an integer) is an exact integer
    top = arr.max()
    low = np.min(arr, initial=top, where=arr > 0)  # the smallest non-zero score, if any
    emin, emax = np.frexp([low, top])[1].tolist()
    scaled = np.ldexp(scores, -emax)  # into [0, 1); the tiniest may round
    _, match = linear_sum_assignment(scaled[:rows], maximize=True)
    owner = np.full(cols, rows)  # the class row holds every column no real row holds
    owner[match] = np.arange(rows)
    pot = _floor_scaled(_float_potentials(scaled, owner), emax - emin + 53)

    tight_rows, tight_cols = _exact_duals(scores, scaled, owner, pot, emin, emax)
    held = np.argsort(owner, kind="stable")[:rows]  # each real row's column
    if tall:  # the class row is the input's class column, held by every unmatched row
        col = _lexicographic_matching(tight_cols, tight_rows, owner, held, cols, rows)
        return [(i, c) for i, c in enumerate(col) if c < rows]
    return list(enumerate(_lexicographic_matching(tight_rows, tight_cols, held, owner, rows, cols)))


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
    name, else ``source<TAB>target<TAB>confidence`` lines, refusing ids TSV cannot hold."""
    if is_json_path(path):
        text = alignment_to_json(alignment)
    else:
        for x in (x for c in alignment.correspondences for x in (c.source, c.target)):
            if x != x.strip() or "\t" in x or len(x.splitlines()) != 1:
                raise ValueError(f"{path}: TSV cannot hold the id {x!r}; use a .json path")
        text = "".join(f"{c.source}\t{c.target}\t{c.confidence!r}\n"
                       for c in alignment.correspondences)
    write_text(path, text)


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
