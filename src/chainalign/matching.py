"""Refine a stationary pair distribution into a one-to-one alignment.

The distribution is reshaped into an m x n score matrix (rows follow
ontology 1's sorted term ids, columns ontology 2's) and rescaled so the
best pair scores 1.0. Maximum-weight bipartite matching then selects one
partner per term.

The assignment solver is a shortest-augmenting-path implementation run
on one exact Python int cost per cell. Scores are floats, hence dyadic
rationals, so scaling them by their largest denominator makes them exact
integers. Each cell's cost adds an integer tie-break key below the
weight's scale, chosen so that, among all maximum-weight assignments, the
one whose (row, col) list is lexicographically smallest has the least
cost. That makes golden outputs stable even for score matrices full of
ties, which float LAP solvers do not guarantee.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ScoreMatrix:
    """Rescaled stationary scores laid out term-by-term."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    values: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))


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


def to_matrix(dist: np.ndarray, rows: Sequence[str], cols: Sequence[str]) -> ScoreMatrix:
    """Reshape a pair distribution over ``rows`` x ``cols`` into a matrix
    rescaled to peak 1.0."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (len(rows) * len(cols),):
        raise ValueError("distribution length must match the state count")
    values = dist.reshape(len(rows), len(cols))
    peak = values.max()
    if peak <= 0.0:
        raise ValueError("cannot build a score matrix from an all-zero distribution")
    return ScoreMatrix(rows=tuple(rows), cols=tuple(cols), values=values / peak)


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


def hungarian_max(mat) -> list[tuple[int, int]]:
    """Maximum-weight assignment of min(m, n) pairs, sorted by row.

    Accepts a ``ScoreMatrix`` or any finite, non-negative 2-D array.
    Rectangular inputs are padded with zero-weight dummies internally;
    dummy pairs never appear in the output. Ties between optimal
    assignments resolve to the lexicographically smallest (row, col) list.
    """
    if isinstance(mat, ScoreMatrix):
        mat = mat.values
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("matrix must be 2-D and non-empty")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    if arr.min() < 0:
        raise ValueError("matrix entries must be non-negative")
    m, n = arr.shape
    size = max(m, n)
    base = n + 1

    # Every float is a dyadic rational num / 2^k, so over the largest
    # denominator each score becomes an exact integer.
    ratios = [x.as_integer_ratio() for x in arr.ravel().tolist()]
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
        row = cost[i]
        for j in range(n):
            row[j] = -scaled[i * n + j] * big - (n - j) * place

    match = _min_cost_assignment(cost)
    pairs = [
        (match[j] - 1, j - 1)
        for j in range(1, size + 1)
        if match[j] - 1 < m and j - 1 < n
    ]
    pairs.sort()
    return pairs


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
    matrix = to_matrix(dist, rows, cols)
    correspondences = []
    for r, c in hungarian_max(matrix.values):
        score = float(matrix.values[r, c])
        if score >= min_confidence:
            correspondences.append(
                Correspondence(source=matrix.rows[r], target=matrix.cols[c], confidence=score)
            )
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


def alignment_to_tsv(alignment: Alignment) -> str:
    lines = [
        f"{c.source}\t{c.target}\t{c.confidence!r}" for c in alignment.correspondences
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def load_alignment(path: str | Path) -> Alignment:
    """Read an alignment back from its JSON or TSV form."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    metadata = {}
    correspondences = []
    if str(path).endswith(".json"):
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
