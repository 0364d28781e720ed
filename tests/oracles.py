"""Independent reference implementations the production code is checked against.

These deliberately take the slow, literal route: the edit distance is the
plain recurrence (optionally memoized so longer strings stay tractable),
and the assignment oracle enumerates every injective row-to-column map.
Nothing here shares code with the package.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache


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
