"""Correctness checks computed apart from the package under test.

Every check returns a list of problems (empty when it passes). The
expected values come from scipy's assignment solver, from numpy solves of
the generator's own adjacency matrices, and from the generator's identity
reference; nothing here compares against stored outputs of the program.
"""
from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment

SCORE_TOL = 1e-9
ITERATIVE_RESIDUAL_TOL = 1e-8
DIRECT_RESIDUAL_TOL = 1e-10
KRON_TOL = 1e-10


def f_measure(pairs: set, reference: frozenset) -> float:
    correct = len(pairs & reference)
    if correct == 0:
        return 0.0
    p = correct / len(pairs)
    r = correct / len(reference)
    return 2 * p * r / (p + r)


def transition_matrix(chain) -> sparse.csr_matrix:
    """The chain's row-stochastic matrix, read from its (column, weight) rows."""
    rows = chain.transitions
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.chain.from_iterable(rows)),
        dtype=float, count=2 * int(lengths.sum()),
    )
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    n = len(rows)
    return sparse.csr_matrix((flat[1::2], flat[0::2].astype(np.int64), indptr), shape=(n, n))


def check_alignment(alignment, distribution, ids1, ids2) -> list[str]:
    """One-to-one, confidences are the rescaled scores, and the matching is optimal."""
    n1, n2 = len(ids1), len(ids2)
    dist = np.asarray(distribution, dtype=float)
    if dist.shape != (n1 * n2,):
        return [f"distribution has shape {dist.shape}, expected ({n1 * n2},)"]
    scores = dist.reshape(n1, n2) / dist.max()
    pos1 = {t: i for i, t in enumerate(ids1)}
    pos2 = {t: j for j, t in enumerate(ids2)}
    problems = []
    corr = alignment.correspondences
    rows = [pos1[c.source] for c in corr]
    cols = [pos2[c.target] for c in corr]
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        problems.append("alignment is not one-to-one")
    if len(corr) != min(n1, n2):
        problems.append(f"{len(corr)} correspondences, expected {min(n1, n2)}")
    for c, i, j in zip(corr, rows, cols):
        if not 0.0 <= c.confidence <= 1.0:
            problems.append(f"confidence {c.confidence} of {c.source}->{c.target} outside [0, 1]")
        elif abs(c.confidence - scores[i, j]) > 1e-12:
            problems.append(
                f"confidence {c.confidence} of {c.source}->{c.target} is not the "
                f"peak-rescaled score {scores[i, j]}"
            )
    if scores.max() != 1.0:
        problems.append(f"peak confidence is {scores.max()}, not 1.0")
    r, c = linear_sum_assignment(scores, maximize=True)
    optimum = scores[r, c].sum()
    total = scores[rows, cols].sum()
    if abs(total - optimum) > SCORE_TOL * max(1.0, optimum):
        problems.append(f"matching scores {total!r}, the optimum is {optimum!r}")
    return problems


def check_solve(result, chain, iterative: bool) -> list[str]:
    """Converged, and the distribution is stationary for the solved chain."""
    problems = []
    if not result.converged:
        problems.append(f"solve did not converge in {result.iterations} iterations")
    pi = np.asarray(result.distribution, dtype=float)
    if pi.min() < 0 or abs(pi.sum() - 1.0) > 1e-9:
        problems.append("distribution is not a probability vector")
    residual = np.abs(pi @ transition_matrix(chain) - pi).max()
    tol = ITERATIVE_RESIDUAL_TOL if iterative else DIRECT_RESIDUAL_TOL
    if residual > tol:
        problems.append(f"||pi P - pi||_inf = {residual:.3e} exceeds {tol:.0e}")
    return problems


def check_product_stationary(distribution, pi1: np.ndarray, pi2: np.ndarray) -> list[str]:
    """pi = pi1 (x) pi2, and identity is an optimal matching (rearrangement inequality)."""
    problems = []
    expected = np.kron(pi1, pi2)
    gap = np.abs(np.asarray(distribution) - expected).max()
    if gap > KRON_TOL:
        problems.append(f"pi differs from pi1 (x) pi2 by {gap:.3e}")
    scores = np.outer(pi1, pi2)
    r, c = linear_sum_assignment(scores, maximize=True)
    optimum = scores[r, c].sum()
    if abs(np.trace(scores) - optimum) > SCORE_TOL * optimum:
        problems.append("identity is not an optimal matching of pi1 (x) pi2")
    return problems
