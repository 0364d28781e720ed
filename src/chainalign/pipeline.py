"""End-to-end alignment: ontologies in, one-to-one correspondences out."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import (
    BASELINE_SF,
    METHOD_ITERATIVE,
    PairwiseChain,
    SolveResult,
    SolverConfig,
    build_upmc,
    ergodic_transform,  # noqa: F401  bound here for the benchmark's tracer
    exact_matches,
    initial_distribution,
    iterate,
    normalize,
    steady_state,
)
from .lexical import SimilarityConfig
from .matching import Alignment, refine
from .ontology import OntologyGraph


@dataclass(frozen=True)
class SharedBuild:
    """What both chain modes of one ontology pair share under one set of
    similarity settings: the unnormalized edge-confidence chain, which the
    baseline-sf chain is read off (``exact_matches``), and the lexical
    initial distribution, or None when the solver does not start from one."""

    edge_confidence: PairwiseChain
    pi0: np.ndarray | None


def build_shared(
    g1: OntologyGraph,
    g2: OntologyGraph,
    sim_cfg: SimilarityConfig,
    solver_cfg: SolverConfig,
) -> SharedBuild:
    """Build the raw edge-confidence chain, and pi0 when the method is
    iterative: the one place that decides which inputs a solve needs.
    ``align`` calls it when not handed a ``SharedBuild``."""
    chain = build_upmc(g1, g2, sim_cfg)
    pi0 = None
    if solver_cfg.method == METHOD_ITERATIVE:
        pi0 = initial_distribution(g1, g2, sim_cfg)
    return SharedBuild(chain, pi0)


def build_chain(
    g1: OntologyGraph,
    g2: OntologyGraph,
    sim_cfg: SimilarityConfig,
    solver_cfg: SolverConfig,
    *,
    shared: SharedBuild | None = None,
) -> PairwiseChain:
    """Construct, normalize and damp the pairwise chain (``damping_a`` 1
    leaves it undamped).

    The raw chain is the edge-confidence one, taken from ``shared`` (built
    from the same ontologies and ``sim_cfg``) when given; baseline-sf keeps
    its entries of weight 1 (``exact_matches``).
    """
    chain = shared.edge_confidence if shared is not None else build_upmc(g1, g2, sim_cfg)
    if solver_cfg.chain_mode == BASELINE_SF:
        chain = exact_matches(chain)
    return normalize(chain, solver_cfg.norm_mode, solver_cfg.damping_a)


def align(
    g1: OntologyGraph,
    g2: OntologyGraph,
    sim_cfg: SimilarityConfig | None = None,
    solver_cfg: SolverConfig | None = None,
    min_confidence: float = 0.0,
    *,
    shared: SharedBuild | None = None,
) -> tuple[Alignment, SolveResult]:
    """Run the full alignment pipeline with the given settings.

    The damping transform is always applied before solving (with the
    default a = 0.85) so that periodic pair graphs still converge; set
    ``damping_a`` to 1 to skip it. The raw chain and pi0 come from
    ``shared``, built by ``build_shared`` for the same ontologies,
    ``sim_cfg`` and solver method; without it, ``build_shared`` is called
    here.
    """
    sim_cfg = sim_cfg or SimilarityConfig()
    solver_cfg = solver_cfg or SolverConfig()
    shared = shared or build_shared(g1, g2, sim_cfg, solver_cfg)
    chain = build_chain(g1, g2, sim_cfg, solver_cfg, shared=shared)
    if solver_cfg.method == METHOD_ITERATIVE:
        if shared.pi0 is None:
            raise ValueError("shared has no pi0: build it for the iterative method")
        result = iterate(chain, shared.pi0, solver_cfg)
    else:
        result = steady_state(chain)
    metadata = {
        "gamma": sim_cfg.gamma,
        "label_normalization": sim_cfg.label_normalization.value,
        "method": solver_cfg.method,
        "norm_mode": solver_cfg.norm_mode,
        "chain_mode": solver_cfg.chain_mode,
        "damping": solver_cfg.damping_a,
        "min_confidence": min_confidence,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    alignment = refine(result.distribution, g1.term_ids, g2.term_ids, min_confidence, metadata)
    return alignment, result
