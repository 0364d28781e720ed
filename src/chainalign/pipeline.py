"""End-to-end alignment: ontologies in, one-to-one correspondences out."""
from __future__ import annotations

from .chain import (
    METHOD_ITERATIVE,
    PairwiseChain,
    SolveResult,
    SolverConfig,
    build_upmc,
    ergodic_transform,
    initial_distribution,
    iterate,
    normalize,
    steady_state,
)
from .lexical import SimilarityConfig
from .matching import Alignment, refine
from .ontology import OntologyGraph


def build_chain(
    g1: OntologyGraph,
    g2: OntologyGraph,
    sim_cfg: SimilarityConfig,
    solver_cfg: SolverConfig,
    damped: bool = True,
) -> PairwiseChain:
    """Construct, normalize and (optionally) damp the pairwise chain."""
    chain = build_upmc(g1, g2, sim_cfg, solver_cfg.chain_mode)
    chain = normalize(chain, solver_cfg.norm_mode)
    if damped:
        chain = ergodic_transform(chain, solver_cfg.damping_a)
    return chain


def align(
    g1: OntologyGraph,
    g2: OntologyGraph,
    sim_cfg: SimilarityConfig | None = None,
    solver_cfg: SolverConfig | None = None,
    min_confidence: float = 0.0,
) -> tuple[Alignment, SolveResult]:
    """Run the full alignment pipeline with the given settings.

    The damping transform is always applied before solving (with the
    default a = 0.85) so that periodic pair graphs still converge; set
    ``damping_a`` to 1 to skip it.
    """
    sim_cfg = sim_cfg or SimilarityConfig()
    solver_cfg = solver_cfg or SolverConfig()
    chain = build_chain(g1, g2, sim_cfg, solver_cfg)
    if solver_cfg.method == METHOD_ITERATIVE:
        pi0 = initial_distribution(chain, g1, g2, sim_cfg)
        result = iterate(chain, pi0, solver_cfg)
    else:
        result = steady_state(chain, solver_cfg)
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
