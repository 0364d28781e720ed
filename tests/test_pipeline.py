import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chainalign.chain import PairwiseChain, SolverConfig, build_upmc
from chainalign.lexical import SimilarityConfig
from chainalign.pipeline import align, build_chain, build_shared

ALL_SETTINGS = [
    (method, mode)
    for method in ("iterative", "steady-state")
    for mode in ("edge-confidence", "baseline-sf")
]


class TestSelfAlignment:
    @pytest.mark.parametrize("method,mode", ALL_SETTINGS)
    def test_fixture_self_alignment_is_identity(self, fixture_graph, method, mode):
        cfg = SolverConfig(method=method, chain_mode=mode)
        alignment, result = align(fixture_graph, fixture_graph, solver_cfg=cfg)
        assert alignment.pairs() == {(t, t) for t in fixture_graph.terms}
        assert result.converged

    def test_identity_pairs_score_full_confidence(self, birds):
        alignment, _ = align(birds, birds)
        top = max(c.confidence for c in alignment.correspondences)
        assert top == 1.0


class TestAlignMetadata:
    def test_settings_recorded(self, birds):
        sim = SimilarityConfig(gamma=0.6)
        cfg = SolverConfig(method="steady-state", norm_mode="formula")
        alignment, _ = align(birds, birds, sim, cfg, min_confidence=0.1)
        md = alignment.metadata
        assert md["gamma"] == 0.6
        assert md["method"] == "steady-state"
        assert md["norm_mode"] == "formula"
        assert md["damping"] == 0.85
        assert md["min_confidence"] == 0.1

    def test_solver_report_included(self, birds):
        alignment, result = align(birds, birds)
        assert alignment.metadata["iterations"] == result.iterations
        assert alignment.metadata["converged"] is True


class TestSharedBuild:
    def test_iterative_align_rejects_a_build_without_pi0(self, birds):
        shared = build_shared(birds, birds, SimilarityConfig(), SolverConfig(method="steady-state"))
        with pytest.raises(ValueError, match="no pi0"):
            align(birds, birds, shared=shared)


class TestBuildChain:
    def test_damped_chain_is_stochastic_and_aperiodic(self, birds):
        chain = build_chain(build_upmc(birds, birds), SolverConfig())
        assert chain.stochastic
        for i, row in enumerate(chain.transitions):
            assert sum(w for _, w in row) == pytest.approx(1.0, abs=1e-9)
            assert any(c == i for c, _ in row)  # damping adds self-weight

    def test_undamped_chain_skips_transform(self, birds):
        cfg = SolverConfig()
        plain = build_chain(build_upmc(birds, birds), replace(cfg, damping_a=1.0))
        damped = build_chain(build_upmc(birds, birds), cfg)
        assert plain.matrix.toarray() != pytest.approx(damped.matrix.toarray())

    def test_solvers_agree_on_fixture_chains(self, fixture_graph):
        sim = SimilarityConfig()
        for mode in ("edge-confidence", "baseline-sf"):
            it = align(fixture_graph, fixture_graph, sim,
                       SolverConfig(chain_mode=mode, epsilon=1e-12))[1]
            ss = align(fixture_graph, fixture_graph, sim,
                       SolverConfig(chain_mode=mode, method="steady-state"))[1]
            gap = np.max(np.abs(it.distribution - ss.distribution))
            assert gap < 1e-6


def load_bench_spans():
    """bench/spans.py, loaded by path: it is a script directory, not a package."""
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPatchTargets:
    """A traced benchmark run swaps these module attributes for wrappers and
    fails on the first one that is missing."""

    def test_every_patched_attribute_resolves(self):
        spans = load_bench_spans()
        targets = [(mod, attr) for mod, attr, _ in spans.SPANS + spans.COUNTERS + spans.ALLOCS]
        # bench/run.py keeps what these two return
        targets += [("pipeline", "build_chain"), ("evaluation", "align")]
        missing = [
            f"chainalign.{mod}.{attr}"
            for mod, attr in targets
            if not hasattr(importlib.import_module(f"chainalign.{mod}"), attr)
        ]
        assert missing == []
        assert isinstance(PairwiseChain.transitions, property)  # read by spans._chain_shape

    def test_traced_align_sees_the_pipeline_stages(self, birds):
        spans = load_bench_spans()
        tracer = spans.Tracer()
        pipeline = importlib.import_module("chainalign.pipeline")
        with tracer.instrument(), tracer.operation():
            pipeline.align(birds, birds)
        seen = set(tracer.names)
        assert {"pipeline.align", "chain.build_upmc", "chain.initial_distribution",
                "chain.iterate", "matching.refine", "matching.hungarian_max"} <= seen
        assert tracer.counts[0]["chain.nnz"] > 0
