"""Stage-resolved benchmark of the chainalign pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload's operations in this process until
``--seconds`` have passed, checks every operation against independent
oracles (see ``checks.py``), and prints one JSON object as the last line
of standard output. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics from spans around the package's
public functions plus a tracemalloc pass of its own. See README.md.
"""
from __future__ import annotations

import os
import sys

if os.environ.get("PYTHONHASHSEED") != "0":
    # Fix set and dict hashing so a seed gives the same run every time.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from workloads import OUT, SF_QUALITY, WORKLOADS, Workload, import_package, write_cases  # noqa: E402

SETUP_PROBES = 5

SELF_TIME_METRICS = {
    "ontology.load_s": "ontology.load",
    "lexical.label_set_confidence_s": "lexical.label_set_confidence",
    "chain.build_upmc_s": "chain.build_upmc",
    "chain.normalize_s": "chain.normalize",
    "chain.ergodic_transform_s": "chain.ergodic_transform",
    "chain.initial_distribution_s": "chain.initial_distribution",
    "chain.iterate_s": "chain.iterate",
    "chain.steady_state_s": "chain.steady_state",
    "matching.to_matrix_s": "matching.to_matrix",
    "matching.hungarian_max_s": "matching.hungarian_max",
    "matching.refine_s": "matching.refine",
    "matching.alignment_to_json_s": "matching.alignment_to_json",
    "evaluation.compare_s": "evaluation.compare",
    "evaluation.evaluate_s": "evaluation.evaluate",
    "pipeline.align_self_s": "pipeline.align",
}
COUNT_METRICS = [
    "lexical.levenshtein_calls",
    "chain.states",
    "chain.adjacency_pairs",
    "chain.label_set_pairs",
    "chain.nnz",
    "chain.empty_rows",
    "chain.iterations",
]


def measure_setup(args, workdir: Path) -> float:
    """Median wall time from spawning a fresh interpreter until it is ready to run."""
    times = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), args.workload,
               str(args.seed), str(workdir / f"probe{k}")]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            returncode = proc.wait(timeout=60)
        if line.strip() != "ready" or returncode != 0:
            raise SystemExit(f"bench: set-up probe failed (exit {returncode})")
    return statistics.median(times)


class Capture:
    """Keeps what each align call built and returned, for the checks."""

    def __init__(self):
        self.chains = []
        self.aligned = []

    def clear(self):
        self.chains.clear()
        self.aligned.clear()

    def install(self):
        def keep_chain(fn):
            def wrapper(*a, **k):
                chain = fn(*a, **k)
                self.chains.append(chain)
                return chain
            return wrapper

        def keep_aligned(fn):
            def wrapper(*a, **k):
                out = fn(*a, **k)
                self.aligned.append(out)
                return out
            return wrapper

        return spans.patched([("pipeline", "build_chain", keep_chain),
                              ("evaluation", "align", keep_aligned)])


class Runner:
    def __init__(self, pkg, workload: Workload):
        self.pkg = pkg
        self.workload = workload
        self.capture = Capture()
        self.problems: list[str] = []
        self.solver = pkg.SolverConfig(method=workload.method, chain_mode=workload.chain_mode)
        self.sim = pkg.SimilarityConfig()
        self.expected_pi: dict[str, object] = {}

    def operation(self, case: gen.Case, paths: tuple[Path, Path]):
        """One operation: the library calls of ``chainalign align`` or ``compare``."""
        pkg = self.pkg
        g1 = pkg.ontology.load_ontology(paths[0])
        g2 = pkg.ontology.load_ontology(paths[1])
        if self.workload.compare:
            reference = pkg.evaluation.ReferenceAlignment(pairs=case.reference)
            return pkg.evaluation.compare(g1, g2, reference, self.sim, self.solver)
        alignment, result = pkg.pipeline.align(g1, g2, self.sim, self.solver)
        return alignment, result, pkg.matching.alignment_to_json(alignment)

    def check(self, case: gen.Case, output) -> tuple[bool, dict[str, float]]:
        """Check one operation. Returns (converged, F per chain mode)."""
        ids = sorted(t for t, _ in case.g1.terms)
        ids2 = sorted(t for t, _ in case.g2.terms)
        if self.workload.compare:
            solved = list(self.capture.aligned)
        else:
            alignment, result, text = output
            solved = [(alignment, result)]
            doc = json.loads(text)
            listed = [(c["source"], c["target"], c["confidence"]) for c in doc["correspondences"]]
            if listed != [(c.source, c.target, c.confidence) for c in alignment.correspondences]:
                self.problems.append(f"{case.name}: alignment JSON does not list the alignment")
        if len(solved) != len(self.capture.chains):
            self.problems.append(f"{case.name}: {len(solved)} solves for {len(self.capture.chains)} chains")
            return True, {}
        if not all(result.converged for _, result in solved):
            return False, {}
        scores = {}
        for (alignment, result), chain in zip(solved, self.capture.chains):
            mode = alignment.metadata["chain_mode"]
            found = checks.check_alignment(alignment, result.distribution, ids, ids2)
            found += checks.check_solve(result, chain, self.workload.method == "iterative")
            if self.workload.method == "steady-state":
                found += checks.check_product_stationary(
                    result.distribution, self.stationary(case.g1), self.stationary(case.g2))
            self.problems += [f"{case.name} {mode}: {p}" for p in found]
            scores[mode] = checks.f_measure(alignment.pairs(), case.reference)
        if self.workload.compare:
            for row in output:
                if row.report.f_measure is None or abs(row.report.f_measure - scores[row.mode]) > 1e-12:
                    self.problems.append(
                        f"{case.name} {row.mode}: compare reports F {row.report.f_measure}, "
                        f"the pair sets give {scores[row.mode]}")
            if scores["edge-confidence"] < scores["baseline-sf"]:
                self.problems.append(
                    f"{case.name}: edge-confidence F {scores['edge-confidence']} is below "
                    f"baseline-sf F {scores['baseline-sf']}")
        return True, scores

    def stationary(self, g: gen.Graph):
        key = g.to_json()
        if key not in self.expected_pi:
            pos = {t: i for i, t in enumerate(sorted(t for t, _ in g.terms))}
            edges = [(pos[s], pos[d]) for s, d, _ in g.edges]
            self.expected_pi[key] = gen.uniform_walk_stationary(len(pos), edges)
        return self.expected_pi[key]

    def run_one(self, case, paths, tracer=None):
        """Time, then check, one operation. Returns (wall s, converged, scores) or None."""
        self.capture.clear()
        try:
            start = time.perf_counter()
            if tracer is None:
                output = self.operation(case, paths)
            else:
                with tracer.operation():
                    output = self.operation(case, paths)
            wall = time.perf_counter() - start
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            return None
        converged, scores = self.check(case, output)
        self.capture.clear()
        return wall, converged, scores


def median_over_ops(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_package()
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{workload.name}-s{args.seed}-{os.getpid()}"
    try:
        setup_s = measure_setup(args, workdir)
        cases = workload.cases(args.seed)
        paths = write_cases(cases, workdir / "inputs")
        return measure(args, pkg, workload, cases, paths, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, pkg, workload, cases, paths, setup_s) -> int:
    runner = Runner(pkg, workload)
    tracer = spans.Tracer() if args.trace else None
    walls, states, f_ec, f_sf = [], [], [], []
    attempted = failed = 0
    with runner.capture.install():
        with tracer.instrument() if tracer else nullcontext():
            begin = time.perf_counter()
            while attempted == 0 or time.perf_counter() - begin < args.seconds:
                for case, pair in zip(cases, paths):
                    attempted += 1
                    outcome = runner.run_one(case, pair, tracer)
                    if outcome is None or not outcome[1]:
                        failed += 1
                        continue
                    wall, _, scores = outcome
                    walls.append(wall)
                    states.append(len(case.g1.terms) * len(case.g2.terms))
                    if "edge-confidence" in scores:
                        f_ec.append(scores["edge-confidence"])
                    if "baseline-sf" in scores:
                        f_sf.append(scores["baseline-sf"])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            metrics = per_layer(runner, tracer, cases, paths, args)
        else:
            if not f_sf:
                f_sf = quality_pass(runner, args.seed, paths[0][0].parent)
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_s": (median_over_ops(walls), "s"),
                "states_per_s": (sum(states) / sum(walls) if walls else 0.0, "states/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "f_measure": (statistics.fmean(f_ec) if f_ec else 0.0, "ratio"),
                "f_measure_sf": (statistics.fmean(f_sf) if f_sf else 0.0, "ratio"),
            }
    for problem in runner.problems[:20]:
        print(f"bench: CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    line = json.dumps(result)
    detail = dict(result, operation_wall_s=walls, cases=[c.name for c in cases])
    (OUT / f"result-{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail) + "\n")
    print(line)
    return 0 if result["correct"] else 1


def quality_pass(runner: Runner, seed: int, directory: Path) -> list[float]:
    """baseline-sf F on the seed's perturbation cases, for workloads without them.

    Runs after the timed loop; its operations are checked like every other.
    """
    quality = Runner(runner.pkg, SF_QUALITY)
    quality.capture = runner.capture
    cases = SF_QUALITY.cases(seed)
    scores = []
    for case, pair in zip(cases, write_cases(cases, directory)):
        outcome = quality.run_one(case, pair)
        if outcome is None or not outcome[1]:
            quality.problems.append(f"{case.name} baseline-sf: operation failed")
        else:
            scores.append(outcome[2]["baseline-sf"])
    runner.problems += quality.problems
    return scores


def per_layer(runner: Runner, tracer: spans.Tracer, cases, paths, args) -> dict:
    per_op, walls = tracer.per_operation()
    for op, (times, wall) in enumerate(zip(per_op, walls)):
        total = sum(times.values())
        if abs(total - wall) > 1e-6:
            runner.problems.append(f"operation {op}: self times add to {total}, wall is {wall}")
    metrics = {
        name: (median_over_ops([s.get(span, 0.0) for s in per_op]), "s")
        for name, span in SELF_TIME_METRICS.items()
    }
    for name in COUNT_METRICS:
        metrics[name] = (median_over_ops([c.get(name, 0) for c in tracer.counts]), "count")
    peaks: dict[str, float] = {}
    with spans.allocation_pass(peaks):
        runner.run_one(cases[0], paths[0])
    for _, _, name in spans.ALLOCS:
        metrics[name] = (peaks.get(name, 0.0), "MB")
    traced_op_s = median_over_ops(walls)
    print(f"bench: traced op_s {traced_op_s:.6f} over {len(walls)} operations", file=sys.stderr)
    tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.json", {
        "workload": args.workload,
        "seed": args.seed,
        "traced_op_s": traced_op_s,
        "operation_wall_s": walls,
        "per_layer": {k: v for k, (v, _) in metrics.items()},
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())
