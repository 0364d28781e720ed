"""Per-stage figures on the ROADMAP baseline recipe, one traced operation per size.

    python3 bench/baseline.py [N ...]        (default: 160 320)

Each size runs one ``chainalign align`` operation (load both files,
``pipeline.align`` in edge-confidence mode, ``alignment_to_json``) with
the same spans and checks as ``run.py --trace 1``, and prints one
Markdown table row of self times in seconds. The figures are also
written to ``bench/out/baseline.json``.
"""
from __future__ import annotations

import json
import resource
import sys

import run  # fixes PYTHONHASHSEED before anything else runs
import gen
import spans
import workloads

COLUMNS = [
    ("load", "ontology.load"),
    ("build", "chain.build_upmc"),
    ("lexical", "lexical.label_set_confidence"),
    ("normalize", "chain.normalize"),
    ("damp", "chain.ergodic_transform"),
    ("init dist", "chain.initial_distribution"),
    ("iterate", "chain.iterate"),
    ("to_matrix", "matching.to_matrix"),
    ("assign", "matching.hungarian_max"),
    ("json", "matching.alignment_to_json"),
]


def main(sizes: list[int]) -> int:
    pkg = workloads.import_package()
    runner = run.Runner(pkg, workloads.Workload("baseline", False, "iterative", None))
    print("| n terms | states | nnz | iterations | "
          + " | ".join(c for c, _ in COLUMNS) + " | total | peak RSS MB |")
    print("|" + " --- |" * (len(COLUMNS) + 6))
    figures = []
    with runner.capture.install():
        for n in sizes:
            case = gen.roadmap_baseline(n)
            paths = case.write(workloads.OUT / "baseline")
            tracer = spans.Tracer()
            with tracer.instrument():
                if runner.run_one(case, paths, tracer) is None:
                    return 1
            per_op, walls = tracer.per_operation()
            times, counts = per_op[0], tracer.counts[0]
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            figures.append({"n": n, "wall_s": walls[0], "self_s": dict(times),
                            "counts": dict(counts), "peak_rss_mb": rss})
            cells = [f"{times.get(span, 0.0):.2f}" for _, span in COLUMNS]
            print(f"| {n} | {counts['chain.states']:,} | {counts['chain.nnz']:,} | "
                  f"{counts['chain.iterations']} | " + " | ".join(cells)
                  + f" | {walls[0]:.2f} | {rss:.0f} |", flush=True)
    for problem in runner.problems:
        print(f"baseline: CHECK FAILED: {problem}", file=sys.stderr)
    (workloads.OUT / "baseline.json").write_text(json.dumps(figures, indent=1) + "\n")
    return 1 if runner.problems else 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]] or [160, 320]))
