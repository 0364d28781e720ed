"""The benchmark's workloads: which inputs each one generates, and how.

Imported by ``run.py`` and by ``setup_probe.py``; it loads no more than a
user's own process would (the generators and, on request, the package).
"""
from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path

import gen

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"

# Inputs of each workload. A round runs one operation per case.
PERTURB = {"n": 64, "chords": 1}
PERTURB_CHORD_PREDS = 10
PERTURB_CASES = 16
STEADY = {"n": 30, "chords": 30}
STEADY_CASES = 4


def perturbation_cases(seed: int) -> list[gen.Case]:
    vocabulary = gen.distant_vocabulary(PERTURB["n"] + PERTURB_CHORD_PREDS, seed)
    return [gen.ring_hub_chord(seed * 1000 + i, vocabulary=vocabulary, **PERTURB)
            for i in range(PERTURB_CASES)]


@dataclass(frozen=True)
class Workload:
    name: str
    compare: bool  # evaluation.compare in both modes, else pipeline.align
    method: str
    cases: object  # seed -> list[gen.Case]
    chain_mode: str = "edge-confidence"


WORKLOADS = {
    w.name: w
    for w in [
        Workload("perturb-compare", True, "iterative", perturbation_cases),
        Workload("steady-direct", False, "steady-state", lambda seed: [
            gen.single_label_ring(seed * 1000 + i, **STEADY) for i in range(STEADY_CASES)]),
    ]
}

# baseline-sf on the perturbation cases: f_measure_sf for workloads that
# run no baseline-sf solve of their own.
SF_QUALITY = Workload("perturb-sf", False, "iterative", perturbation_cases, "baseline-sf")


def import_package():
    """Import chainalign from this checkout's src/, never from anywhere else."""
    if not (SRC / "chainalign" / "__init__.py").is_file():
        raise SystemExit(f"bench: no chainalign package under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("chainalign")
    if Path(pkg.__file__).resolve().parent != SRC / "chainalign":
        raise SystemExit(f"bench: imported chainalign from {pkg.__file__}, not {SRC}")
    return pkg


def write_cases(cases: list[gen.Case], directory: Path) -> list[tuple[Path, Path]]:
    return [c.write(directory) for c in cases]
