"""Command-line entry point.

Subcommands::

    align <ont1> <ont2>                 write the alignment (JSON or TSV)
    eval <alignment> <reference>        print precision/recall/F for one run
    compare <ont1> <ont2> <reference>   baseline vs edge-confidence CSV
    bench-gen <ont>                     seeded mutant ontology + reference
    dump-chain <ont1> <ont2>            sparse triplets of the transition matrix

Exit codes: 0 success, 1 usage error, 2 data/parse error, 3 solver failure.
A solve that stops at the iteration cap still exits 0, after one
``chainalign: warning:`` line per such solve on stderr.
Flag defaults come from the library config dataclasses, so the CLI never
drifts from the module-level defaults. An optional JSON config file may
pre-set any flag; explicit flags win over the file.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .chain import (
    CHAIN_MODES,
    METHODS,
    NORM_MODES,
    SolverConfig,
    SolverError,
    dump_triplets,
)
from .evaluation import (
    MUTATIONS,
    _fmt_metric,
    comparison_csv,
    compare,
    evaluate,
    load_reference,
    reference_to_tsv,
    synth_mutate,
)
from .lexical import LabelNorm, SimilarityConfig
from .matching import alignment_to_json, alignment_to_tsv, load_alignment
from .ontology import OntologyError, load_ontology, save_ontology
from .pipeline import align, build_chain

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3

_SIM_DEFAULTS = SimilarityConfig()
_SOLVER_DEFAULTS = SolverConfig()


@dataclass(frozen=True)
class RunConfig:
    """Merged per-invocation settings (flags over config file over defaults)."""

    gamma: float = _SIM_DEFAULTS.gamma
    label_norm: str = _SIM_DEFAULTS.label_normalization.value
    epsilon: float = _SOLVER_DEFAULTS.epsilon
    max_iters: int = _SOLVER_DEFAULTS.max_iters
    damping: float = _SOLVER_DEFAULTS.damping_a
    method: str = _SOLVER_DEFAULTS.method
    norm: str = _SOLVER_DEFAULTS.norm_mode
    mode: str = _SOLVER_DEFAULTS.chain_mode
    min_confidence: float = 0.0
    seed: int = 0
    format: str = "json"

    def sim_config(self) -> SimilarityConfig:
        return SimilarityConfig(gamma=self.gamma, label_normalization=LabelNorm(self.label_norm))

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            epsilon=self.epsilon,
            max_iters=self.max_iters,
            damping_a=self.damping,
            method=self.method,
            norm_mode=self.norm,
            chain_mode=self.mode,
        )


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    # Defaults stay None so a config file can fill unset flags afterwards.
    p.add_argument("--config", type=str, default=None, help="JSON file pre-setting any flag")
    p.add_argument("--gamma", type=float, default=None, help="similarity threshold in [0, 1]")
    p.add_argument("--epsilon", type=float, default=None, help="iteration convergence tolerance")
    p.add_argument("--max-iters", type=int, default=None, help="iteration cap")
    p.add_argument("--damping", type=float, default=None,
                   help="ergodic damping weight a in (0, 1]; 1 disables damping")
    p.add_argument("--method", choices=list(METHODS), default=None,
                   help="stationary distribution solver")
    p.add_argument("--norm", choices=list(NORM_MODES), default=None,
                   help="row normalization reading")
    p.add_argument("--mode", choices=list(CHAIN_MODES), default=None,
                   help="pair-graph construction rule")
    p.add_argument("--min-confidence", type=float, default=None,
                   help="drop correspondences scoring below this")
    p.add_argument("--label-norm", choices=[m.value for m in LabelNorm], default=None,
                   help="label canonicalization before comparison")
    p.add_argument("--seed", type=int, default=None, help="RNG seed for generators")
    p.add_argument("--format", choices=["json", "tsv"], default=None,
                   help="alignment output format")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < explicit flags."""
    values: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise OntologyError(f"config file {config_path}: {exc}") from None
        if not isinstance(doc, dict):
            raise OntologyError(f"config file {config_path}: expected a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(doc) - known
        if unknown:
            raise OntologyError(
                f"config file {config_path}: unknown keys: {', '.join(sorted(unknown))}"
            )
        values.update(doc)
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise OntologyError(f"invalid configuration: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chainalign",
                     description="Align two ontologies via a pairwise Markov chain")
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", parents=[], help="align two ontologies")
    p_align.add_argument("ontology1")
    p_align.add_argument("ontology2")
    p_align.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    _add_run_flags(p_align)

    p_eval = sub.add_parser("eval", help="score an alignment against a reference")
    p_eval.add_argument("alignment")
    p_eval.add_argument("reference")

    p_cmp = sub.add_parser("compare", help="baseline-sf vs edge-confidence on one case")
    p_cmp.add_argument("ontology1")
    p_cmp.add_argument("ontology2")
    p_cmp.add_argument("reference")
    p_cmp.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    p_cmp.add_argument("--case", default="case", help="case label for the CSV rows")
    _add_run_flags(p_cmp)

    p_gen = sub.add_parser("bench-gen", help="generate a mutated benchmark case")
    p_gen.add_argument("ontology")
    p_gen.add_argument("--mutation", choices=list(MUTATIONS), required=True)
    p_gen.add_argument("--rate", type=float, default=0.1, help="drop rate for edge-drop")
    p_gen.add_argument("--out-ontology", default=None,
                       help="mutant path (default <stem>.mutant.json)")
    p_gen.add_argument("--out-reference", default=None,
                       help="reference path (default <stem>.reference.tsv)")
    _add_run_flags(p_gen)

    p_dump = sub.add_parser("dump-chain", help="dump the normalized transition matrix")
    p_dump.add_argument("ontology1")
    p_dump.add_argument("ontology2")
    p_dump.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    _add_run_flags(p_dump)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _require_file(path: str) -> str:
    if not Path(path).exists():
        raise OntologyError(f"no such file: {path}")
    if not Path(path).is_file():
        raise OntologyError(f"not a file: {path}")
    return path


def _load_graph(path: str):
    return load_ontology(_require_file(path))


def _warn_unconverged(what: str, outcome) -> None:
    """One stderr line if ``outcome`` (a SolveResult or CompareRow) did not converge."""
    if not outcome.converged:
        print(f"chainalign: warning: {what} did not converge in {outcome.iterations} "
              "iterations; raise --max-iters or loosen --epsilon", file=sys.stderr)


def _cmd_align(args) -> int:
    cfg = resolve_config(args)
    g1 = _load_graph(args.ontology1)
    g2 = _load_graph(args.ontology2)
    alignment, result = align(g1, g2, cfg.sim_config(), cfg.solver_config(), cfg.min_confidence)
    _warn_unconverged("the solve", result)
    text = alignment_to_json(alignment) if cfg.format == "json" else alignment_to_tsv(alignment)
    _emit(text, args.output)
    return EXIT_OK


def _cmd_eval(args) -> int:
    try:
        returned = load_alignment(_require_file(args.alignment)).pairs()
        reference = load_reference(_require_file(args.reference))
    except (ValueError, KeyError) as exc:
        raise OntologyError(str(exc)) from None
    report = evaluate(returned, reference.pairs)
    print(
        f"precision={_fmt_metric(report.precision)} recall={_fmt_metric(report.recall)} "
        f"f={_fmt_metric(report.f_measure)} returned={report.returned} "
        f"valid={report.valid} correct={report.correct}"
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = resolve_config(args)
    g1 = _load_graph(args.ontology1)
    g2 = _load_graph(args.ontology2)
    reference = load_reference(_require_file(args.reference))
    rows = compare(g1, g2, reference, cfg.sim_config(), cfg.solver_config(),
                   cfg.min_confidence, case=args.case)
    for row in rows:
        _warn_unconverged(f"the {row.mode} solve", row)
    _emit(comparison_csv(rows), args.output)
    return EXIT_OK


def _cmd_bench_gen(args) -> int:
    cfg = resolve_config(args)
    g = _load_graph(args.ontology)
    mutant, reference = synth_mutate(g, cfg.seed, args.mutation, args.rate)
    stem = Path(args.ontology).stem
    out_ont = args.out_ontology or f"{stem}.mutant.json"
    out_ref = args.out_reference or f"{stem}.reference.tsv"
    save_ontology(mutant, out_ont, "json")
    Path(out_ref).write_text(reference_to_tsv(reference), encoding="utf-8")
    print(f"wrote {out_ont} and {out_ref}", file=sys.stderr)
    return EXIT_OK


def _cmd_dump_chain(args) -> int:
    cfg = resolve_config(args)
    g1 = _load_graph(args.ontology1)
    g2 = _load_graph(args.ontology2)
    chain = build_chain(g1, g2, cfg.sim_config(), cfg.solver_config(), damped=False)
    _emit(dump_triplets(chain), args.output)
    return EXIT_OK


_COMMANDS = {
    "align": _cmd_align,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "bench-gen": _cmd_bench_gen,
    "dump-chain": _cmd_dump_chain,
}


def execute(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except SolverError as exc:
        print(f"chainalign: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OntologyError, FileNotFoundError, ValueError) as exc:
        print(f"chainalign: error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    raise SystemExit(execute())


if __name__ == "__main__":
    main()
