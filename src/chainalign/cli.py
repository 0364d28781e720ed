"""Command-line entry point.

Subcommands::

    align <ont1> <ont2>                 write the alignment (JSON on stdout)
    eval <alignment> <reference>        print precision/recall/F for one run
    compare <ont1> <ont2> <reference>   baseline vs edge-confidence CSV
    bench-gen <ont>                     seeded mutant ontology + reference
    dump-chain <ont1> <ont2>            sparse triplets of the transition matrix

Exit codes: 0 success, 1 usage error, 2 data error, 3 solver failure.
Every file is read and written in the format its path names: JSON when
the name ends in ``.json``, the file kind's text format otherwise.
A data error is malformed input, an input path that cannot be read, an
output path that cannot be written, or a bad setting. Config-file values
are checked like flags, and output paths are checked (not a directory, in
an existing directory), before any input file is read. A solve that stops
at the iteration cap still exits 0, after one ``chainalign: warning:``
line per such solve on stderr.
Each subcommand takes only the run flags it reads (``compare --seed`` is
the one exception: accepted, no effect). An optional JSON config file
(``--config``) may pre-set exactly those flags, by field name; explicit
flags win over the file. Flag defaults come from the library config
dataclasses, so the CLI never drifts from the module-level defaults.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .chain import (
    CHAIN_MODES,
    METHODS,
    NORM_MODES,
    SolverConfig,
    SolverError,
    build_upmc,
    dump_triplets,
)
from .evaluation import (
    MUTATIONS,
    _fmt_metric,
    comparison_csv,
    compare,
    evaluate,
    load_reference,
    save_reference,
    synth_mutate,
)
from .lexical import LabelNorm, SimilarityConfig
from .matching import alignment_to_json, load_alignment, save_alignment
from .ontology import load_ontology, save_ontology
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


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < explicit flags; every setting is checked here."""
    values: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"config file {config_path}: {exc}") from None
        if not isinstance(doc, dict):
            raise ValueError(f"config file {config_path}: expected a JSON object")
        kinds = {f.name: type(f.default) for f in fields(RunConfig) if hasattr(args, f.name)}
        unknown = set(doc) - set(kinds)
        if unknown:
            raise ValueError(f"config file {config_path}: {args.command} does not take "
                             f"{', '.join(sorted(unknown))}")
        for key, value in doc.items():
            # an int is a fine float; JSON true/false load as bool, an int subclass
            accepted = (int, float) if kinds[key] is float else kinds[key]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"config file {config_path}: {key} must be "
                                 f"{kinds[key].__name__}, got {value!r}")
        values.update(doc)
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    try:
        cfg = RunConfig(**values)
        cfg.sim_config(), cfg.solver_config()  # the library configs check their fields
        if not 0.0 <= cfg.min_confidence <= 1.0:
            raise ValueError(f"min_confidence must lie in [0, 1], got {cfg.min_confidence}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid configuration: {exc}") from None
    return cfg


def build_parser() -> argparse.ArgumentParser:
    # Each run flag once, in a parent parser per group; a subcommand takes only
    # the groups it reads. Defaults stay None so a config file can fill unset flags.
    config, chain, mode, solve, seed = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    config.add_argument("--config",
                        help="JSON file pre-setting this subcommand's run flags by field name")
    chain.add_argument("--gamma", type=float, help="similarity threshold in [0, 1]")
    chain.add_argument("--label-norm", choices=[m.value for m in LabelNorm],
                       help="label canonicalization before comparison")
    chain.add_argument("--norm", choices=list(NORM_MODES), help="row normalization reading")
    mode.add_argument("--mode", choices=list(CHAIN_MODES), help="pair-graph construction rule")
    solve.add_argument("--epsilon", type=float, help="iteration convergence tolerance")
    solve.add_argument("--max-iters", type=int, help="iteration cap")
    solve.add_argument("--damping", type=float,
                       help="ergodic damping weight a in (0, 1]; 1 disables damping")
    solve.add_argument("--method", choices=list(METHODS), help="stationary distribution solver")
    solve.add_argument("--min-confidence", type=float,
                       help="drop correspondences scoring below this")
    seed.add_argument("--seed", type=int, help="RNG seed for bench-gen; no effect on compare")

    parser = _Parser(prog="chainalign",
                     description="Align two ontologies via a pairwise Markov chain")
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", parents=[config, chain, mode, solve],
                             help="align two ontologies")
    p_align.add_argument("ontology1")
    p_align.add_argument("ontology2")
    p_align.add_argument("-o", "--output", default=None,
                         help="output path, TSV unless .json (default JSON on stdout)")

    p_eval = sub.add_parser("eval", help="score an alignment against a reference")
    p_eval.add_argument("alignment")
    p_eval.add_argument("reference")

    # compare runs both chain modes itself, so it takes no --mode
    p_cmp = sub.add_parser("compare", parents=[config, chain, solve, seed],
                           help="baseline-sf vs edge-confidence on one case")
    p_cmp.add_argument("ontology1")
    p_cmp.add_argument("ontology2")
    p_cmp.add_argument("reference")
    p_cmp.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    p_cmp.add_argument("--case", default="case", help="case label for the CSV rows")

    p_gen = sub.add_parser("bench-gen", parents=[config, seed],
                           help="generate a mutated benchmark case")
    p_gen.add_argument("ontology")
    p_gen.add_argument("--mutation", choices=list(MUTATIONS), required=True)
    p_gen.add_argument("--rate", type=float, default=0.1, help="drop rate for edge-drop")
    p_gen.add_argument("--out-ontology", default=None,
                       help="mutant path, triples unless .json (default <stem>.mutant.json)")
    p_gen.add_argument("--out-reference", default=None,
                       help="reference path, TSV unless .json (default <stem>.reference.tsv)")

    # dump-chain dumps the undamped chain, so no solve flag applies
    p_dump = sub.add_parser("dump-chain", parents=[config, chain, mode],
                            help="dump the normalized transition matrix")
    p_dump.add_argument("ontology1")
    p_dump.add_argument("ontology2")
    p_dump.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")

    return parser


def _check_outputs(*paths: str | None) -> None:
    """Refuse an output path that cannot become a file, before any work is
    done; nothing is created or truncated here."""
    for path in filter(None, paths):
        if Path(path).is_dir():
            raise ValueError(f"output path {path} is a directory")
        if not Path(path).parent.is_dir():
            raise ValueError(f"output path {path}: {Path(path).parent} is not a directory")


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _warn_unconverged(what: str, outcome) -> None:
    """One stderr line if ``outcome`` (a SolveResult or CompareRow) did not converge."""
    if not outcome.converged:
        print(f"chainalign: warning: {what} did not converge in {outcome.iterations} "
              "iterations; raise --max-iters or loosen --epsilon", file=sys.stderr)


def _cmd_align(args) -> int:
    cfg = resolve_config(args)
    _check_outputs(args.output)
    g1 = load_ontology(args.ontology1)
    g2 = load_ontology(args.ontology2)
    alignment, result = align(g1, g2, cfg.sim_config(), cfg.solver_config(), cfg.min_confidence)
    _warn_unconverged("the solve", result)
    if args.output:
        save_alignment(alignment, args.output)
    else:
        sys.stdout.write(alignment_to_json(alignment))
    return EXIT_OK


def _cmd_eval(args) -> int:
    returned = load_alignment(args.alignment).pairs()
    reference = load_reference(args.reference)
    report = evaluate(returned, reference.pairs)
    print(
        f"precision={_fmt_metric(report.precision)} recall={_fmt_metric(report.recall)} "
        f"f={_fmt_metric(report.f_measure)} returned={report.returned} "
        f"valid={report.valid} correct={report.correct}"
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = resolve_config(args)
    _check_outputs(args.output)
    g1 = load_ontology(args.ontology1)
    g2 = load_ontology(args.ontology2)
    reference = load_reference(args.reference)
    rows = compare(g1, g2, reference, cfg.sim_config(), cfg.solver_config(),
                   cfg.min_confidence, case=args.case)
    for row in rows:
        _warn_unconverged(f"the {row.mode} solve", row)
    _emit(comparison_csv(rows), args.output)
    return EXIT_OK


def _cmd_bench_gen(args) -> int:
    cfg = resolve_config(args)
    stem = Path(args.ontology).stem
    out_ont = args.out_ontology or f"{stem}.mutant.json"
    out_ref = args.out_reference or f"{stem}.reference.tsv"
    _check_outputs(out_ont, out_ref)
    g = load_ontology(args.ontology)
    mutant, reference = synth_mutate(g, cfg.seed, args.mutation, args.rate)
    save_ontology(mutant, out_ont)
    save_reference(reference, out_ref)
    print(f"wrote {out_ont} and {out_ref}", file=sys.stderr)
    return EXIT_OK


def _cmd_dump_chain(args) -> int:
    cfg = resolve_config(args)
    _check_outputs(args.output)
    g1 = load_ontology(args.ontology1)
    g2 = load_ontology(args.ontology2)
    raw = build_upmc(g1, g2, cfg.sim_config())
    chain = build_chain(raw, replace(cfg.solver_config(), damping_a=1.0))
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
    except (OSError, ValueError) as exc:
        print(f"chainalign: error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    raise SystemExit(execute())


if __name__ == "__main__":
    main()
