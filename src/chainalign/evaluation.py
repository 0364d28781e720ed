"""Scoring against reference alignments and baseline-vs-variant comparison.

Precision divides correct correspondences by returned ones, recall by the
reference size; both are undefined (not zero) when their denominator set
is empty, and the comparison table prints an em dash for undefined cells.

``synth_mutate`` produces seeded, deterministic corruptions of an
ontology together with the identity reference alignment, standing in for
an external benchmark suite: predicate label edits, term label
scrambling, case flips and random edge drops.
"""
from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, replace
from pathlib import Path

from .chain import BASELINE_SF, EDGE_CONFIDENCE, SolverConfig
from .lexical import SimilarityConfig
from .matching import Alignment, Correspondence, load_alignment, save_alignment, tsv_can_hold
from .ontology import LabeledEdge, OntologyGraph, Term, is_json_path, write_text
from .pipeline import align, build_shared

MUTATIONS = ("label-edit", "label-scramble", "edge-drop", "label-case")

UNDEFINED = "—"  # em dash marking undefined metric cells


@dataclass(frozen=True)
class ReferenceAlignment:
    """Ground-truth correspondence pairs (source id, target id)."""

    pairs: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class EvalReport:
    """Metrics for one run; ``None`` marks an undefined ratio."""

    precision: float | None
    recall: float | None
    f_measure: float | None
    returned: int
    valid: int
    correct: int


@dataclass(frozen=True)
class CompareRow:
    case: str
    mode: str
    report: EvalReport
    iterations: int
    converged: bool


def precision(returned: set[tuple[str, str]], valid: set[tuple[str, str]]) -> float:
    """Correct over returned. Undefined (raises) for an empty result set."""
    if not returned:
        raise ValueError("precision is undefined for an empty returned set (no results)")
    return len(set(returned) & set(valid)) / len(returned)


def recall(returned: set[tuple[str, str]], valid: set[tuple[str, str]]) -> float:
    """Correct over expected. Undefined (raises) for an empty reference."""
    if not valid:
        raise ValueError("recall is undefined for an empty reference set")
    return len(set(returned) & set(valid)) / len(valid)


def f_measure(p: float, r: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if not 0.0 <= p <= 1.0 or not 0.0 <= r <= 1.0:
        raise ValueError(f"precision and recall must lie in [0, 1], got {p}, {r}")
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def evaluate(returned: set[tuple[str, str]], valid: set[tuple[str, str]]) -> EvalReport:
    """Assemble an EvalReport, mapping undefined ratios to ``None``."""
    returned = set(returned)
    valid = set(valid)
    correct = len(returned & valid)
    p = precision(returned, valid) if returned else None
    r = recall(returned, valid) if valid else None
    f = f_measure(p, r) if p is not None and r is not None else None
    return EvalReport(
        precision=p,
        recall=r,
        f_measure=f,
        returned=len(returned),
        valid=len(valid),
        correct=correct,
    )


def compare(
    g1: OntologyGraph,
    g2: OntologyGraph,
    reference: ReferenceAlignment,
    sim_cfg: SimilarityConfig | None = None,
    solver_cfg: SolverConfig | None = None,
    min_confidence: float = 0.0,
    case: str = "case",
) -> list[CompareRow]:
    """Run the pipeline in both chain modes against one reference.

    Solver settings are shared across modes apart from ``chain_mode``
    itself, so the rows differ only in how the pair graph was built.

    The two modes also share their inputs, built once per call
    (``pipeline.build_shared``): the unnormalized edge-confidence chain and,
    for the iterative method, the lexical initial distribution. Every
    ``align`` reads the baseline-sf chain off the edge-confidence one
    (``pipeline.build_chain``), so each mode solves the chain that a
    standalone ``align`` in that mode builds, and only the lexical scoring
    is not repeated.
    """
    sim_cfg = sim_cfg or SimilarityConfig()
    solver_cfg = solver_cfg or SolverConfig()
    stray = [
        (s, t)
        for s, t in reference.pairs
        if s not in g1.terms or t not in g2.terms
    ]
    if stray:
        raise ValueError(
            f"reference names terms absent from the ontologies: {sorted(stray)[:5]}"
        )
    shared = build_shared(g1, g2, sim_cfg, solver_cfg)
    rows = []
    for mode in (BASELINE_SF, EDGE_CONFIDENCE):
        cfg = replace(solver_cfg, chain_mode=mode)
        alignment, result = align(g1, g2, sim_cfg, cfg, min_confidence, shared=shared)
        report = evaluate(alignment.pairs(), reference.pairs)
        rows.append(
            CompareRow(
                case=case,
                mode=mode,
                report=report,
                iterations=result.iterations,
                converged=result.converged,
            )
        )
    return rows


def _fmt_metric(value: float | None) -> str:
    return UNDEFINED if value is None else f"{value:.6f}"


def check_case_label(case: str) -> None:
    """Refuse a case label that ``comparison_csv`` cannot write: one with a
    carriage return, which CSV readers split where it is left unquoted."""
    if "\r" in case:
        raise ValueError(f"CSV cannot hold the case label {case!r}; drop its carriage return")


def comparison_csv(rows: list[CompareRow]) -> str:
    """Plot-ready CSV, one row per (case, mode); a case label that holds a
    comma, a quote or a line feed is quoted. A label with a carriage return
    is refused (``check_case_label``)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["case", "mode", "precision", "recall", "f_measure", "returned", "valid",
                     "correct", "iterations", "converged"])
    for row in rows:
        check_case_label(row.case)
        rep = row.report
        writer.writerow([row.case, row.mode, _fmt_metric(rep.precision), _fmt_metric(rep.recall),
                         _fmt_metric(rep.f_measure), rep.returned, rep.valid, rep.correct,
                         row.iterations, str(row.converged).lower()])
    return out.getvalue()


def load_reference(path: str | Path) -> ReferenceAlignment:
    """Read a reference from ``path``: alignment JSON by the ``.json`` name, else 2/3-column TSV.

    Only the pair set is kept. A TSV confidence column is ignored; a JSON reference is
    alignment JSON, so its pairs are one-to-one and each needs a confidence in [0, 1].
    """
    path = Path(path)
    if is_json_path(path):
        return ReferenceAlignment(pairs=frozenset(load_alignment(path).pairs()))
    pairs = set()
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"{path.name}: line {lineno}: expected 'source<TAB>target' "
                "with an optional confidence column"
            )
        pairs.add((parts[0], parts[1]))
    return ReferenceAlignment(pairs=frozenset(pairs))


def save_reference(reference: ReferenceAlignment, path: str | Path) -> None:
    """Write ``reference`` as ``load_reference`` reads it: by the ``.json`` name, the
    alignment JSON of its pairs at confidence 1.0, else TSV. Either refuses,
    before writing, a reference it cannot hold.

    JSON holds only a one-to-one reference. TSV refuses an id that
    ``save_alignment`` refuses (``tsv_can_hold``) and, as its reader skips
    ``#`` comments, a source starting with ``#``.
    """
    pairs = sorted(reference.pairs)
    if is_json_path(path):
        try:
            alignment = Alignment([Correspondence(s, t, 1.0) for s, t in pairs])
        except ValueError:
            raise ValueError(f"{path}: JSON needs a one-to-one reference; use a TSV path") from None
        save_alignment(alignment, path)
    else:
        for s, t in pairs:
            for x in (s, t):  # s first, so a '#' source is the id named
                if not tsv_can_hold(x) or s.startswith("#"):
                    raise ValueError(f"{path}: TSV cannot hold the id {x!r}; use a .json path")
        write_text(path, "".join(f"{s}\t{t}\n" for s, t in pairs))


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _edit_once(label: str, rng: random.Random) -> str:
    """One random insert/delete/substitute that keeps the label non-empty."""
    op = rng.choice("ids" if len(label) > 1 else "is")
    pos = rng.randrange(len(label) + (op == "i"))
    if op == "i":
        return label[:pos] + rng.choice(_ALPHABET) + label[pos:]
    if op == "d":
        return label[:pos] + label[pos + 1:]
    replacement = rng.choice(_ALPHABET.replace(label[pos].lower(), "") or _ALPHABET)
    return label[:pos] + replacement + label[pos:][1:]


def _perturb(label: str, rng: random.Random, edits: int) -> str:
    for _ in range(edits):
        label = _edit_once(label, rng)
    return label


def synth_mutate(
    g: OntologyGraph,
    seed: int,
    mutation: str,
    rate: float = 0.1,
) -> tuple[OntologyGraph, ReferenceAlignment]:
    """Seeded mutated copy of ``g`` plus the identity reference alignment.

    * ``label-edit``: every edge label (``subClassOf`` too) takes 1-2 character edits.
    * ``label-scramble``: every term label has its characters shuffled.
    * ``edge-drop``: each edge is removed with probability ``rate``.
    * ``label-case``: every term and edge label is case-flipped.
    """
    if mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation kind {mutation!r}; expected one of {MUTATIONS}")
    if not g.terms:
        raise ValueError("cannot mutate an empty ontology")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    rng = random.Random(seed)

    terms = [g.terms[tid] for tid in g.term_ids]
    edges = sorted(g.edges, key=lambda e: (e.source, e.target, e.label))

    if mutation == "label-edit":
        edges = [
            LabeledEdge(e.source, e.target, _perturb(e.label, rng, rng.randint(1, 2)))
            for e in edges
        ]
    elif mutation == "label-scramble":
        new_terms = []
        for t in terms:
            chars = list(t.label)
            rng.shuffle(chars)
            new_terms.append(Term(id=t.id, label="".join(chars)))
        terms = new_terms
    elif mutation == "edge-drop":
        edges = [e for e in edges if rng.random() >= rate]
    else:  # label-case
        terms = [Term(id=t.id, label=t.label.swapcase()) for t in terms]
        edges = [LabeledEdge(e.source, e.target, e.label.swapcase()) for e in edges]

    mutant = OntologyGraph(terms={t.id: t for t in terms}, edges=edges)
    reference = ReferenceAlignment(pairs=frozenset((tid, tid) for tid in g.terms))
    return mutant, reference
