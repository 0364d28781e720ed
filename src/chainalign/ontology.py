"""Ontologies as labeled directed graphs, plus reading and writing them.

An edge is its source, target and label; it is a hierarchy edge exactly
when its label is ``subClassOf``, and it takes part in label-set lookups
like any object property. Two file formats are supported, picked by the
path for reading and writing alike (``is_json_path``):

* JSON (``.json``): ``{"terms": [{"id": "A", "label": "A"}],
  "edges": [{"from": "A", "to": "B", "label": "m", "kind": "object"}]}``.
  On input ``kind`` is ``"object"`` (default) or ``"hierarchy"``, which
  sets the label to ``subClassOf``; on output it is derived from the label.
* Triples (any other name): one edge per line, ``subject predicate
  object``, whitespace separated, ``#`` starts a comment. Terms are
  created from mentions with label equal to their id.

Labels are stored verbatim; any lexical normalization happens in the
similarity layer, never here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

HIERARCHY_LABEL = "subClassOf"


class OntologyError(ValueError):
    """Malformed ontology input (parse errors, bad references, empty labels)."""


@dataclass(frozen=True)
class Term:
    """A named node of the ontology graph."""

    id: str
    label: str

    def __post_init__(self):
        if not self.id:
            raise OntologyError("term id must be non-empty")
        if not self.label:
            raise OntologyError(f"term {self.id!r}: label must be non-empty")


@dataclass(frozen=True)
class LabeledEdge:
    """A directed, labeled property between two terms; a hierarchy edge
    when its label is ``HIERARCHY_LABEL``."""

    source: str
    target: str
    label: str

    def __post_init__(self):
        if not self.label:
            raise OntologyError(
                f"edge {self.source!r} -> {self.target!r}: label must be non-empty"
            )


@dataclass
class OntologyGraph:
    """Immutable-after-construction labeled directed multigraph.

    ``adjacency`` maps ``(source id, target id)`` to the set of labels on
    parallel edges between the two terms. Parallel edges with an identical
    label collapse into one.
    """

    terms: dict[str, Term]
    edges: list[LabeledEdge]
    adjacency: dict[tuple[str, str], set[str]] = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.edges = list(dict.fromkeys(self.edges))
        for e in self.edges:
            if e.source not in self.terms:
                raise OntologyError(f"edge references unknown term {e.source!r}")
            if e.target not in self.terms:
                raise OntologyError(f"edge references unknown term {e.target!r}")
            self.adjacency.setdefault((e.source, e.target), set()).add(e.label)

    @cached_property
    def term_ids(self) -> list[str]:
        """Term ids in the canonical (sorted) order used for matrix layouts."""
        return sorted(self.terms)

    def label(self, term_id: str) -> str:
        return self.terms[term_id].label

    def __len__(self) -> int:
        return len(self.terms)


def _make_graph(terms: list[Term], edges: list[LabeledEdge]) -> OntologyGraph:
    by_id: dict[str, Term] = {}
    for t in terms:
        if t.id in by_id:
            raise OntologyError(f"duplicate term id {t.id!r}")
        by_id[t.id] = t
    return OntologyGraph(terms=by_id, edges=edges)


def _string(value, where: str, key: str) -> str:
    if not isinstance(value, str):
        raise OntologyError(f"{where}: {key!r} must be a JSON string, got {value!r}")
    return value


def _edge_from_json(obj: dict, index: int) -> LabeledEdge:
    where = f"edge #{index}"
    try:
        source = _string(obj["from"], where, "from")
        target = _string(obj["to"], where, "to")
    except KeyError as exc:
        raise OntologyError(f"{where}: missing key {exc}") from None
    kind = obj.get("kind", "object")
    if kind not in ("object", "hierarchy"):
        raise OntologyError(f"{where}: kind must be 'object' or 'hierarchy', got {kind!r}")
    label = HIERARCHY_LABEL if kind == "hierarchy" else _string(
        obj.get("label", ""), where, "label")
    if not label:
        raise OntologyError(f"{where}: empty label")
    return LabeledEdge(source=source, target=target, label=label)


def _load_json(text: str, name: str) -> OntologyGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OntologyError(
            f"{name}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise OntologyError(f"{name}: top-level value must be an object")
    for key in ("terms", "edges"):
        if not isinstance(doc.get(key, []), list):
            raise OntologyError(f"{name}: '{key}' must be a list")
    try:
        terms = []
        for i, t in enumerate(doc.get("terms", [])):
            if not isinstance(t, dict) or "id" not in t:
                raise OntologyError(f"term #{i}: expected an object with an 'id'")
            tid = _string(t["id"], f"term #{i}", "id")
            terms.append(Term(id=tid, label=_string(t.get("label", tid), f"term #{i}", "label")))
        edges = []
        for i, e in enumerate(doc.get("edges", [])):
            if not isinstance(e, dict):
                raise OntologyError(f"edge #{i}: expected an object")
            edges.append(_edge_from_json(e, i))
        return _make_graph(terms, edges)
    except OntologyError as exc:
        raise OntologyError(f"{name}: {exc}") from None


def _load_triples(text: str, name: str) -> OntologyGraph:
    terms: dict[str, Term] = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise OntologyError(
                f"{name}: line {lineno}: expected 'subject predicate object', "
                f"got {len(parts)} token(s)"
            )
        subj, pred, obj = parts
        for tid in (subj, obj):
            terms.setdefault(tid, Term(id=tid, label=tid))
        edges.append(LabeledEdge(source=subj, target=obj, label=pred))
    return OntologyGraph(terms=terms, edges=edges)


def is_json_path(path: str | Path) -> bool:
    """The format rule for every file chainalign reads or writes: JSON when
    the name ends in ``.json``, the kind's text format otherwise."""
    return str(path).endswith(".json")


def load_ontology(path: str | Path) -> OntologyGraph:
    """Load and validate an ontology graph from ``path``, JSON or triples
    by its name (``is_json_path``)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if is_json_path(path):
        return _load_json(text, path.name)
    return _load_triples(text, path.name)


def to_json_dict(g: OntologyGraph) -> dict:
    """Canonical JSON-ready form: terms and edges in sorted order."""
    return {
        "terms": [
            {"id": t.id, "label": t.label}
            for t in sorted(g.terms.values(), key=lambda t: t.id)
        ],
        "edges": [
            {"from": e.source, "to": e.target, "label": e.label,
             "kind": "hierarchy" if e.label == HIERARCHY_LABEL else "object"}
            for e in sorted(g.edges, key=lambda e: (e.source, e.target, e.label))
        ],
    }


def save_ontology(g: OntologyGraph, path: str | Path) -> None:
    """Write ``g`` to ``path``: JSON when its name ends in ``.json``,
    triples otherwise, as ``load_ontology`` reads it.

    The triples format cannot hold relabeled or isolated terms, nor ids or
    labels with whitespace or ``#``; such a graph raises ``OntologyError``
    before anything is written, and must be saved as JSON.
    """
    path = Path(path)
    if is_json_path(path):
        text = json.dumps(to_json_dict(g), indent=2, sort_keys=True) + "\n"
        path.write_bytes(text.encode("utf-8"))
        return
    renamed = sorted(t.id for t in g.terms.values() if t.label != t.id)
    if renamed:
        raise OntologyError("triples format forces label == id; cannot hold terms: "
                            + ", ".join(renamed))
    lines = []
    for e in sorted(g.edges, key=lambda e: (e.source, e.target, e.label)):
        fields = (e.source, e.label, e.target)
        if any(len(f.split()) != 1 or "#" in f for f in fields):
            raise OntologyError(
                "triples format cannot hold whitespace or '#' in ids/labels; "
                f"offending edge: {e.source!r} {e.label!r} {e.target!r}"
            )
        lines.append(f"{e.source} {e.label} {e.target}")
    isolated = sorted(set(g.terms) - {e.source for e in g.edges} - {e.target for e in g.edges})
    if isolated:
        raise OntologyError(f"triples format cannot hold isolated terms: {', '.join(isolated)}")
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
