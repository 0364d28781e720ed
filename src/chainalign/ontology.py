"""Ontologies as labeled directed graphs, plus on-disk ingestion.

Two input formats are supported:

* JSON: ``{"terms": [{"id": "A", "label": "A"}],
  "edges": [{"from": "A", "to": "B", "label": "m", "kind": "object"}]}``.
  ``kind`` is ``"object"`` (default) or ``"hierarchy"``.
* Triples: one edge per line, ``subject predicate object``, whitespace
  separated, ``#`` starts a comment. Terms are created from mentions with
  label equal to their id.

Hierarchy edges always carry the canonical label ``subClassOf`` so that
they take part in label-set lookups exactly like object properties.
Labels are stored verbatim; any lexical normalization happens in the
similarity layer, never here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

HIERARCHY_LABEL = "subClassOf"


class OntologyError(ValueError):
    """Malformed ontology input (parse errors, bad references, empty labels)."""


class EdgeKind(str, Enum):
    OBJECT = "object"
    HIERARCHY = "hierarchy"


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
    """A directed, labeled property between two terms."""

    source: str
    target: str
    label: str
    kind: EdgeKind = EdgeKind.OBJECT

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
        seen: set[tuple[str, str, str]] = set()
        deduped = []
        for e in self.edges:
            if e.source not in self.terms:
                raise OntologyError(f"edge references unknown term {e.source!r}")
            if e.target not in self.terms:
                raise OntologyError(f"edge references unknown term {e.target!r}")
            key = (e.source, e.target, e.label)
            if key in seen:
                continue
            seen.add(key)
            deduped.append(e)
            self.adjacency.setdefault((e.source, e.target), set()).add(e.label)
        self.edges = deduped

    @property
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


def _edge_from_json(obj: dict, index: int) -> LabeledEdge:
    try:
        source = obj["from"]
        target = obj["to"]
    except KeyError as exc:
        raise OntologyError(f"edge #{index}: missing key {exc}") from None
    kind_raw = obj.get("kind", "object")
    try:
        kind = EdgeKind(kind_raw)
    except ValueError:
        raise OntologyError(
            f"edge #{index}: kind must be 'object' or 'hierarchy', got {kind_raw!r}"
        ) from None
    if kind is EdgeKind.HIERARCHY:
        label = HIERARCHY_LABEL
    else:
        label = obj.get("label", "")
        if not label:
            raise OntologyError(f"edge #{index}: empty label")
    return LabeledEdge(source=source, target=target, label=label, kind=kind)


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
    terms = []
    for i, t in enumerate(doc.get("terms", [])):
        if not isinstance(t, dict) or "id" not in t:
            raise OntologyError(f"{name}: term #{i}: expected an object with an 'id'")
        terms.append(Term(id=str(t["id"]), label=str(t.get("label", t["id"]))))
    edges = []
    for i, e in enumerate(doc.get("edges", [])):
        if not isinstance(e, dict):
            raise OntologyError(f"{name}: edge #{i}: expected an object")
        edges.append(_edge_from_json(e, i))
    try:
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
        kind = EdgeKind.HIERARCHY if pred == HIERARCHY_LABEL else EdgeKind.OBJECT
        edges.append(LabeledEdge(source=subj, target=obj, label=pred, kind=kind))
    return _make_graph(list(terms.values()), edges)


def detect_format(path: str | Path) -> str:
    return "json" if str(path).endswith(".json") else "triples"


def load_ontology(path: str | Path, format: str | None = None) -> OntologyGraph:
    """Load and validate an ontology graph from ``path``.

    ``format`` is ``"json"`` or ``"triples"``; when omitted it is inferred
    from the file extension (``.json`` means JSON, anything else triples).
    """
    path = Path(path)
    fmt = format or detect_format(path)
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        return _load_json(text, path.name)
    if fmt == "triples":
        return _load_triples(text, path.name)
    raise ValueError(f"unknown ontology format {fmt!r}")


def to_json_dict(g: OntologyGraph) -> dict:
    """Canonical JSON-ready form: terms and edges in sorted order."""
    return {
        "terms": [
            {"id": t.id, "label": t.label}
            for t in sorted(g.terms.values(), key=lambda t: t.id)
        ],
        "edges": [
            {"from": e.source, "to": e.target, "label": e.label, "kind": e.kind.value}
            for e in sorted(g.edges, key=lambda e: (e.source, e.target, e.label))
        ],
    }


def save_ontology(g: OntologyGraph, path: str | Path, format: str | None = None) -> None:
    """Write ``g`` to disk in the JSON or triples format.

    The triples format cannot represent ids or labels containing
    whitespace; those graphs must be saved as JSON.
    """
    path = Path(path)
    fmt = format or detect_format(path)
    if fmt == "json":
        path.write_text(
            json.dumps(to_json_dict(g), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return
    if fmt != "triples":
        raise ValueError(f"unknown ontology format {fmt!r}")
    renamed = sorted(t.id for t in g.terms.values() if t.label != t.id)
    if renamed:
        raise OntologyError(
            "triples format forces label == id; cannot hold terms: " + ", ".join(renamed)
        )
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
        raise OntologyError(
            f"triples format cannot hold isolated terms: {', '.join(isolated)}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
