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
        # keyed by field tuples, which hash without a Python-level call
        unique = dict(zip([(e.source, e.target, e.label) for e in self.edges], self.edges))
        self.edges = list(unique.values())
        for source, target, label in unique:
            if source not in self.terms:
                raise OntologyError(f"edge references unknown term {source!r}")
            if target not in self.terms:
                raise OntologyError(f"edge references unknown term {target!r}")
            self.adjacency.setdefault((source, target), set()).add(label)

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


def _terms_from_json(items: list) -> list[Term]:
    """One ``Term`` per entry, checked in one pass: an object with an
    ``id``, whose ``id`` and ``label`` (the id when absent) are strings,
    which ``Term`` refuses when empty. The first check an entry fails, in
    that order, raises the error that names the entry by its index."""
    terms = []
    for i, t in enumerate(items):
        if type(t) is not dict or type(tid := t.get("id")) is not str:
            raise OntologyError(f"term #{i}: 'id' must be a JSON string, got {tid!r}"
                                if type(t) is dict and "id" in t
                                else f"term #{i}: expected an object with an 'id'")
        if type(label := t.get("label", tid)) is not str:
            raise OntologyError(f"term #{i}: 'label' must be a JSON string, got {label!r}")
        terms.append(Term(tid, label))
    return terms


def _edges_from_json(items: list) -> list[LabeledEdge]:
    """One ``LabeledEdge`` per entry, checked in one pass: an object whose
    ``from`` and ``to`` are present and strings, whose ``kind`` is
    ``"object"`` (the default) or ``"hierarchy"``, and whose label
    (``subClassOf`` for a hierarchy edge) is a non-empty string. The first
    check an entry fails, in that order, raises the error that names the
    entry by its index."""
    edges = []
    for i, e in enumerate(items):
        if type(e) is not dict:
            raise OntologyError(f"edge #{i}: expected an object")
        if type(source := e.get("from")) is not str:
            raise OntologyError(f"edge #{i}: 'from' must be a JSON string, got {source!r}"
                                if "from" in e else f"edge #{i}: missing key 'from'")
        if type(target := e.get("to")) is not str:
            raise OntologyError(f"edge #{i}: 'to' must be a JSON string, got {target!r}"
                                if "to" in e else f"edge #{i}: missing key 'to'")
        if (kind := e.get("kind", "object")) != "object" and kind != "hierarchy":
            raise OntologyError(f"edge #{i}: kind must be 'object' or 'hierarchy', got {kind!r}")
        label = HIERARCHY_LABEL if kind == "hierarchy" else e.get("label", "")
        if type(label) is not str:
            raise OntologyError(f"edge #{i}: 'label' must be a JSON string, got {label!r}")
        if not label:
            raise OntologyError(f"edge #{i}: empty label")
        edges.append(LabeledEdge(source, target, label))
    return edges


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
        terms = _terms_from_json(doc.get("terms", []))
        return _make_graph(terms, _edges_from_json(doc.get("edges", [])))
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


class UnencodableText(UnicodeEncodeError):
    """Text bound for a file that UTF-8 cannot encode, such as a lone
    surrogate. A ``ValueError``, as every ``UnicodeEncodeError`` is; its
    message names the file and shows the character with up to 20 of the
    text's characters on either side."""

    def __init__(self, exc: UnicodeEncodeError, path: str | Path):
        super().__init__(exc.encoding, exc.object, exc.start, exc.end, exc.reason)
        self.path = path

    def __str__(self) -> str:
        text, start, end = self.object, self.start, self.end
        context = text[max(0, start - 20):end + 20]
        return (f"{self.path}: UTF-8 cannot encode {text[start:end]!r} in {context!r} "
                f"({self.reason}); no file can hold it, so change it in the input")


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8. The whole text is encoded before
    the file is opened, so text that cannot be encoded leaves no file; it
    raises ``UnencodableText``."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise UnencodableText(exc, path) from None
    Path(path).write_bytes(data)


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
        write_text(path, json.dumps(to_json_dict(g), indent=2, sort_keys=True) + "\n")
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
    write_text(path, "\n".join(lines) + "\n")
