import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainalign.evaluation import MUTATIONS, synth_mutate
from chainalign.ontology import (
    LabeledEdge,
    OntologyError,
    OntologyGraph,
    Term,
    _load_json,
    load_ontology,
    save_ontology,
    to_json_dict,
)

from conftest import DATA_DIR, make_graph
from oracles import load_json_lean_then_full


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadJson:
    def test_minimal_graph(self, tmp_path):
        path = write(
            tmp_path,
            "g.json",
            '{"terms":[{"id":"A","label":"A"},{"id":"B","label":"B"}],'
            '"edges":[{"from":"A","to":"B","label":"m"}]}',
        )
        g = load_ontology(path)
        assert len(g) == 2
        assert g.edges == [LabeledEdge("A", "B", "m")]
        assert g.adjacency[("A", "B")] == {"m"}

    def test_kind_defaults_to_object(self, tmp_path):
        path = write(
            tmp_path,
            "g.json",
            '{"terms":[{"id":"A"},{"id":"B"}],"edges":[{"from":"A","to":"B","label":"m"}]}',
        )
        assert to_json_dict(load_ontology(path))["edges"][0]["kind"] == "object"

    def test_hierarchy_edges_get_canonical_label(self, tmp_path):
        path = write(
            tmp_path,
            "g.json",
            '{"terms":[{"id":"A"},{"id":"B"}],'
            '"edges":[{"from":"A","to":"B","kind":"hierarchy"}]}',
        )
        g = load_ontology(path)
        assert g.edges[0].label == "subClassOf"
        assert g.adjacency[("A", "B")] == {"subClassOf"}

    @pytest.mark.parametrize("key", ["terms", "edges"])
    def test_non_list_section_rejected(self, tmp_path, key):
        path = write(tmp_path, "g.json", f'{{"terms": [{{"id": "A"}}], "{key}": 5}}')
        with pytest.raises(OntologyError, match=rf"g.json: '{key}' must be a list"):
            load_ontology(path)

    def test_parse_error_reports_position(self, tmp_path):
        path = write(tmp_path, "g.json", '{"terms": [}')
        with pytest.raises(OntologyError, match=r"line 1"):
            load_ontology(path)

    def test_duplicate_term_id(self, tmp_path):
        path = write(
            tmp_path, "g.json", '{"terms":[{"id":"A"},{"id":"A"}],"edges":[]}'
        )
        with pytest.raises(OntologyError, match="duplicate term id"):
            load_ontology(path)

    def test_edge_to_unknown_term(self, tmp_path):
        path = write(
            tmp_path,
            "g.json",
            '{"terms":[{"id":"A"}],"edges":[{"from":"A","to":"Z","label":"m"}]}',
        )
        with pytest.raises(OntologyError, match="unknown term"):
            load_ontology(path)

    def test_empty_label_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "g.json",
            '{"terms":[{"id":"A"},{"id":"B"}],"edges":[{"from":"A","to":"B","label":""}]}',
        )
        with pytest.raises(OntologyError, match="empty label"):
            load_ontology(path)

    def test_empty_term_id_rejected(self, tmp_path):
        path = write(tmp_path, "g.json", '{"terms":[{"id":"A"},{"id":"","label":"x"}]}')
        with pytest.raises(OntologyError, match=r"^g\.json: term id must be non-empty$"):
            load_ontology(path)

    def test_bad_kind_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "g.json",
            '{"terms":[{"id":"A"},{"id":"B"}],'
            '"edges":[{"from":"A","to":"B","label":"m","kind":"data"}]}',
        )
        with pytest.raises(OntologyError, match="kind"):
            load_ontology(path)


    @pytest.mark.parametrize("doc, where", [
        ('{"terms":[{"id":"A"},{"id":"B"}],"edges":[{"from":"A","to":"B","label":5}]}',
         "edge #0: 'label'"),
        ('{"terms":[{"id":"A","label":null}]}', "term #0: 'label'"),
        ('{"terms":[{"id":"A"},{"id":1}],"edges":[{"from":1,"to":"A","label":"m"}]}',
         "term #1: 'id'"),
        ('{"terms":[{"id":"A"},{"id":"1"}],"edges":[{"from":1,"to":"A","label":"m"}]}',
         "edge #0: 'from'"),
    ], ids=["edge-label-number", "term-label-null", "term-id-number", "edge-from-number"])
    def test_non_string_id_label_or_endpoint_rejected(self, tmp_path, doc, where):
        path = write(tmp_path, "g.json", doc)
        with pytest.raises(OntologyError, match=rf"g.json: {where} must be a JSON string"):
            load_ontology(path)

    @pytest.mark.parametrize("doc, message", [
        ('[{"id": "A"}]', "top-level value must be an object"),
        ('{"terms":[{"label":"A"}]}', "term #0: expected an object with an 'id'"),
        ('{"terms":[{"id":"A"}],"edges":[5]}', "edge #0: expected an object"),
        ('{"terms":[{"id":"A"}],"edges":[{"to":"A","label":"m"}]}',
         "edge #0: missing key 'from'"),
        ('{"terms":[{"id":"A"}],"edges":[{"from":"Z","to":"A","label":"m"}]}',
         "edge references unknown term 'Z'"),
    ], ids=["top-level-list", "term-without-id", "edge-number", "edge-without-from",
            "edge-from-unknown"])
    def test_malformed_document_rejected(self, tmp_path, doc, message):
        path = write(tmp_path, "g.json", doc)
        with pytest.raises(OntologyError, match=f"^{re.escape(f'g.json: {message}')}$"):
            load_ontology(path)


# valid entries of every form the loader accepts, placed before each
# malformed entry below and after it
VALID_TERMS = [{"id": "A"}, {"id": "B", "label": "b"}]
VALID_EDGES = [{"from": "A", "to": "B", "label": "m"},
               {"from": "B", "to": "A", "kind": "hierarchy", "label": 5},
               {"from": "A", "to": "A", "kind": "object", "label": "n"}]


class TestMalformedAfterValidEntries:
    """An entry that fails the loader's lean check goes through the full
    per-entry checks, so the message and the entry's number are those of
    the full checks, wherever the entry sits."""

    @pytest.mark.parametrize("term, message", [
        ({"label": "C"}, "term #2: expected an object with an 'id'"),
        (5, "term #2: expected an object with an 'id'"),
        ({"id": 1}, "term #2: 'id' must be a JSON string, got 1"),
        ({"id": "C", "label": None}, "term #2: 'label' must be a JSON string, got None"),
        ({"id": "", "label": "x"}, "term id must be non-empty"),
        ({"id": "C", "label": ""}, "term 'C': label must be non-empty"),
        ({"id": "A"}, "duplicate term id 'A'"),
    ])
    def test_malformed_term(self, tmp_path, term, message):
        doc = {"terms": VALID_TERMS + [term, {"id": "D"}], "edges": VALID_EDGES}
        path = write(tmp_path, "g.json", json.dumps(doc))
        with pytest.raises(OntologyError, match=f"^{re.escape(f'g.json: {message}')}$"):
            load_ontology(path)

    @pytest.mark.parametrize("edge, message", [
        (5, "edge #3: expected an object"),
        (["A", "B"], "edge #3: expected an object"),
        ({"to": "A", "label": "m"}, "edge #3: missing key 'from'"),
        ({"from": "A", "label": "m"}, "edge #3: missing key 'to'"),
        ({"from": 1, "to": "A", "label": "m"}, "edge #3: 'from' must be a JSON string, got 1"),
        ({"from": "A", "to": None, "label": "m"},
         "edge #3: 'to' must be a JSON string, got None"),
        ({"from": "A", "to": "B", "label": 5}, "edge #3: 'label' must be a JSON string, got 5"),
        ({"from": "A", "to": "B", "label": ""}, "edge #3: empty label"),
        ({"from": "A", "to": "B"}, "edge #3: empty label"),
        ({"from": "A", "to": "B", "label": "m", "kind": "data"},
         "edge #3: kind must be 'object' or 'hierarchy', got 'data'"),
        ({"from": "A", "to": "B", "label": "m", "kind": None},
         "edge #3: kind must be 'object' or 'hierarchy', got None"),
        ({"from": "Z", "to": "A", "label": "m"}, "edge references unknown term 'Z'"),
        ({"from": "A", "to": "Z", "label": "m"}, "edge references unknown term 'Z'"),
    ])
    def test_malformed_edge(self, tmp_path, edge, message):
        doc = {"terms": VALID_TERMS, "edges": VALID_EDGES + [edge, {"from": "B", "to": "B",
                                                                   "label": "p"}]}
        path = write(tmp_path, "g.json", json.dumps(doc))
        with pytest.raises(OntologyError, match=f"^{re.escape(f'g.json: {message}')}$"):
            load_ontology(path)

    def test_valid_entries_load(self, tmp_path):
        path = write(tmp_path, "g.json", json.dumps({"terms": VALID_TERMS, "edges": VALID_EDGES}))
        g = load_ontology(path)
        assert g.terms == {"A": Term("A", "A"), "B": Term("B", "b")}
        assert g.edges == [LabeledEdge("A", "B", "m"), LabeledEdge("B", "A", "subClassOf"),
                           LabeledEdge("A", "A", "n")]


MISSING = object()  # a fault that deletes the key
# values a fault gives a key: absent, null, numeric, a list, empty, a
# known id, an id no term has, a kind or a label
FAULT_VALUES = [MISSING, None, 0, 1.5, ["A"], "", "A", "Z", "m", "data", "hierarchy"]
NON_OBJECTS = [5, "A", None, [], ["A", "B"]]
EDGE_FORMS = [{"label": "m"}, {"label": "n", "kind": "object"}, {"kind": "hierarchy", "label": 5}]


@st.composite
def faulty_docs(draw):
    """Ontology JSON with zero, one or several faults. Valid terms and
    edges (object edges with and without ``kind``, hierarchy edges with
    any ``label``) are drawn first; each fault then copies an entry or
    takes one, and replaces it by a non-object or sets or deletes some of
    its keys. A copied term is a duplicate id."""
    ids = draw(st.lists(st.sampled_from("ABCD"), unique=True, max_size=4))
    terms = [{"id": t, "label": draw(st.sampled_from([t, "b"]))} if draw(st.booleans())
             else {"id": t} for t in ids]
    edges = [{"from": s, "to": t, **form} for s, t, form in draw(st.lists(st.tuples(
        st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(EDGE_FORMS)), max_size=5))
    ] if ids else []
    for _ in range(draw(st.integers(0, 3))):
        is_term = draw(st.booleans())
        entries, keys = (terms, ["id", "label"]) if is_term else (
            edges, ["from", "to", "label", "kind"])
        objects = [e for e in entries if type(e) is dict] or [
            {"id": "E"} if is_term else {"from": "A", "to": "A", "label": "m"}]
        source = draw(st.sampled_from(objects))
        at = draw(st.integers(0, len(entries)))
        if at == len(entries) or draw(st.booleans()):
            entries.insert(at, dict(source))
        else:
            entries[at] = dict(source)
        if draw(st.integers(0, 4)) == 0:
            entries[at] = draw(st.sampled_from(NON_OBJECTS))
            continue
        for key, value in draw(st.dictionaries(st.sampled_from(keys),
                                               st.sampled_from(FAULT_VALUES), max_size=3)).items():
            if value is MISSING:
                entries[at].pop(key, None)
            else:
                entries[at][key] = value
    return {"terms": terms, "edges": edges}


class TestIngestParity:
    """The one-pass JSON reader agrees with the earlier lean-test-then-parsers
    reader (``oracles.load_json_lean_then_full``) on documents with zero,
    one or several faults: the same message, or an equal graph."""

    @settings(max_examples=200, deadline=None)
    @given(doc=faulty_docs())
    # an edge with two faulty endpoints; a duplicate id and an unlabelled
    # edge, which is the fault reported
    @example(doc={"terms": [{"id": "A"}], "edges": [{"to": None, "label": "m"}]})
    @example(doc={"terms": [{"id": "A"}, {"id": "A"}], "edges": [{"from": "A", "to": "Z"}]})
    def test_same_message_or_equal_graph(self, doc):
        text = json.dumps(doc)
        try:
            expected = load_json_lean_then_full(text, "g.json")
        except OntologyError as exc:
            with pytest.raises(OntologyError) as got:
                _load_json(text, "g.json")
            assert str(got.value) == str(exc)
            return
        g = _load_json(text, "g.json")
        assert list(g.terms.items()) == list(expected.terms.items())
        assert g.edges == expected.edges
        assert g.adjacency == expected.adjacency


class TestLoadTriples:
    def test_single_line_matches_json_form(self, tmp_path):
        t = load_ontology(write(tmp_path, "g.txt", "A m B\n"))
        j = load_ontology(
            write(
                tmp_path,
                "g.json",
                '{"terms":[{"id":"A","label":"A"},{"id":"B","label":"B"}],'
                '"edges":[{"from":"A","to":"B","label":"m"}]}',
            )
        )
        assert to_json_dict(t) == to_json_dict(j)

    def test_missing_object_names_line(self, tmp_path):
        with pytest.raises(OntologyError, match="line 1"):
            load_ontology(write(tmp_path, "g.txt", "A m\n"))

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        g = load_ontology(
            write(tmp_path, "g.txt", "# header\n\nA m B  # trailing\nB n C\n")
        )
        assert set(g.terms) == {"A", "B", "C"}
        assert len(g.edges) == 2

    def test_subclassof_predicate_is_hierarchy(self, tmp_path):
        g = load_ontology(write(tmp_path, "g.txt", "A subClassOf B\n"))
        assert to_json_dict(g)["edges"][0]["kind"] == "hierarchy"

    def test_terms_auto_created_with_label_equal_to_id(self, tmp_path):
        g = load_ontology(write(tmp_path, "g.txt", "A m B\n"))
        assert g.terms["A"].label == "A"


class TestLabelSet:
    """``adjacency`` maps each connected (source, target) pair to its label set."""

    def test_figure_left_single_edge(self, figure_left):
        assert figure_left.adjacency[("A", "B")] == {"m"}

    def test_no_edge_gives_empty_set(self, figure_left):
        assert ("B", "A") not in figure_left.adjacency

    def test_figure_right_chord_and_back_edge(self, figure_right):
        assert figure_right.adjacency[("D", "F")] == {"p"}
        assert figure_right.adjacency[("F", "D")] == {"o'"}

    def test_parallel_edges_with_distinct_labels(self):
        g = make_graph("AB", [("A", "B", "m"), ("A", "B", "n")])
        assert g.adjacency[("A", "B")] == {"m", "n"}

    def test_every_edge_label_is_in_its_label_set(self, fixture_graph):
        for e in fixture_graph.edges:
            assert e.label in fixture_graph.adjacency[(e.source, e.target)]

    def test_index_matches_linear_scan(self, fixture_graph):
        g = fixture_graph
        for x in g.terms:
            for y in g.terms:
                scanned = {
                    e.label for e in g.edges if e.source == x and e.target == y
                }
                assert g.adjacency.get((x, y), set()) == scanned


class TestGraphInvariants:
    def test_duplicate_parallel_edges_collapse(self):
        g = make_graph("AB", [("A", "B", "m"), ("A", "B", "m")])
        assert len(g.edges) == 1

    def test_empty_term_label_rejected(self):
        with pytest.raises(OntologyError):
            Term(id="A", label="")

    def test_empty_edge_label_rejected(self):
        with pytest.raises(OntologyError, match=r"^edge 'A' -> 'B': label must be non-empty$"):
            LabeledEdge("A", "B", "")

    def test_adjacency_rebuild_consistency(self, fixture_graph):
        rebuilt = {}
        for e in fixture_graph.edges:
            rebuilt.setdefault((e.source, e.target), set()).add(e.label)
        assert rebuilt == fixture_graph.adjacency


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["birds.json", "zoo.json", "forest.json"])
    def test_json_load_save_load_identity(self, tmp_path, name):
        g = load_ontology(DATA_DIR / name)
        out = tmp_path / "out.json"
        save_ontology(g, out)
        assert to_json_dict(load_ontology(out)) == to_json_dict(g)

    def test_triples_load_save_load_identity(self, tmp_path):
        g = load_ontology(DATA_DIR / "birds.txt")
        out = tmp_path / "out.txt"
        save_ontology(g, out)
        assert to_json_dict(load_ontology(out)) == to_json_dict(g)

    def test_triples_and_json_fixture_agree(self):
        t = load_ontology(DATA_DIR / "birds.txt")
        j = load_ontology(DATA_DIR / "birds.json")
        assert to_json_dict(t) == to_json_dict(j)

    def test_triples_cannot_hold_relabeled_terms(self, tmp_path):
        g = OntologyGraph(
            terms={"A": Term(id="A", label="alpha"), "B": Term(id="B", label="B")},
            edges=[LabeledEdge("A", "B", "m")],
        )
        with pytest.raises(OntologyError, match="label == id"):
            save_ontology(g, tmp_path / "out.txt")

    def test_triples_cannot_hold_whitespace_in_labels(self, tmp_path):
        g = make_graph(["A", "B"], [("A", "B", "has part")])
        with pytest.raises(OntologyError, match="whitespace"):
            save_ontology(g, tmp_path / "out.txt")
        assert not (tmp_path / "out.txt").exists()

    def test_saved_json_is_canonical(self, tmp_path, zoo):
        out = tmp_path / "zoo.json"
        save_ontology(zoo, out)
        doc = json.loads(out.read_text())
        assert [t["id"] for t in doc["terms"]] == sorted(t["id"] for t in doc["terms"])


ROUND_TRIP_EDGE_LABELS = ["subClassOf", "subClassOf", "isA", "partOf", "has part", "x#y"]


@st.composite
def ontology_docs(draw):
    """Ontology JSON with object and hierarchy edges (``kind`` given for
    ``subClassOf``), terms mostly labeled by their id."""
    ids = [f"t{i}" for i in range(draw(st.integers(1, 5)))]
    terms = [{"id": t, "label": draw(st.sampled_from([t, t, t, "Bird", "has part"]))}
             for t in ids]
    edges = []
    for s, t, label in draw(st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                      st.sampled_from(ROUND_TRIP_EDGE_LABELS)), max_size=8)):
        edges.append({"from": s, "to": t, "kind": "hierarchy"} if label == "subClassOf"
                     else {"from": s, "to": t, "label": label})
    return {"terms": terms, "edges": edges}


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(doc=ontology_docs(), mutation=st.sampled_from((None,) + MUTATIONS),
           seed=st.integers(0, 2**16))
    def test_saved_graph_loads_back_unchanged(self, doc, mutation, seed):
        """A loaded graph, or a ``synth_mutate`` mutant of it, saves and loads
        back unchanged: always as JSON, and as triples unless those refuse
        the graph before writing anything."""
        with tempfile.TemporaryDirectory() as tmp:
            source = Path(tmp) / "in.json"
            source.write_text(json.dumps(doc), encoding="utf-8")
            g = load_ontology(source)
            if mutation is not None:
                g, _ = synth_mutate(g, seed, mutation, rate=0.5)
            for path in (Path(tmp) / "g.json", Path(tmp) / "g.txt"):
                try:
                    save_ontology(g, path)
                except OntologyError:
                    assert path.suffix == ".txt" and not path.exists()
                    continue
                back = load_ontology(path)
                assert back.terms == g.terms
                assert {(e.source, e.target, e.label) for e in back.edges} == {
                    (e.source, e.target, e.label) for e in g.edges}
