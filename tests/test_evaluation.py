import csv
import io
import json
import random
import re
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainalign import pipeline
from chainalign.chain import SolverConfig, SolverError
from chainalign.evaluation import (
    CompareRow,
    ReferenceAlignment,
    UNDEFINED,
    compare,
    comparison_csv,
    evaluate,
    f_measure,
    load_reference,
    precision,
    recall,
    save_reference,
    synth_mutate,
)
from chainalign.lexical import LabelNorm, SimilarityConfig
from chainalign.ontology import load_ontology, to_json_dict

from benchcases import make_base_ontology, make_perturbation_case
from conftest import DATA_DIR, FIXTURE_FILES, labeled_graphs, make_graph, support

RETURNED = {("a", "a"), ("b", "b"), ("c", "c")}
VALID = {("a", "a"), ("b", "b"), ("d", "d"), ("e", "e")}


class TestMetrics:
    def test_precision_worked_example(self):
        assert precision(RETURNED, VALID) == 2 / 3

    def test_precision_perfect(self):
        assert precision(VALID, VALID) == 1.0

    def test_precision_disjoint(self):
        assert precision({("x", "x")}, VALID) == 0.0

    def test_precision_empty_returned_is_distinct_outcome(self):
        with pytest.raises(ValueError, match="no results"):
            precision(set(), VALID)

    def test_recall_worked_example(self):
        assert recall(RETURNED, VALID) == 1 / 2

    def test_recall_superset(self):
        assert recall(RETURNED | VALID, VALID) == 1.0

    def test_recall_disjoint(self):
        assert recall({("x", "x")}, VALID) == 0.0

    def test_recall_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty reference"):
            recall(RETURNED, set())

    def test_f_measure_worked_example(self):
        assert f_measure(2 / 3, 1 / 2) == pytest.approx(4 / 7, abs=1e-15)

    def test_f_measure_perfect(self):
        assert f_measure(1.0, 1.0) == 1.0

    def test_f_measure_zero_by_convention(self):
        assert f_measure(0.0, 0.0) == 0.0

    def test_f_measure_range_check(self):
        with pytest.raises(ValueError):
            f_measure(1.2, 0.5)

    def test_f_between_min_and_arithmetic_mean(self):
        # the harmonic mean sits between min(p, r) and the arithmetic mean
        rng = random.Random(17)
        for _ in range(200):
            p, r = rng.random(), rng.random()
            f = f_measure(p, r)
            assert f <= (p + r) / 2 + 1e-12
            assert f <= 1.0
            assert f >= min(p, r) - 1e-12

    def test_adding_a_correct_pair_never_decreases_recall(self):
        rng = random.Random(18)
        for _ in range(100):
            universe = [(f"t{i}", f"t{i}") for i in range(12)]
            valid = set(rng.sample(universe, rng.randint(1, 10)))
            returned = set(rng.sample(universe, rng.randint(0, 10)))
            missing = valid - returned
            if not missing:
                continue
            before = recall(returned, valid) if returned else 0.0
            after = recall(returned | {missing.pop()}, valid)
            assert after >= before


class TestEvaluate:
    def test_counts_and_metrics_consistent(self):
        report = evaluate(RETURNED, VALID)
        assert (report.returned, report.valid, report.correct) == (3, 4, 2)
        assert report.precision == report.correct / report.returned
        assert report.recall == report.correct / report.valid
        assert report.correct <= min(report.returned, report.valid)

    def test_empty_returned_maps_to_none(self):
        report = evaluate(set(), VALID)
        assert report.precision is None
        assert report.f_measure is None
        assert report.recall == 0.0

    def test_empty_reference_maps_to_none(self):
        report = evaluate(RETURNED, set())
        assert report.recall is None
        assert report.f_measure is None


class TestCompare:
    def test_identical_ontologies_score_perfectly_in_both_modes(self, zoo):
        reference = ReferenceAlignment(frozenset((t, t) for t in zoo.terms))
        rows = compare(zoo, zoo, reference, case="self")
        assert len(rows) == 2
        assert {r.mode for r in rows} == {"baseline-sf", "edge-confidence"}
        for row in rows:
            assert row.report.precision == 1.0
            assert row.report.recall == 1.0
            assert row.report.f_measure == 1.0

    def test_label_perturbation_favors_edge_confidence_recall(self):
        base, mutant, reference = make_perturbation_case(0)
        rows = compare(base, mutant, reference, case="perturbed")
        by_mode = {r.mode: r.report for r in rows}
        assert by_mode["edge-confidence"].recall >= by_mode["baseline-sf"].recall

    def test_degenerate_inputs_do_not_crash(self):
        g1 = make_graph(["qq"], [])
        g2 = make_graph(["zz"], [])
        rows = compare(g1, g2, ReferenceAlignment(frozenset()), case="degenerate")
        csv = comparison_csv(rows)
        assert UNDEFINED in csv  # recall undefined against the empty reference

    def test_reference_naming_unknown_terms_rejected(self, zoo):
        reference = ReferenceAlignment(frozenset({("lion", "unicorn")}))
        with pytest.raises(ValueError, match="absent"):
            compare(zoo, zoo, reference)

    def test_deterministic_given_fixed_inputs(self):
        base, mutant, reference = make_perturbation_case(3)
        first = comparison_csv(compare(base, mutant, reference, case="x"))
        second = comparison_csv(compare(base, mutant, reference, case="x"))
        assert first == second

    def test_csv_shape(self, zoo):
        reference = ReferenceAlignment(frozenset((t, t) for t in zoo.terms))
        csv = comparison_csv(compare(zoo, zoo, reference, case="self"))
        lines = csv.strip().split("\n")
        assert lines[0] == (
            "case,mode,precision,recall,f_measure,returned,valid,correct,"
            "iterations,converged"
        )
        assert len(lines) == 3
        assert lines[1].startswith("self,baseline-sf,1.000000,1.000000,1.000000,")

    def test_csv_quotes_a_case_label_that_needs_it(self, zoo):
        reference = ReferenceAlignment(frozenset((t, t) for t in zoo.terms))
        text = comparison_csv(compare(zoo, zoo, reference, case='a,"b'))
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert [(r[0], len(r)) for r in rows[1:]] == [('a,"b', 10)] * 2
        assert text.splitlines()[1].startswith('"a,""b",baseline-sf,1.000000,')

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet='ab ,"\r\n\x00\ud800', max_size=6))
    def test_every_accepted_case_label_reads_back(self, label):
        rows = [CompareRow(label, mode, evaluate({("a", "a")}, {("a", "a")}), 3, True)
                for mode in ("baseline-sf", "edge-confidence")]
        if "\r" in label:
            with pytest.raises(ValueError, match="carriage return"):
                comparison_csv(rows)
            return
        text = comparison_csv(rows)
        read = list(csv.reader(io.StringIO(text, newline="")))
        assert [(r[0], r[1], len(r)) for r in read[1:]] == [
            (label, "baseline-sf", 10), (label, "edge-confidence", 10)]

    def test_end_to_end_support_subset(self):
        from chainalign.chain import build_upmc, exact_matches

        for case in range(5):
            base, mutant, _ = make_perturbation_case(case)
            ec = build_upmc(base, mutant, SimilarityConfig())
            sf = exact_matches(ec)
            assert support(sf) <= support(ec)
            assert support(sf) == support(build_upmc(base, mutant, SimilarityConfig(gamma=1.0)))


def separate_rows(g1, g2, reference, sim_cfg, solver_cfg):
    """(mode, F, returned, correct, iterations, converged) from one
    standalone align call per mode, or the SolverError message."""
    rows = []
    for mode in ("baseline-sf", "edge-confidence"):
        try:
            alignment, result = pipeline.align(g1, g2, sim_cfg, replace(solver_cfg, chain_mode=mode))
        except SolverError as exc:
            return str(exc)
        report = evaluate(alignment.pairs(), reference.pairs)
        rows.append((mode, report.f_measure, report.returned, report.correct,
                     result.iterations, result.converged))
    return rows


def compared_rows(g1, g2, reference, sim_cfg, solver_cfg):
    try:
        rows = compare(g1, g2, reference, sim_cfg, solver_cfg)
    except SolverError as exc:
        return str(exc)
    return [(r.mode, r.report.f_measure, r.report.returned, r.report.correct,
             r.iterations, r.converged) for r in rows]


class TestCompareSharesOneBuild:
    """compare builds the edge-confidence raw chain and pi0 once per call;
    its rows must equal one standalone align call per mode."""

    @pytest.mark.parametrize("method", ["iterative", "steady-state"])
    @pytest.mark.parametrize("name", FIXTURE_FILES)
    def test_rows_equal_separate_align_calls_on_fixtures(self, name, method):
        base = load_ontology(DATA_DIR / name)
        solver = SolverConfig(method=method)
        cases = [(base, *synth_mutate(base, 7, kind)) for kind in ("label-edit", "edge-drop")]
        cases.append(make_perturbation_case(2))
        for g1, g2, reference in cases:
            for sim in (SimilarityConfig(), SimilarityConfig(gamma=0.76)):
                expected = separate_rows(g1, g2, reference, sim, solver)
                assert compared_rows(g1, g2, reference, sim, solver) == expected

    @settings(max_examples=60, deadline=None)
    @given(labeled_graphs(), labeled_graphs(), st.sampled_from([0.0, 0.5, 1.0]),
           st.sampled_from(list(LabelNorm)), st.sampled_from(["iterative", "steady-state"]))
    def test_rows_equal_separate_align_calls_on_generated_graphs(self, g1, g2, gamma, norm,
                                                                 method):
        reference = ReferenceAlignment(frozenset((t, t) for t in g1.terms if t in g2.terms))
        sim = SimilarityConfig(gamma=gamma, label_normalization=norm)
        solver = SolverConfig(method=method)
        assert compared_rows(g1, g2, reference, sim, solver) == separate_rows(
            g1, g2, reference, sim, solver)

    @pytest.mark.parametrize("method, pi0_builds", [("iterative", 1), ("steady-state", 0)])
    def test_one_raw_build_and_one_pi0_per_call(self, birds, method, pi0_builds):
        base, mutant, reference = birds, *synth_mutate(birds, 7, "label-edit")
        with mock.patch.object(pipeline, "build_upmc", wraps=pipeline.build_upmc) as build, \
                mock.patch.object(pipeline, "initial_distribution",
                                  wraps=pipeline.initial_distribution) as start, \
                mock.patch("chainalign.evaluation.align", wraps=pipeline.align) as aligned:
            compare(base, mutant, reference, solver_cfg=SolverConfig(method=method))
        assert build.call_count == 1
        assert start.call_count == pi0_builds
        assert [c.args[3].chain_mode for c in aligned.call_args_list] == [
            "baseline-sf", "edge-confidence"]


class TestSynthMutate:
    def test_label_case_preserves_structure(self, zoo):
        mutant, reference = synth_mutate(zoo, 7, "label-case")
        assert set(mutant.terms) == set(zoo.terms)
        assert mutant.terms["lion"].label == "LION"
        assert {(e.source, e.target) for e in mutant.edges} == {
            (e.source, e.target) for e in zoo.edges
        }
        assert reference.pairs == frozenset((t, t) for t in zoo.terms)

    def test_edge_drop_rate_zero_is_identity(self, zoo):
        mutant, _ = synth_mutate(zoo, 7, "edge-drop", rate=0.0)
        assert to_json_dict(mutant) == to_json_dict(zoo)

    def test_edge_drop_rate_one_removes_everything(self, zoo):
        mutant, _ = synth_mutate(zoo, 7, "edge-drop", rate=1.0)
        assert mutant.edges == []

    def test_label_edit_changes_every_edge_label(self, zoo):
        mutant, _ = synth_mutate(zoo, 7, "label-edit")
        originals = sorted(e.label for e in zoo.edges)
        mutated = sorted(e.label for e in mutant.edges)
        assert originals != mutated
        for e in mutant.edges:
            assert e.label  # never emptied

    def test_label_edit_moves_labels_at_most_two_edits(self, zoo):
        from chainalign.lexical import levenshtein

        mutant, _ = synth_mutate(zoo, 11, "label-edit")
        base_edges = {(e.source, e.target): e.label for e in zoo.edges}
        for e in mutant.edges:
            dist = levenshtein(base_edges[(e.source, e.target)], e.label)
            assert 1 <= dist <= 2

    def test_label_scramble_keeps_ids(self, zoo):
        mutant, _ = synth_mutate(zoo, 7, "label-scramble")
        assert set(mutant.terms) == set(zoo.terms)
        assert sorted(mutant.terms["tiger"].label) == sorted("tiger")

    def test_seeded_runs_are_byte_identical(self, zoo, tmp_path):
        from chainalign.ontology import save_ontology

        paths = []
        for i in range(2):
            mutant, _ = synth_mutate(zoo, 42, "label-edit")
            path = tmp_path / f"m{i}.json"
            save_ontology(mutant, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_golden_label_edit_seed_42(self, zoo):
        # frozen once from the seeded generator; guards the RNG discipline
        mutant, _ = synth_mutate(zoo, 42, "label-edit")
        labels = sorted(e.label for e in mutant.edges)
        assert labels == GOLDEN_ZOO_SEED42

    def test_unknown_mutation_rejected(self, zoo):
        with pytest.raises(ValueError, match="unknown mutation"):
            synth_mutate(zoo, 7, "label-reverse")

    def test_rate_out_of_range_rejected(self, zoo):
        with pytest.raises(ValueError, match="rate"):
            synth_mutate(zoo, 7, "edge-drop", rate=1.5)

    def test_empty_ontology_rejected(self):
        with pytest.raises(ValueError, match="^cannot mutate an empty ontology$"):
            synth_mutate(make_graph("", []), 7, "label-edit")


class TestReferenceIO:
    def test_tsv_round_trip(self, tmp_path):
        reference = ReferenceAlignment(frozenset({("a", "x"), ("b", "y")}))
        path = tmp_path / "ref.tsv"
        save_reference(reference, path)
        assert path.read_text() == "a\tx\nb\ty\n"
        assert load_reference(path) == reference
        assert len(reference) == 2

    @pytest.mark.parametrize("pair, bad", [
        (("p q", "r\tq"), "r\tq"), (("#tag", "x"), "#tag"), (("a", " x"), " x"),
        (("a\rb", "x"), "a\rb"), (("a", "x\x85"), "x\x85"), (("", "x"), ""),
    ])
    def test_tsv_refuses_an_id_it_would_not_read_back(self, tmp_path, pair, bad):
        reference = ReferenceAlignment(frozenset({pair, ("b", "y")}))
        path = tmp_path / "ref.tsv"
        with pytest.raises(ValueError, match=re.escape(f"the id {bad!r}; use a .json path")):
            save_reference(reference, path)
        assert not path.exists()
        save_reference(reference, tmp_path / "ref.json")
        assert load_reference(tmp_path / "ref.json") == reference

    def test_tsv_round_trips_inner_spaces_and_a_hash_target(self, tmp_path):
        reference = ReferenceAlignment(frozenset({("p q", "#tag")}))
        path = tmp_path / "ref.tsv"
        save_reference(reference, path)
        assert load_reference(path) == reference

    def test_json_round_trip(self, tmp_path):
        reference = ReferenceAlignment(frozenset({("a", "x"), ("b", "y")}))
        path = tmp_path / "ref.json"
        save_reference(reference, path)
        assert {c["confidence"] for c in json.loads(path.read_text())["correspondences"]} == {1.0}
        assert load_reference(path) == reference

    def test_three_column_tsv_ignores_confidence(self, tmp_path):
        path = tmp_path / "ref.tsv"
        path.write_text("a\tx\t0.9\n", encoding="utf-8")
        assert load_reference(path).pairs == frozenset({("a", "x")})

    def test_alignment_json_accepted(self, tmp_path):
        path = tmp_path / "ref.json"
        path.write_text(
            '{"correspondences": [{"source": "a", "target": "x", "confidence": 0.4}]}',
            encoding="utf-8",
        )
        assert load_reference(path).pairs == frozenset({("a", "x")})

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ref.tsv"
        path.write_text("# source\ttarget\n\na\tx\n  \n#b\ty\n", encoding="utf-8")
        assert load_reference(path).pairs == frozenset({("a", "x")})

    def test_malformed_line_reported(self, tmp_path):
        path = tmp_path / "ref.tsv"
        path.write_text("a x no tabs here\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_reference(path)


# captured once from the seeded generator and frozen
GOLDEN_ZOO_SEED42 = [
    "cqfeeds", "eesds", "feedsi", "feels", "fxeds", "fxeeds", "teed",
]


def test_benchmark_base_is_deterministic():
    a = to_json_dict(make_base_ontology(5))
    b = to_json_dict(make_base_ontology(5))
    assert a == b
