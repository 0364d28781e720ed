import json
import re

import pytest

from chainalign.chain import SolverConfig
from chainalign.cli import RunConfig, build_parser, execute, resolve_config
from chainalign.evaluation import load_reference, synth_mutate
from chainalign.lexical import SimilarityConfig
from chainalign.matching import load_alignment
from chainalign.ontology import load_ontology, to_json_dict

from conftest import DATA_DIR

BIRDS = str(DATA_DIR / "birds.json")
ZOO = str(DATA_DIR / "zoo.json")


def run(capsys, *argv):
    code = execute(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# one valid value per run flag, and the run flags each subcommand takes
FLAG_VALUES = {
    "--gamma": "0.5", "--label-norm": "fold", "--mode": "edge-confidence",
    "--norm": "complement", "--epsilon": "1e-9", "--max-iters": "10", "--damping": "0.85",
    "--method": "iterative", "--min-confidence": "0", "--seed": "1",
}
CHAIN_FLAGS = {"--gamma", "--label-norm", "--norm"}
SOLVE_FLAGS = {"--epsilon", "--max-iters", "--damping", "--method", "--min-confidence"}
RUN_FLAGS_TAKEN = {
    "align": CHAIN_FLAGS | {"--mode"} | SOLVE_FLAGS,
    "compare": CHAIN_FLAGS | SOLVE_FLAGS | {"--seed"},
    "dump-chain": CHAIN_FLAGS | {"--mode"},
    "bench-gen": {"--seed"},
}
# flags no subcommand takes any more, with a value they once took
REMOVED_FLAG_VALUES = {"--format": "tsv"}
RUN_FLAGS_NOT_TAKEN = [
    (command, flag)
    for command, taken in RUN_FLAGS_TAKEN.items()
    for flag in FLAG_VALUES | REMOVED_FLAG_VALUES
    if flag not in taken
]


def write_identity_reference(tmp_path, graph_path):
    doc = json.loads((DATA_DIR / graph_path).read_text())
    ref = tmp_path / "ref.tsv"
    ref.write_text(
        "".join(f"{t['id']}\t{t['id']}\n" for t in doc["terms"]), encoding="utf-8"
    )
    return str(ref)


class TestAlign:
    def test_json_output_on_stdout(self, capsys):
        code, out, _ = run(capsys, "align", BIRDS, BIRDS,
                           "--gamma", "0.5", "--method", "steady-state",
                           "--norm", "complement")
        assert code == 0
        doc = json.loads(out)
        pairs = {(c["source"], c["target"]) for c in doc["correspondences"]}
        assert pairs == {("finch", "finch"), ("heron", "heron"), ("osprey", "osprey")}

    def test_tsv_output(self, capsys, tmp_path):
        out_path = tmp_path / "out.tsv"
        code, out, _ = run(capsys, "align", BIRDS, BIRDS, "-o", str(out_path))
        assert code == 0
        assert out == ""
        lines = [l for l in out_path.read_text().splitlines() if l]
        assert len(lines) == 3
        assert all(len(l.split("\t")) == 3 for l in lines)

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "align", BIRDS, "missing.json")
        assert code == 2
        assert "missing.json" in err

    def test_triples_input_accepted(self, capsys):
        code, out, _ = run(capsys, "align", str(DATA_DIR / "birds.txt"), BIRDS)
        assert code == 0
        assert json.loads(out)["correspondences"]

    def test_unconverged_solve_warns_and_exits_0(self, capsys):
        # birds x zoo share no edge label, so its chain is the identity and
        # converges in one step; zoo x zoo needs dozens of iterations
        code, out, err = run(capsys, "align", ZOO, ZOO, "--max-iters", "1")
        assert code == 0
        assert json.loads(out)["metadata"]["converged"] is False
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("chainalign: warning: ")
        assert "1 iterations" in lines[0]
        assert "--max-iters" in lines[0] and "--epsilon" in lines[0]

    @pytest.mark.parametrize("pair", [(BIRDS, ZOO), (ZOO, ZOO)])
    def test_default_run_prints_nothing_on_stderr(self, capsys, pair):
        code, _, err = run(capsys, "align", *pair)
        assert code == 0
        assert err == ""

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "alignment.json"
        code, _, _ = run(capsys, "align", BIRDS, BIRDS, "-o", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["correspondences"]

    @pytest.mark.parametrize("name", ["out.json", "out.tsv", "out.txt"])
    def test_output_file_reads_back_as_written(self, capsys, tmp_path, name):
        code, out, _ = run(capsys, "align", ZOO, ZOO)
        assert code == 0
        listed = [(c["source"], c["target"], c["confidence"])
                  for c in json.loads(out)["correspondences"]]
        out_path = tmp_path / name
        assert execute(["align", ZOO, ZOO, "-o", str(out_path)]) == 0
        assert [(c.source, c.target, c.confidence)
                for c in load_alignment(out_path).correspondences] == listed
        code, out, _ = run(capsys, "eval", str(out_path),
                           write_identity_reference(tmp_path, "zoo.json"))
        assert code == 0
        assert out.startswith("precision=1.000000 recall=1.000000 f=1.000000")


class TestEval:
    def test_single_line_report(self, capsys, tmp_path):
        out_path = tmp_path / "alignment.json"
        assert execute(["align", ZOO, ZOO, "-o", str(out_path)]) == 0
        capsys.readouterr()
        ref = write_identity_reference(tmp_path, "zoo.json")
        code, out, _ = run(capsys, "eval", str(out_path), ref)
        assert code == 0
        assert out.startswith("precision=1.000000 recall=1.000000 f=1.000000")

    def test_partial_overlap(self, capsys, tmp_path):
        alignment = tmp_path / "alignment.tsv"
        alignment.write_text("lion\tlion\t1.0\nbear\twolf\t0.5\n", encoding="utf-8")
        ref = write_identity_reference(tmp_path, "zoo.json")
        code, out, _ = run(capsys, "eval", str(alignment), ref)
        assert code == 0
        assert "precision=0.500000" in out
        assert "recall=0.250000" in out

    def test_missing_reference_exits_2(self, capsys, tmp_path):
        alignment = tmp_path / "alignment.tsv"
        alignment.write_text("a\tb\t1.0\n", encoding="utf-8")
        code, _, err = run(capsys, "eval", str(alignment), "no-such.tsv")
        assert code == 2
        assert "no-such.tsv" in err


class TestCompare:
    def test_csv_written(self, capsys, tmp_path):
        ref = write_identity_reference(tmp_path, "zoo.json")
        out_path = tmp_path / "cmp.csv"
        code, _, _ = run(capsys, "compare", ZOO, ZOO, ref, "-o", str(out_path),
                         "--case", "self")
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("self,baseline-sf,")
        assert lines[2].startswith("self,edge-confidence,")

    def test_one_warning_per_unconverged_solve(self, capsys, tmp_path):
        ref = write_identity_reference(tmp_path, "zoo.json")
        code, _, err = run(capsys, "compare", ZOO, ZOO, ref, "--max-iters", "1")
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 2
        assert all(l.startswith("chainalign: warning: ") for l in lines)
        assert "baseline-sf" in lines[0] and "edge-confidence" in lines[1]

    def test_byte_identical_between_runs(self, capsys, tmp_path):
        ref = write_identity_reference(tmp_path, "zoo.json")
        outs = []
        for i in range(2):
            path = tmp_path / f"cmp{i}.csv"
            code, _, _ = run(capsys, "compare", ZOO, ZOO, ref,
                             "-o", str(path), "--seed", "9")
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestBenchGen:
    def test_writes_mutant_and_reference(self, capsys, tmp_path):
        out_ont = tmp_path / "mut.json"
        out_ref = tmp_path / "ref.tsv"
        code, _, _ = run(capsys, "bench-gen", ZOO, "--mutation", "label-edit",
                         "--seed", "42", "--out-ontology", str(out_ont),
                         "--out-reference", str(out_ref))
        assert code == 0
        doc = json.loads(out_ont.read_text())
        assert {t["id"] for t in doc["terms"]} == {"lion", "tiger", "bear", "wolf"}
        assert len(out_ref.read_text().splitlines()) == 4

    def test_deterministic_for_fixed_seed(self, capsys, tmp_path):
        blobs = []
        for i in range(2):
            out_ont = tmp_path / f"mut{i}.json"
            out_ref = tmp_path / f"ref{i}.tsv"
            code, _, _ = run(capsys, "bench-gen", ZOO, "--mutation", "label-edit",
                             "--seed", "7", "--out-ontology", str(out_ont),
                             "--out-reference", str(out_ref))
            assert code == 0
            blobs.append(out_ont.read_bytes() + out_ref.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("ref_name", ["r.tsv", "r.json"])
    @pytest.mark.parametrize("ont_name", ["m.json", "m.txt"])
    def test_outputs_read_back_as_written(self, capsys, tmp_path, ont_name, ref_name):
        # label-edit also edits subClassOf labels; the mutant on disk must be
        # the library's mutant, whatever the format
        source = tmp_path / "taxonomy.txt"
        source.write_text("cat subClassOf mammal\ndog subClassOf mammal\n"
                          "mammal subClassOf animal\ndog chases cat\n", encoding="utf-8")
        out_ont, out_ref = tmp_path / ont_name, tmp_path / ref_name
        code, _, _ = run(capsys, "bench-gen", str(source), "--mutation", "label-edit",
                         "--seed", "3", "--out-ontology", str(out_ont),
                         "--out-reference", str(out_ref))
        assert code == 0
        mutant, reference = synth_mutate(load_ontology(source), 3, "label-edit")
        assert to_json_dict(load_ontology(out_ont)) == to_json_dict(mutant)
        assert load_reference(out_ref) == reference
        code, out, _ = run(capsys, "compare", str(source), str(out_ont), str(out_ref))
        assert code == 0
        assert len(out.splitlines()) == 3
        code, out, _ = run(capsys, "align", str(source), str(out_ont))
        assert code == 0
        assert json.loads(out)["correspondences"]

    def test_mutant_triples_cannot_hold_exits_2_and_writes_nothing(self, capsys, tmp_path):
        out_ont, out_ref = tmp_path / "m.txt", tmp_path / "r.tsv"
        code, out, err = run(capsys, "bench-gen", ZOO, "--mutation", "label-scramble",
                             "--out-ontology", str(out_ont), "--out-reference", str(out_ref))
        assert code == 2
        assert out == ""
        assert "triples format forces label == id" in err
        assert list(tmp_path.iterdir()) == []


class TestDumpChain:
    def test_triplet_csv(self, capsys):
        code, out, _ = run(capsys, "dump-chain", BIRDS, ZOO)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "row,col,weight"
        row, col, weight = lines[1].split(",")
        assert row.isdigit() and col.isdigit()
        assert float(weight) > 0


class TestSolverFailure:
    def test_reducible_chain_under_steady_state_exits_3(self, capsys, tmp_path):
        # a pure cycle paired with itself splits into offset classes, so
        # the direct solve has no unique stationary distribution
        cycle = tmp_path / "cycle.txt"
        cycle.write_text("A next B\nB next C\nC next A\n", encoding="utf-8")
        code, _, err = run(capsys, "align", str(cycle), str(cycle),
                           "--method", "steady-state")
        assert code == 3
        assert "several closed classes" in err
        assert "3 found" in err
        assert "--method iterative" in err

    def test_same_input_succeeds_with_iterative_solver(self, capsys, tmp_path):
        cycle = tmp_path / "cycle.txt"
        cycle.write_text("A next B\nB next C\nC next A\n", encoding="utf-8")
        code, out, _ = run(capsys, "align", str(cycle), str(cycle))
        assert code == 0
        assert json.loads(out)["correspondences"]


class TestUsageAndConfig:
    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_arguments_exit_1(self, capsys):
        code, _, _ = run(capsys, "align", BIRDS)
        assert code == 1

    def test_flag_defaults_match_library_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["align", "a", "b"])
        cfg = resolve_config(args)
        sim = SimilarityConfig()
        solver = SolverConfig()
        assert cfg.sim_config() == sim
        assert cfg.solver_config() == solver
        assert cfg.min_confidence == 0.0
        assert RunConfig() == cfg

    def test_config_file_fills_unset_flags(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text('{"gamma": 0.75, "method": "steady-state"}', encoding="utf-8")
        parser = build_parser()
        args = parser.parse_args(["align", "a", "b", "--config", str(config)])
        cfg = resolve_config(args)
        assert cfg.gamma == 0.75
        assert cfg.method == "steady-state"

    def test_explicit_flags_override_config_file(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text('{"gamma": 0.75}', encoding="utf-8")
        parser = build_parser()
        args = parser.parse_args(
            ["align", "a", "b", "--config", str(config), "--gamma", "0.25"]
        )
        assert resolve_config(args).gamma == 0.25

    def test_unknown_config_keys_rejected(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text('{"gama": 0.75}', encoding="utf-8")
        code, _, err = run(capsys, "align", BIRDS, BIRDS, "--config", str(config))
        assert code == 2
        assert "gama" in err

    @pytest.mark.parametrize("command, flag", RUN_FLAGS_NOT_TAKEN)
    def test_run_flag_the_subcommand_does_not_read_exits_1(self, capsys, tmp_path, command, flag):
        if command == "bench-gen":
            inputs = [ZOO, "--mutation", "label-edit", "--out-ontology", str(tmp_path / "m.json"),
                      "--out-reference", str(tmp_path / "r.tsv")]
        elif command == "compare":
            inputs = [ZOO, ZOO, write_identity_reference(tmp_path, "zoo.json")]
        else:
            inputs = [BIRDS, ZOO]
        code, out, err = run(capsys, command, *inputs, flag,
                             (FLAG_VALUES | REMOVED_FLAG_VALUES)[flag])
        assert code == 1
        assert out == ""
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("command", list(RUN_FLAGS_TAKEN))
    def test_help_lists_exactly_the_flags_taken(self, capsys, command):
        own = {
            "align": {"--output"},
            "compare": {"--output", "--case"},
            "dump-chain": {"--output"},
            "bench-gen": {"--mutation", "--rate", "--out-ontology", "--out-reference"},
        }
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", out))
        assert listed == {"--help", "--config"} | own[command] | RUN_FLAGS_TAKEN[command]

    @pytest.mark.parametrize("command, key, value", [
        ("dump-chain", "method", "steady-state"),
        ("dump-chain", "min_confidence", 0.5),
        ("dump-chain", "format", "tsv"),
        ("bench-gen", "gamma", 0.5),
        ("compare", "format", "tsv"),
        ("compare", "mode", "baseline-sf"),
        ("align", "seed", 1),
        ("align", "format", "xml"),
    ])
    def test_config_key_the_subcommand_does_not_read_exits_2_before_any_input_is_read(
        self, capsys, tmp_path, command, key, value
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        missing = str(tmp_path / "missing.json")
        inputs = {
            "align": [missing, missing],
            "compare": [missing, missing, missing],
            "dump-chain": [missing, missing],
            "bench-gen": [missing, "--mutation", "label-edit"],
        }[command]
        code, out, err = run(capsys, command, *inputs, "--config", str(config))
        assert code == 2
        assert out == ""
        assert f"{command} does not take {key}" in err
        assert "missing.json" not in err

    def test_invalid_flag_value_exits_2(self, capsys):
        code, _, err = run(capsys, "align", BIRDS, BIRDS, "--gamma", "1.5")
        assert code == 2
        assert "gamma" in err


class TestMalformedInputs:
    """Malformed inputs are data errors: exit 2 with the file named, no traceback."""

    def test_alignment_json_that_is_not_an_object_exits_2(self, capsys, tmp_path):
        alignment = tmp_path / "alignment.json"
        alignment.write_text("[1, 2]", encoding="utf-8")
        ref = write_identity_reference(tmp_path, "zoo.json")
        code, _, err = run(capsys, "eval", str(alignment), ref)
        assert code == 2
        assert "alignment.json" in err

    @pytest.mark.parametrize("doc", ['{"terms": 5}', '{"terms": [{"id": "A"}], "edges": {}}'])
    def test_ontology_with_non_list_terms_or_edges_exits_2(self, capsys, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc, encoding="utf-8")
        code, _, err = run(capsys, "align", BIRDS, str(bad))
        assert code == 2
        assert "bad.json" in err

    @pytest.mark.parametrize("command", ["align", "bench-gen"])
    def test_non_string_edge_label_exits_2(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_text('{"terms": [{"id": "A"}, {"id": "B"}],'
                       ' "edges": [{"from": "A", "to": "B", "label": 5}]}', encoding="utf-8")
        if command == "align":
            inputs = [str(bad), str(bad)]
        else:
            inputs = [str(bad), "--mutation", "label-edit",
                      "--out-ontology", str(tmp_path / "m.json"),
                      "--out-reference", str(tmp_path / "r.tsv")]
        code, out, err = run(capsys, command, *inputs)
        assert code == 2
        assert out == ""
        assert "bad.json: edge #0: 'label' must be a JSON string" in err

    def test_directory_as_input_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "align", BIRDS, str(tmp_path))
        assert code == 2
        assert str(tmp_path) in err

    def test_nan_epsilon_exits_2(self, capsys):
        code, _, err = run(capsys, "align", BIRDS, BIRDS, "--epsilon", "nan")
        assert code == 2
        assert "epsilon" in err

    def test_zero_damping_exits_2(self, capsys):
        code, out, err = run(capsys, "align", BIRDS, BIRDS, "--damping", "0")
        assert code == 2
        assert out == ""
        assert "damping_a must lie in (0, 1], got 0.0" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5", "7"])
    def test_min_confidence_outside_unit_interval_exits_2(self, capsys, value):
        code, out, err = run(capsys, "align", BIRDS, BIRDS, "--min-confidence", value)
        assert code == 2
        assert out == ""
        assert "min_confidence" in err

    @pytest.mark.parametrize("command, key, value", [
        ("align", "gamma", "0.5"),
        ("align", "damping", "0.5"),
        ("align", "max_iters", 2.5),
        ("align", "min_confidence", "0.5"),
        ("align", "min_confidence", 7),
        ("bench-gen", "seed", [1]),
    ])
    def test_bad_config_value_exits_2_before_any_input_is_read(
        self, capsys, tmp_path, command, key, value
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        missing = str(tmp_path / "missing.json")
        inputs = [missing, missing] if command == "align" else [missing, "--mutation", "label-edit"]
        code, out, err = run(capsys, command, *inputs, "--config", str(config))
        assert code == 2
        assert out == ""
        assert key in err
        assert "missing.json" not in err

    @pytest.mark.parametrize("text, message", [
        (None, "No such file"),
        ("{gamma: 0.5}", "Expecting property name"),
        ("[0.5]", "expected a JSON object"),
    ], ids=["missing", "not-json", "not-an-object"])
    def test_unusable_config_file_exits_2_before_any_input_is_read(
        self, capsys, tmp_path, text, message
    ):
        config = tmp_path / "cfg.json"
        if text is not None:
            config.write_text(text, encoding="utf-8")
        missing = str(tmp_path / "missing.json")
        code, out, err = run(capsys, "align", missing, missing, "--config", str(config))
        assert code == 2
        assert out == ""
        assert f"config file {config}: " in err and message in err
        assert "missing.json" not in err

    def test_directory_as_output_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "align", BIRDS, BIRDS, "-o", str(tmp_path))
        assert code == 2
        assert out == ""
        assert str(tmp_path) in err

    @pytest.mark.parametrize("bad", ["directory", "missing-parent"])
    @pytest.mark.parametrize("command", ["align", "compare", "dump-chain", "bench-gen"])
    def test_unusable_output_exits_2_before_any_input_is_read(
            self, capsys, tmp_path, command, bad):
        missing = str(tmp_path / "missing.json")
        output = str(tmp_path if bad == "directory" else tmp_path / "nowhere" / "out.txt")
        argv = {
            "align": ["align", missing, missing, "-o", output],
            "compare": ["compare", missing, missing, missing, "-o", output],
            "dump-chain": ["dump-chain", missing, missing, "-o", output],
            # the mutant's path is fine; only the reference's is not
            "bench-gen": ["bench-gen", ZOO, "--mutation", "label-edit",
                          "--out-ontology", str(tmp_path / "mutant.json"),
                          "--out-reference", output],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert output in err
        assert "missing.json" not in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("ids", ['null, "target": 5', '"A", "target": ["D"]'])
    def test_alignment_with_non_string_ids_exits_2(self, capsys, tmp_path, ids):
        alignment = tmp_path / "alignment.json"
        alignment.write_text('{"correspondences": [{"source": %s, "confidence": 1}]}' % ids,
                             encoding="utf-8")
        ref = tmp_path / "ref.tsv"
        ref.write_text("None\t5\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", str(alignment), str(ref))
        assert code == 2
        assert out == ""
        assert "alignment.json: correspondence #0" in err
