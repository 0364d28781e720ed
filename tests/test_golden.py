"""Byte-for-byte golden outputs of ``chainalign align`` and ``dump-chain``.

Each file under ``tests/data/golden`` is named ``<ont1>-<ont2>.<mode>.<norm>``
and holds what these commands printed for that fixture pair::

    chainalign align     tests/data/<ont1>.json tests/data/<ont2>.json --mode <mode> --norm <norm>
    chainalign dump-chain tests/data/<ont1>.json tests/data/<ont2>.json --mode <mode> --norm <norm>

(``.json`` and ``.csv`` respectively). Any change to a single bit of a
transition weight, a stationary score or the assignment shows up here.
"""
import itertools

import pytest

from chainalign.cli import execute

from conftest import DATA_DIR

GOLDEN_DIR = DATA_DIR / "golden"
PAIRS = [("birds", "zoo"), ("zoo", "forest"), ("zoo", "zoo"), ("forest", "forest")]
MODES = ["edge-confidence", "baseline-sf"]
NORMS = ["complement", "formula"]
COMMANDS = [("align", "json"), ("dump-chain", "csv")]

CASES = [
    pytest.param(pair, mode, norm, command, ext,
                 id=f"{command}-{pair[0]}-{pair[1]}-{mode}-{norm}")
    for pair, mode, norm, (command, ext) in itertools.product(PAIRS, MODES, NORMS, COMMANDS)
]


@pytest.mark.parametrize("pair,mode,norm,command,ext", CASES)
def test_output_matches_golden_bytes(tmp_path, pair, mode, norm, command, ext):
    out = tmp_path / f"out.{ext}"
    code = execute([command, str(DATA_DIR / f"{pair[0]}.json"), str(DATA_DIR / f"{pair[1]}.json"),
                    "--mode", mode, "--norm", norm, "-o", str(out)])
    assert code == 0
    golden = GOLDEN_DIR / f"{pair[0]}-{pair[1]}.{mode}.{norm}.{ext}"
    assert out.read_bytes() == golden.read_bytes()
