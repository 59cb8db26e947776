"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(argv, **kwargs):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, tiny=True, **kwargs)
    lines = buf.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, lines, result = _bench(["--workload", workload, "--seed", "0",
                                  "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    informational = run.INFORMATIONAL + (() if trace else run.RAW)
    shown = wanted + [{"name": n, "unit": u} for n, u in informational]
    for m in shown:
        if m["name"] in result["metrics"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines), m["name"]


def test_wrong_expected_count_is_reported_as_failure():
    expected = copy.deepcopy(workloads.EXPECTED)
    n_in, n_out, n_und = expected["scan-manyblocks"][8][1000]
    expected["scan-manyblocks"][8][1000] = (n_in + 1, n_out - 1, n_und)
    code, lines, result = _bench(["--workload", "scan-manyblocks", "--seed", "0",
                                  "--seconds", "0"], expected=expected)
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any("FAILED" in line for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-fewblocks",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
