"""Smoke-size self-test of the benchmark: every workload at tiny size, untraced
and traced, must print each metric BENCHMARK.json names with its unit and
pass its checks; a wrong pinned output must be reported as failed ops."""

import contextlib
import importlib
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def bench():
    """The benchmark module, imported the way run.py imports it."""
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    run.load_program()
    return importlib.import_module("bench")


def _run(bench, *args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert bench.main(["--smoke", "--seconds", "0", *args]) == 0
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(bench, workload, trace):
    lines, result = _run(bench, "--workload", workload, "--seed", "42",
                         "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert lines[0].startswith("env ")


# The tests below use traced runs: they start no set-up probe processes.

def test_other_seed_gets_seed_free_checks(bench):
    _, result = _run(bench, "--workload", "mc-closedform", "--seed", "7", "--trace", "1")
    assert result["correct"] and result["failed"] == 0


def test_wrong_pinned_outputs_fail(bench, tmp_path, monkeypatch):
    pinned = json.loads((HERE / "pinned.json").read_text())
    pinned["digests"]["run_plan(bernoulli/lr,n=100..300,reps=32)"] = "0" * 64
    pinned["intervals"]["smoke"][3][0] -= 1e-3
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(pinned))
    monkeypatch.setattr(bench, "PINNED", path)

    lines, result = _run(bench, "--workload", "table-levelset", "--seed", "42",
                         "--trace", "1")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("!= pinned" in line for line in lines)

    lines, result = _run(bench, "--workload", "monitor-online", "--seed", "42",
                         "--trace", "1")
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert any("differs from pinned" in line for line in lines)
