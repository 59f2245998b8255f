"""Tests of the benchmark itself: python -m pytest perfbench -q

They cover the output contract (every metric named in BENCHMARK.json, with
its unit), the checker (forged witnesses, perturbed polar factors and broken
command-line output must count as failures) and input determinism.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import check  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8").read())


def digest(workload, seed):
    return hashlib.sha256(json.dumps(inputs.pool_for(workload, seed), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("workload", inputs.POOLS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert digest(workload, 7) == digest(workload, 7)
    assert digest(workload, 7) != digest(workload, 8)


def test_per_layer_table_matches_benchmark_json():
    assert BENCH["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b, _ in spans.PER_LAYER]
    assert [w["name"] for w in BENCH["workloads"]] == list(inputs.POOLS)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", inputs.POOLS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    res = _run(workload, trace)
    assert res.returncode == 0, res.stderr[-3000:]
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} = ") and f" {m['unit']} (" in line for line in lines)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = _run("maps", 0, cwd=str(tmp_path))
    assert res.returncode != 0
    assert not any(line.startswith("{") for line in res.stdout.splitlines())


# --- checker self-tests ----------------------------------------------------------


def _equivalent_pair():
    rng = np.random.default_rng(0)
    a1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    t, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    entries = (((1, 0), (1, 1)), ((0, 0), (1, 0)))
    b = np.array([[complex(*e) for e in row] for row in entries])
    return a1, t @ a1 @ b, t, entries


def test_checker_accepts_a_true_witness():
    a1, a2, t, entries = _equivalent_pair()
    assert check.check_witness(a1, a2, t, entries, special=False) == []


def test_checker_rejects_a_forged_witness():
    a1, a2, t, entries = _equivalent_pair()
    forged = (((2, 0), (1, 1)), ((0, 0), (1, 0)))  # determinant 2, not 1
    assert "witness_det" in check.check_witness(a1, a2, t, forged, special=False)
    wrong_t = np.diag([1.0, 1j]) @ t
    assert "witness_residual" in check.check_witness(a1, a2, wrong_t, entries, special=False)


def test_checker_rejects_a_perturbed_polar_factor():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    w, s, vh = np.linalg.svd(a)
    u, p = w @ vh, (vh.conj().T * s) @ vh
    assert check.check_polar(a, u, p) == []
    assert check.check_polar(a, u, p + 1e-4 * np.eye(3)) != []
    assert check.check_polar(a, u + 1e-4, p) != []


def test_checker_counts_a_two_line_cli_output_as_a_failure():
    q = {"argv": ["lattice-covolume"], "input": '{"lattice": {"n": 1, "generators": [[[1, 0]], [[0, 1]]]}}',
         "tag": "valid", "expect": {"exit": [0], "verdict": None}}
    code, out = check.run_in_process(q["argv"], q["input"])
    good = {"exit": code, "stdout": out, "stderr": "", "timed_out": False}
    assert check.check_cli(q, good, (code, out)) == []
    doubled = dict(good, stdout=out + out)
    assert "cli.lattice-covolume.json_line[valid]" in check.check_cli(q, doubled, (code, out))
    crashed = dict(good, stderr="Traceback (most recent call last):\n  ...\n")
    assert "cli.lattice-covolume.traceback[valid]" in check.check_cli(q, crashed, (code, out))
