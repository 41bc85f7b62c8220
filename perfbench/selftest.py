"""Tests of the benchmark itself; run with

    python3 -m pytest -q perfbench/selftest.py

Smoke runs use two or three operations per workload; the tamper tests
feed each check a real output with one fact changed and require the
check to reject it.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import make_inputs  # noqa: E402
import run  # noqa: E402

run.load_package()


def _smoke(workload, keep, seconds=0):
    workload.ops = [op for op in workload.ops if op.key in keep]
    assert len(workload.ops) == len(keep)
    rec = run.Recorder()
    metrics = run.timed_run(workload, random.Random(1), seconds, rec)
    assert rec.attempted == len(keep) and rec.failed == 0
    assert workload.check(rec.outputs) == []
    assert set(metrics) == {"pass_s", "op_p50_ms", "peak_rss_mb"}
    assert all(value > 0 for value, _ in metrics.values())
    return rec


@pytest.fixture(scope="module")
def summary_outputs():
    rec = _smoke(run.Summary(), {"3_1", "4_1"})
    return {key: next(iter(v)) for key, v in rec.outputs.items()}


@pytest.fixture(scope="module")
def verify_outputs():
    rec = _smoke(run.Verify(), {"3_1 dot-crossing bn",
                                "3_1 saddle-split alpha@0,t/f2",
                                "3_1 movie-star bn"})
    return {key: next(iter(v)) for key, v in rec.outputs.items()}


def test_smoke_summary(summary_outputs):
    assert set(summary_outputs) == {"3_1", "4_1"}


def test_smoke_verify(verify_outputs):
    assert len(verify_outputs) == 3


def test_smoke_movies():
    wl = run.Movies()
    wl.rmoves = [p for p in wl.rmoves if p.endswith("rmove-5_2.movie")]
    _smoke(wl, {"trivial-ribbon.movie bn", "rmove-5_2.movie alpha@0,t/f3"})
    assert wl.extra_checks() == []


def test_traced_run_matches_and_reports_layers(tmp_path):
    wl = run.Verify()
    wl.ops = [op for op in wl.ops if op.key == "4_1 dot-crossing bn"]
    rec = run.Recorder()
    path = str(tmp_path / "trace.json")
    metrics, mismatches = run.traced_run(wl, random.Random(1), 0, rec, path)
    assert mismatches == [] and rec.failed == 0 and rec.attempted == 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(metrics) == names
    assert metrics["homology.builds"][0] == 4       # one per instance
    assert metrics["cobordism.decoration_s"][0] > 0
    with open(path) as fh:
        spans = json.load(fh)["spans"]
    assert spans[0][0] == "cli.op" and spans[0][3] is None
    assert all(s[1] <= s[2] for s in spans)


def test_no_package_means_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "summary",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_frozen_inputs_regenerate_byte_for_byte():
    files = make_inputs.expected_files()
    for rel, text in files.items():
        with open(os.path.join(make_inputs.INPUTS, rel), "rb") as fh:
            assert fh.read() == text.encode(), rel
    assert sorted(os.listdir(make_inputs.INPUTS)) == sorted(files)


# -- tampered outputs --------------------------------------------------------

def _jones(name):
    from knothom import load_table, quantum_jones
    return quantum_jones(load_table()[name])


def test_summary_check_rejects_dropped_free_summand(summary_outputs):
    code, out = summary_outputs["4_1"]
    assert checks.check_summary(code, out, _jones("4_1")) == []
    payload = json.loads(out)
    payload["free"] = payload["free"][:1]
    assert checks.check_summary(code, json.dumps(payload), _jones("4_1"))


def test_summary_check_rejects_shifted_torsion(summary_outputs):
    code, out = summary_outputs["3_1"]
    payload = json.loads(out)
    payload["torsion"][0][1] += 2
    assert checks.check_summary(code, json.dumps(payload), _jones("3_1"))


def test_summary_check_rejects_wrong_torus_slice(summary_outputs):
    code, out = summary_outputs["3_1"]
    assert checks.check_summary(code, out, _jones("3_1"), torus_s=2) == []
    assert checks.check_summary(code, out, _jones("3_1"), torus_s=8)


def test_verify_check_rejects_fail_line(verify_outputs):
    code, out = verify_outputs["3_1 dot-crossing bn"]
    assert checks.check_verify(code, out, "dot-crossing", "bn", 3) == []
    tampered = out.replace("PASS", "FAIL", 1)
    assert checks.check_verify(code, tampered, "dot-crossing", "bn", 3)


def test_verify_check_rejects_wrong_instance_count(verify_outputs):
    code, out = verify_outputs["3_1 movie-star bn"]
    assert checks.check_verify(code, out, "movie-star", "bn", 2) == []
    assert checks.check_verify(code, out, "movie-star", "bn", 3)
    lines = out.splitlines()
    dropped = "\n".join(lines[1:-1] + ["1/1 instances passed"]) + "\n"
    assert checks.check_verify(code, dropped, "movie-star", "bn", 2)


def test_compare_check_rejects_flipped_verdict():
    wl = run.Movies()
    path = wl.ribbons[0]
    code, out, _, _ = run.invoke(run.Op("", wl._argv(path, "bn", "id")))
    assert checks.check_compare(code, out, "id", True) == []
    flipped = out.replace("compare id: equal", "compare id: DIFFERENT")
    assert checks.check_compare(code, flipped, "id", True)
    assert checks.check_compare(1, out, "id", True)
    code, out, _, _ = run.invoke(run.Op("", wl._argv(path, "bn", "x^1")))
    assert checks.check_compare(code, out, "x^1", False) == []
    assert checks.check_compare(0, out.replace("DIFFERENT", "equal"),
                                "x^1", False)


def test_bound_check_rejects_violation():
    out = "hypothesis d = 1: consistent\n"
    assert checks.check_bound(0, out) == []
    assert checks.check_bound(
        1, "hypothesis d = 0: VIOLATED (impossible movie)\n")


def test_frame_check_rejects_changed_knot():
    from knothom import load_table, quantum_jones
    t = load_table()
    j31, j41 = quantum_jones(t["3_1"]), quantum_jones(t["4_1"])
    assert checks.check_frames(j31, j31, "s", "s") == []
    assert checks.check_frames(j31, j41, "s", "s")
    assert checks.check_frames(j31, j31, "s", "t")
