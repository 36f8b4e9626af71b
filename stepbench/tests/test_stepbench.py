"""Tests of the step benchmark itself: smoke runs of both step kinds at a
tiny size, metric names against BENCHMARK.json, and same-seed determinism
of every count the traced run reports.

    python3 -m pytest -q stepbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import steps  # noqa: E402

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {kind: steps.Workload(f"{kind}_tiny", kind, 32, 8) for kind in steps.STEPS}
EXACT = ("autodiff.nodes", "autodiff.ops.", "pnp.solve_fail", "matching.degenerate",
         "matching.threshold_overlap.fallback", "scene.build_pairs.skipped")


def cli(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "stepbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs():
    """Same seed, different run lengths: one pass, then several."""
    return [result(cli("train_s256_g16", 3, seconds, 1)) for seconds in (0, 9)]


@pytest.mark.parametrize("kind", sorted(steps.STEPS))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_smoke(kind, traced, tmp_path):
    setup = steps.set_up(TINY[kind], 5, tmp_path / "data", n_scenes=4)
    steps.check_setup(setup)
    shares = []
    rec = run.measure(setup, 1, traced, shares.append)
    assert len(rec.times) == 4 and all(t > 0 for t in rec.times)
    assert shares == [1.0]
    if traced:
        metrics = run.per_layer(rec, [setup])
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        assert (metrics["autodiff.nodes"][0] > 0) == (kind == "train")
    else:
        metrics, _ = run.end_to_end(rec, [0.5])
        assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(math.isfinite(value) for value, _ in metrics.values())


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_match_spec(trace):
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    out = result(cli("calib_s256_g16", 1, 0, trace))
    assert {name: m["unit"] for name, m in out["metrics"].items()} == want
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1


def test_spec_workloads_are_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(steps.WORKLOADS)


def test_same_seed_repeats_counts(traced_runs):
    first, second = (r["metrics"] for r in traced_runs)
    exact = [name for name in first if name.startswith(EXACT) or name.endswith(".nodes")]
    assert "autodiff.ops.hstack" in exact and "pnp.solve_fail" in exact
    for name in exact:
        assert first[name]["value"] == second[name]["value"], name
    fail_frac = [r["failed"] / r["attempted"] for r in traced_runs]
    assert fail_frac[0] == fail_frac[1]
    assert traced_runs[1]["attempted"] > traced_runs[0]["attempted"]


def test_same_seed_and_seconds_repeat_attempted_and_failed():
    """The run length is a fixed number of passes, so two runs of a seed that
    has failing solves report the very same ``attempted`` and ``failed``."""
    first, second = (result(cli("calib_s256_g16", 3, 3, 0)) for _ in range(2))
    assert first["failed"] > 0
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert first["attempted"] == steps.N_SCENES * steps.WORKLOADS["calib_s256_g16"].passes(3)


def test_passes_follow_seconds_only():
    workload = steps.WORKLOADS["train_s512_g24"]
    assert workload.passes(0) == 1
    assert workload.passes(SPEC["run_seconds"]) == math.ceil(SPEC["run_seconds"] / workload.pass_s)


def test_training_retains_tapes_and_calibration_does_not(traced_runs):
    assert traced_runs[1]["metrics"]["autodiff.live_tapes"]["value"] > 0
    calib = result(cli("calib_s256_g16", 3, 0, 1))["metrics"]
    assert calib["autodiff.live_tapes"]["value"] == 0
    assert calib["autodiff.nodes"]["value"] == 0


def test_calibration_keeps_no_tape_at_any_step(tmp_path):
    setup = steps.set_up(steps.WORKLOADS["calib_s256_g16"], 3, tmp_path / "data", n_scenes=8)
    rec = run.measure(setup, 1, traced=True)
    assert rec.live_tapes == [0] * 8


def test_reference_mismatch_fails_the_run(tmp_path, monkeypatch):
    table = json.loads(steps.REF_PATH.read_text())
    table["train_s256_g16"][0]["overlap_bce"] *= 1.0 + 1e-6
    bad = tmp_path / "reference_losses.json"
    bad.write_text(json.dumps(table))
    monkeypatch.setattr(steps, "REF_PATH", bad)
    with pytest.raises(steps.CheckFailed, match="overlap_bce"):
        steps.check_reference(steps.WORKLOADS["train_s256_g16"], tmp_path / "data")


def test_without_the_library_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = cli("train_s256_g16", 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
