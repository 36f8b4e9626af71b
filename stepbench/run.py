"""Run one workload of the neucalib step benchmark and print its metrics.

    python3 stepbench/run.py --workload train_s256_g16 --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload, each in its own process. Steps run
in a closed loop with one caller. A pass visits each set-up scene once, and
a run makes a fixed number of passes: the fewest that take ``--seconds`` at
the reference speed of its workload (``steps.Workload.pass_s``). The steps of a
run, and so its counts and failures, depend only on the seed and
``--seconds``, not on how fast the host is that day. With ``--trace 0``
the last line holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run (odd steps traced under tracemalloc,
even steps untraced for the overhead figure). Any failed output check
exits with code 1 and prints no result.

Set-up runs ``steps.SETUP_REPS`` times: once before the first pass, and the
rest between passes, spread over the run, so that ``setup_s`` samples the
host over the same stretch of time as the steps do.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np

import steps
from steps import ad

# step_s_tail is a fixed percentile, so that a faster commit, which runs more
# steps, is compared at the same point (NOTES.md says why).
TAIL_PCT = 90.0

# Every op the tape can record; an unknown op is counted under "other".
OPS = ("leaf", "matmul", "add", "sub", "mul", "div", "negate", "exp", "log", "sqrt",
       "sin", "cos", "tanh", "sigmoid", "scale", "shift", "clip", "softmax_rows",
       "reduce_sum_all", "reduce_mean_all", "reduce_sum_cols", "reduce_mean_cols",
       "reduce_sum_rows", "reduce_mean_rows", "huber", "transpose", "reshape",
       "gather_rows", "gather_cols", "gather_elements", "hstack", "scalar_mul", "solve")

# span -> which of seconds / peak_mb / nodes it reports
SPAN_METRICS = {
    "scene.augment_scene": ("s",),
    "scene.build_pairs": ("s", "peak_mb"),
    "encoder.encode": ("s", "peak_mb", "nodes"),
    "encoder.fuse": ("s", "peak_mb", "nodes"),
    "matching.similarity": ("s", "peak_mb", "nodes"),
    "matching.infonce_loss": ("s", "peak_mb", "nodes"),
    "matching.match_coords": ("s", "peak_mb", "nodes"),
    "matching.overlap": ("s", "nodes"),
    "matching.threshold_overlap": ("s",),
    "pnp.epnp_init": ("s",),
    "pnp.gauss_newton_refine": ("s", "peak_mb", "nodes"),
    "pnp.pose_loss": ("s", "nodes"),
    "autodiff.backward": ("s", "peak_mb"),
}
UNITS = {"s": "s", "peak_mb": "MB", "nodes": "count"}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                get = getattr(dll, symbol)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Per-step figures of one run."""

    def __init__(self):
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.untraced_times: list[float] = []
        self.failed = 0
        self.counts: Counter = Counter()
        self.causes: Counter = Counter()
        self.per_step: dict[str, list] = {}
        self.ops: dict[str, list] = {op: [] for op in OPS + ("other",)}
        self.live_tapes: list[int] = []
        self.rss_by_pass: list[float] = []

    def step(self, dt: float, out: steps.Outcome) -> None:
        self.times.append(dt)
        self.failed += bool(out.failures)
        self.causes.update(out.failures)
        self.counts.update(steps.failure_counts(out.failures))
        self.counts["matching.threshold_overlap.fallback"] += out.fallback
        self.counts["scene.build_pairs.skipped"] += out.skipped

    def traced(self, trace: steps.StepTrace, tape: ad.Tape) -> None:
        for name, seconds in trace.seconds.items():
            self._add(f"{name}.s", seconds)
            self._add(f"{name}.peak_mb", trace.peak_mb[name])
            self._add(f"{name}.nodes", trace.nodes[name])
        if "autodiff.backward" in trace.seconds:
            total = trace.seconds["autodiff.backward"]
            for label in steps.BACKWARD_STAGES:
                self._add(f"autodiff.backward.{label}.s", trace.backward_s.get(label, 0.0))
            self._add("autodiff.backward.loop.s", total - sum(trace.backward_s.values()))
        self._add("autodiff.tape_mb", trace.tape_mb)
        self._add("autodiff.nodes", len(tape.nodes))
        ops = Counter(node.op for node in tape.nodes)
        for op in OPS:
            self.ops[op].append(ops.pop(op, 0))
        self.ops["other"].append(sum(ops.values()))

    def _add(self, name: str, value: float) -> None:
        self.per_step.setdefault(name, []).append(value)


def measure(setup: steps.Setup, passes: int, traced: bool,
            between_passes=lambda share: None) -> Recorder:
    """``passes`` whole passes over the step schedule.

    After each pass, ``between_passes`` gets the share of the passes done so
    far (1.0 after the last one); its own time is not counted as step time.
    """
    step = steps.STEPS[setup.workload.kind]
    n_steps = len(setup.scenes)
    rec = Recorder()
    tapes: list[weakref.ref] = []
    untraced = steps.NoTrace()
    for done in range(1, passes + 1):
        for k in range(n_steps):
            tape = ad.Tape()
            # the new trace drops the last step's, which holds its tape, so
            # that only tapes the program itself keeps are counted as live
            trace = steps.StepTrace(tape) if traced and k % 2 else untraced
            if traced:
                tapes = [ref for ref in tapes if ref() is not None]
                rec.live_tapes.append(len(tapes))
                tapes.append(weakref.ref(tape))
            if trace is not untraced:
                tracemalloc.start()
            t0 = time.perf_counter()
            out = step(setup, k, tape, trace)
            dt = time.perf_counter() - t0
            if trace is not untraced:
                tracemalloc.stop()
                rec.traced(trace, tape)
                rec.traced_times.append(dt)
            elif traced:
                rec.untraced_times.append(dt)
            steps.check_outcome(k, out)
            rec.step(dt, out)
        rec.rss_by_pass.append(peak_rss_mb())
        between_passes(done / passes)
    return rec


def end_to_end(rec: Recorder, setup_s: list[float]) -> tuple[dict, dict]:
    n = len(rec.times)
    metrics = {
        "setup_s": (median(setup_s), "s"),
        "step_s_mean": (sum(rec.times) / n, "s"),
        "step_s_tail": (float(np.percentile(rec.times, TAIL_PCT)), "s"),
        "peak_rss_mb": (rec.rss_by_pass[-1], "MB"),
    }
    extra = {"fail_frac": (rec.failed / n, "ratio"),
             "step_s_p50": (median(rec.times), "s"),
             "step_s_tail.percentile": (TAIL_PCT, "%"),
             "step_s_tail.beyond": (round(n * (1 - TAIL_PCT / 100)), "count"),
             "setups": (len(setup_s), "count"),
             "steps": (n, "count"),
             "passes": (len(rec.rss_by_pass), "count")}
    return metrics, extra


def per_layer(rec: Recorder, setups: list[steps.Setup]) -> dict:
    passes = len(rec.rss_by_pass)
    metrics = {
        "scene.generate_scene.s": (
            median([t for s in setups for t in s.seconds["scene.generate_scene"]]), "s"),
        "scene.generate_scene.retries": (setups[0].retries, "count"),
        "scene.write_dataset.s": (median([s.seconds["scene.write_dataset"] for s in setups]), "s"),
        "scene.load_dataset.s": (median([s.seconds["scene.load_dataset"] for s in setups]), "s"),
    }
    for span, kinds in SPAN_METRICS.items():
        for kind in kinds:
            name = f"{span}.{kind}"
            metrics[name] = (median(rec.per_step.get(name, [])), UNITS[kind])
    for name in ("scene.build_pairs.skipped", "matching.threshold_overlap.fallback",
                 "matching.degenerate", "pnp.solve_fail"):
        metrics[name] = (rec.counts[name] // passes, "count")
    for label in steps.BACKWARD_STAGES + ("loop",):
        name = f"autodiff.backward.{label}.s"
        metrics[name] = (median(rec.per_step.get(name, [])), "s")
    metrics["autodiff.nodes"] = (median(rec.per_step.get("autodiff.nodes", [])), "count")
    for op, counts in rec.ops.items():
        metrics[f"autodiff.ops.{op}"] = (median(counts), "count")
    metrics["autodiff.tape_mb"] = (median(rec.per_step.get("autodiff.tape_mb", [])), "MB")
    metrics["autodiff.live_tapes"] = (median(rec.live_tapes), "count")
    traced, untraced = median(rec.traced_times), median(rec.untraced_times)
    metrics["trace.step_s_p50"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def run_workload(args) -> int:
    workload = steps.WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(args), sort_keys=True), flush=True)
    work = steps.ROOT / ".stepbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        setups, setup_s = [], []

        def set_up_timed():
            t0 = time.perf_counter()
            done = steps.set_up(workload, args.seed, work / f"rep{len(setups)}")
            setup_s.append(time.perf_counter() - t0)
            # later set-ups are kept for their timings only
            if setups:
                done = dataclasses.replace(done, scenes=[], generated=[], params={}, constants={})
            setups.append(done)

        def catch_up(share: float) -> None:
            while len(setups) < 1 + round(share * (steps.SETUP_REPS - 1)):
                set_up_timed()

        set_up_timed()
        steps.check_setup(setups[0])
        rec = measure(setups[0], workload.passes(args.seconds), bool(args.trace), catch_up)
        steps.check_reference(workload, work / "reference")
    except steps.CheckFailed as err:
        print(f"output check failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's data
            work.parent.rmdir()

    if args.trace:
        metrics, extra = per_layer(rec, setups), {}
    else:
        metrics, extra = end_to_end(rec, setup_s)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:44s} {value:>14.6g} {unit}")
    print(f"# seconds of each set-up: {[round(v, 3) for v in setup_s]}")
    print(f"# peak_rss_mb after each pass: {[round(v, 1) for v in rec.rss_by_pass]}")
    for (stage, cls, cause), count in sorted(rec.causes.items()):
        print(f"# failure per pass: {count // len(rec.rss_by_pass)} x {stage} {cls}: {cause}")
    print(json.dumps({
        "correct": True, "attempted": len(rec.times), "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    status = 0
    for name in steps.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*steps.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
