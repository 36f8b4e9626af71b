"""Workloads, set-up and step composition for the neucalib step benchmark.

Every step is composed here from the public functions of each layer, so
the library is measured exactly as a caller would use it; nothing in
``neucalib`` is patched. The package is imported from this checkout's
``src/`` directory and nowhere else.

A step is one scene: loss plus ``backward()`` for the training kind, scene
to pose for the calibration kind. Each library call runs inside a span of
the step's trace; with tracing off the spans are free no-ops.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
import neucalib  # noqa: E402

if not all(Path(p).resolve().is_relative_to(SRC.resolve()) for p in neucalib.__path__):
    raise ImportError(f"neucalib was imported from {list(neucalib.__path__)}, not from {SRC}")

from neucalib import autodiff as ad  # noqa: E402
from neucalib import encoder as enc  # noqa: E402
from neucalib import geometry as geo  # noqa: E402
from neucalib import matching as mt  # noqa: E402
from neucalib import params as pm  # noqa: E402
from neucalib import pnp  # noqa: E402
from neucalib import scene as sc  # noqa: E402
from neucalib.errors import DegenerateBatchError, GenerationError, NeucalibError, SolveError  # noqa: E402

# The model: C=32, hidden=64, one fusion layer, weights from a fixed seed.
# The weights are part of the program under test; only scenes and
# augmentations come from the workload seed.
CHANNELS = 32
HIDDEN = 64
FUSION_LAYERS = 1
MODEL_SEED = 0

TEMPERATURE = 0.07
R_POS, R_NEG = 1.0, 4.0  # pixel margins of build_pairs
THETA = 0.5  # overlap thresholds for points and pixels
GN_ITERS = 5
AUG_ROT, AUG_TRANS = np.pi / 4, 1.0  # z-rotation (rad) and x-y shift (m) ranges

N_SCENES = 64  # scenes per set-up; one pass of the step schedule visits each once
SETUP_REPS = 9  # set-ups per run, spread over it; setup_s is their median
GENERATION_ATTEMPTS = 100  # per scene, before set-up gives up

REF_SEED = 0
REF_STEPS = 3
REF_PATH = Path(__file__).resolve().parent / "reference_losses.json"
REF_RTOL = 1e-9

# Noise-free solve_pose must land within this many float64 rounding steps
# of the generating pose (observed: under 25).
POSE_TOL = 1000 * np.finfo(np.float64).eps

# Labels of the spans whose recorded nodes backward time is attributed to.
BACKWARD_STAGES = ("encode", "fuse", "similarity", "infonce_loss", "overlap",
                   "match_coords", "gauss_newton_refine", "pose_loss")


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in NOTES.md and BENCHMARK.json."""

    name: str
    kind: str  # "train" or "calib"
    n_points: int
    grid: int
    # Seconds one pass of N_SCENES steps took on the 2-core reference host
    # (NOTES.md); it turns --seconds into a fixed number of passes.
    pass_s: float = 1.0

    def scene_config(self) -> sc.SceneConfig:
        return sc.SceneConfig(n_points=self.n_points, grid=(self.grid, self.grid))

    def passes(self, seconds: float) -> int:
        """The fewest whole passes that take ``seconds`` at the reference speed.

        The count depends on ``seconds`` alone, never on how fast this run
        goes, so a seed always makes the same steps and the same failures.
        """
        return max(1, math.ceil(seconds / self.pass_s))


WORKLOADS = {w.name: w for w in (
    Workload("train_s256_g16", "train", 256, 16, pass_s=2.6),
    Workload("train_s512_g24", "train", 512, 24, pass_s=7.8),
    Workload("calib_s256_g16", "calib", 256, 16, pass_s=1.0),
)}


# --- tracing ----------------------------------------------------------------

class NoTrace:
    """Tracing off: every span is the same reusable no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def before_backward(self) -> None:
        pass


class StepTrace:
    """Spans of one step: seconds, tracemalloc peak above the span's start,
    and tape nodes recorded. Needs tracemalloc running; spans must not nest."""

    def __init__(self, tape: ad.Tape):
        self.tape = tape
        self.seconds: dict[str, float] = defaultdict(float)
        self.peak_mb: dict[str, float] = defaultdict(float)
        self.nodes: dict[str, int] = defaultdict(int)
        self.ranges: list[tuple[str, int, int]] = []
        self.backward_s: dict[str, float] = defaultdict(float)
        self.tape_mb = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        lo = len(self.tape.nodes)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            self.peak_mb[name] = max(self.peak_mb[name], peak)
            hi = len(self.tape.nodes)
            self.nodes[name] += hi - lo
            self.ranges.append((name, lo, hi))

    def before_backward(self) -> None:
        """Record tape growth and time each node's backward_fn by the span
        that recorded it. The tape is swept once, so wrapping is safe."""
        self.tape_mb = tracemalloc.get_traced_memory()[0] / 2**20
        for name, lo, hi in self.ranges:
            label = name.rsplit(".", 1)[1]
            for node in self.tape.nodes[lo:hi]:
                if node.backward_fn is not None:
                    node.backward_fn = self._timed(node.backward_fn, label)

    def _timed(self, fn, label):
        acc = self.backward_s

        def timed(g):
            t0 = time.perf_counter()
            out = fn(g)
            acc[label] += time.perf_counter() - t0
            return out

        return timed


class Stages:
    """Runs each layer call inside its span and records a NeucalibError by
    stage, class and cause before letting it propagate."""

    def __init__(self, trace):
        self.trace = trace
        self.failures: list[tuple[str, str, str]] = []

    def __call__(self, stage: str, fn, *args):
        with self.trace.span(stage):
            try:
                return fn(*args)
            except NeucalibError as err:
                self.failures.append((stage, type(err).__name__, str(err)))
                raise


# --- set-up -------------------------------------------------------------------

def init_params() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(MODEL_SEED)
    params = enc.init_encoder_params(rng, CHANNELS, HIDDEN, FUSION_LAYERS)
    params.update(mt.init_alignment(rng, CHANNELS))
    params.update(mt.init_overlap_heads(rng, CHANNELS))
    return params


@dataclass
class Setup:
    workload: Workload
    seed: int
    scenes: list
    params: dict  # name -> array; bound onto a fresh tape by each training step
    constants: dict  # name -> untracked Tensor, for calibration
    centers: np.ndarray
    generated: list = field(repr=False, default_factory=list)
    retries: int = 0
    seconds: dict = field(default_factory=dict)  # call -> seconds (a list per scene)


def set_up(workload: Workload, seed: int, work_dir: Path, n_scenes: int = N_SCENES) -> Setup:
    """Generate scenes from the seed, write and reload them as a dataset,
    and initialise the model. Redraws a scene on GenerationError."""
    cfg = workload.scene_config()
    rng = np.random.default_rng(seed)
    generated, gen_s, retries = [], [], 0
    while len(generated) < n_scenes:
        t0 = time.perf_counter()
        try:
            generated.append(sc.generate_scene(rng, cfg))
        except GenerationError:
            retries += 1
            if retries > GENERATION_ATTEMPTS * n_scenes:
                raise
        gen_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    sc.write_dataset(work_dir, generated, cfg, seed)
    t1 = time.perf_counter()
    scenes = sc.load_dataset(work_dir)
    t2 = time.perf_counter()
    params = init_params()
    constants = {name: ad.constant(value) for name, value in params.items()}
    return Setup(workload, seed, scenes, params, constants, sc.pixel_centers(cfg.grid),
                 generated, retries,
                 {"scene.generate_scene": gen_s, "scene.write_dataset": t1 - t0,
                  "scene.load_dataset": t2 - t1})


# --- steps --------------------------------------------------------------------

@dataclass
class Outcome:
    failures: list
    terms: dict = field(default_factory=dict)  # loss term -> float
    grads: dict | None = None  # parameter -> gradient, after backward
    pose: geo.RigidPose | None = None
    fallback: bool = False
    skipped: int = 0


def _features(run: Stages, sample, p):
    f_p, f_i = run("encoder.encode", enc.encode, sample, p)
    f_p, f_i = run("encoder.fuse", enc.fuse, f_p, f_i, sample, p)
    logits = run("matching.similarity", mt.similarity, f_p, f_i,
                 mt.AlignmentTransform(p["align.b"], TEMPERATURE))
    return f_p, f_i, logits


def _select(run: Stages, sample, s_p, s_i, outcome: Outcome):
    selection = run("matching.threshold_overlap", mt.threshold_overlap, s_p, s_i, THETA, THETA,
                    sample.point_overlap_gt, sample.pixel_overlap_gt)
    outcome.fallback = selection.point_fallback or selection.pixel_fallback
    return selection


def _pose(run: Stages, sample, logits, selection, centers):
    coords = run("matching.match_coords", mt.match_coords, logits, selection, centers, "soft")

    def init():
        problem = pnp.PnPProblem(sample.points[selection.point_indices], coords,
                                 sample.intrinsics)
        return problem, pnp.epnp_init(problem)

    problem, start = run("pnp.epnp_init", init)
    return run("pnp.gauss_newton_refine", pnp.gauss_newton_refine, problem, start, GN_ITERS)


def train_step(setup: Setup, k: int, tape: ad.Tape, trace) -> Outcome:
    """Augment scene k, build pairs, run every loss term, and backward.

    A term whose stage raises is dropped; backward runs on what is left.
    """
    run = Stages(trace)
    out = Outcome(run.failures)
    rot, trans = geo.sample_augmentation(np.random.default_rng([setup.seed, k]),
                                         AUG_ROT, AUG_TRANS)
    base = setup.scenes[k % len(setup.scenes)]
    sample = run("scene.augment_scene", sc.augment_scene, base, rot, trans)
    pairs = run("scene.build_pairs", sc.build_pairs, sample, R_POS, R_NEG)
    out.skipped = pairs.skipped_no_positive + pairs.skipped_no_negative
    bound = pm.bind(tape, setup.params)
    terms = {}
    try:
        f_p, f_i, logits = _features(run, sample, bound)
    except NeucalibError:
        return out
    for direction in ("point_to_pixel", "pixel_to_point"):
        try:
            terms[f"infonce.{direction}"] = run("matching.infonce_loss", mt.infonce_loss,
                                                logits, pairs, direction)
        except NeucalibError:
            pass
    try:
        s_p, s_i = run("matching.overlap", mt.overlap_scores, f_p, f_i, bound)
        terms["overlap_bce"] = run("matching.overlap", mt.overlap_bce_loss, s_p, s_i,
                                   sample.point_overlap_gt, sample.pixel_overlap_gt)
        selection = _select(run, sample, s_p, s_i, out)
        refined = _pose(run, sample, logits, selection, setup.centers)
        terms["pose"] = run("pnp.pose_loss", pnp.pose_loss, refined, sample.raw_pose)
    except NeucalibError:
        pass
    out.terms = {name: term.item() for name, term in terms.items()}
    if terms:
        loss = None
        for term in terms.values():
            loss = term if loss is None else ad.add(loss, term)
        trace.before_backward()
        run("autodiff.backward", tape.backward, loss)
        out.grads = pm.gradients(bound)
    return out


def calib_step(setup: Setup, k: int, tape: ad.Tape, trace) -> Outcome:
    """Scene k to pose with untracked weights; the tape records nothing."""
    run = Stages(trace)
    out = Outcome(run.failures)
    sample = setup.scenes[k % len(setup.scenes)]
    p = setup.constants
    try:
        f_p, f_i, logits = _features(run, sample, p)
        s_p, s_i = run("matching.overlap", mt.overlap_scores, f_p, f_i, p)
        selection = _select(run, sample, s_p, s_i, out)
        out.pose = _pose(run, sample, logits, selection, setup.centers).estimate.pose
    except NeucalibError:
        pass
    return out


STEPS = {"train": train_step, "calib": calib_step}


def failure_counts(failures) -> dict[str, int]:
    """Counters the per-layer metrics report, for one step's failures."""
    return {
        "pnp.solve_fail": sum(1 for stage, cls, _ in failures
                              if cls == SolveError.__name__ and stage.startswith("pnp.")),
        "matching.degenerate": sum(1 for _, cls, _ in failures
                                   if cls == DegenerateBatchError.__name__),
    }


# --- output checks ------------------------------------------------------------

class CheckFailed(Exception):
    """An output of the program is wrong; the benchmark must not report."""


def check_outcome(k: int, out: Outcome) -> None:
    for name, value in out.terms.items():
        if not np.isfinite(value):
            raise CheckFailed(f"step {k}: loss term {name} is {value}")
    for name, grad in (out.grads or {}).items():
        if not np.all(np.isfinite(grad)):
            raise CheckFailed(f"step {k}: gradient of {name} is not finite")
    if out.pose is not None and not (np.all(np.isfinite(out.pose.rotation))
                                     and np.all(np.isfinite(out.pose.translation))):
        raise CheckFailed(f"step {k}: calibrated pose is not finite")


def check_setup(setup: Setup) -> None:
    """The dataset round trip is bit-exact, and noise-free solve_pose on
    each scene's ground-truth projections recovers its raw pose."""
    for i, (made, loaded) in enumerate(zip(setup.generated, setup.scenes, strict=True)):
        if sc.scene_to_bytes(made) != sc.scene_to_bytes(loaded):
            raise CheckFailed(f"scene {i} changed in the dataset round trip")
        mask = loaded.point_overlap_gt
        est = pnp.solve_pose(pnp.PnPProblem(loaded.points[mask], loaded.gt_projection[mask],
                                            loaded.intrinsics), GN_ITERS).estimate.pose
        scale = max(1.0, float(np.abs(loaded.points).max()))
        rot_err = float(np.abs(est.rotation - loaded.raw_pose.rotation).max())
        trans_err = float(np.abs(est.translation - loaded.raw_pose.translation).max())
        if rot_err > POSE_TOL or trans_err > POSE_TOL * scale:
            raise CheckFailed(f"scene {i}: solve_pose missed the raw pose "
                              f"(rotation {rot_err:.3g}, translation {trans_err:.3g})")


def reference_terms(workload: Workload, work_dir: Path) -> list[dict[str, float]]:
    """Non-pose loss terms of the first training steps of the reference seed."""
    setup = set_up(workload, REF_SEED, work_dir, n_scenes=REF_STEPS)
    rows = []
    for k in range(REF_STEPS):
        terms = train_step(setup, k, ad.Tape(), NoTrace()).terms
        rows.append({name: v for name, v in terms.items() if name != "pose"})
    return rows


def check_reference(workload: Workload, work_dir: Path) -> None:
    """Compare with the committed values. Regenerate them after an
    intended change with ``python3 stepbench/steps.py``."""
    if workload.kind != "train":
        return
    expected = json.loads(REF_PATH.read_text())[workload.name]
    got = reference_terms(workload, work_dir)
    for k, (want, have) in enumerate(zip(expected, got, strict=True)):
        if set(want) != set(have):
            raise CheckFailed(f"reference step {k}: terms {sorted(have)}, expected {sorted(want)}")
        for name, value in want.items():
            if not np.isclose(have[name], value, rtol=REF_RTOL, atol=0.0):
                raise CheckFailed(f"reference step {k}: {name} = {have[name]!r}, "
                                  f"expected {value!r}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        table = {w.name: reference_terms(w, Path(tmp) / w.name)
                 for w in WORKLOADS.values() if w.kind == "train"}
    REF_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REF_PATH}")
