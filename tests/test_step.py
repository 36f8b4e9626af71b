"""One training step and one calibration pass composed from the public layer
functions on a 32-point 8x8 scene, pinning how many tape nodes each fused
op records: 63 for the whole training step, 37 of them parameter leaves."""

import gc
import platform
import weakref

import numpy as np
import pytest

from neucalib import autodiff as ad
from neucalib import encoder as enc
from neucalib import matching as mt
from neucalib import params as pm
from neucalib import pnp
from neucalib import scene as sc

CHANNELS = 8
TEMPERATURE = 0.07


def scene_and_params():
    rng = np.random.default_rng(0)
    sample = sc.generate_scene(rng, sc.SceneConfig(n_points=32, grid=(8, 8)))
    params = enc.init_encoder_params(rng, CHANNELS, 16)
    params.update(mt.init_alignment(rng, CHANNELS))
    params.update(mt.init_overlap_heads(rng, CHANNELS))
    return sample, params


def training_step(tape, sample, params, stage=lambda fn, *args: fn(*args)):
    """Every loss term of one training step on ``tape``, summed: InfoNCE both
    ways, overlap BCE and the pose loss after soft matching and Gauss-Newton.
    Each library call that records nodes goes through ``stage``. Returns the
    bound parameters and the loss."""
    pairs = sc.build_pairs(sample, 1.0, 4.0)
    p = pm.bind(tape, params)
    f_p, f_i = stage(enc.encode, sample, p)
    f_p, f_i = stage(enc.fuse, f_p, f_i, sample, p)
    logits = stage(mt.similarity, f_p, f_i, mt.AlignmentTransform(p["align.b"], TEMPERATURE))
    terms = [stage(mt.infonce_loss, logits, pairs, direction)
             for direction in ("point_to_pixel", "pixel_to_point")]
    s_p, s_i = stage(mt.overlap_scores, f_p, f_i, p)
    terms.append(stage(mt.overlap_bce_loss, s_p, s_i,
                       sample.point_overlap_gt, sample.pixel_overlap_gt))
    selection = mt.threshold_overlap(s_p, s_i, 0.5, 0.5,
                                     sample.point_overlap_gt, sample.pixel_overlap_gt)
    coords = stage(mt.match_coords, logits, selection, sc.pixel_centers(sample.grid))
    problem = pnp.PnPProblem(sample.points[selection.point_indices], coords,
                             sample.intrinsics)
    refined = stage(pnp.gauss_newton_refine, problem, pnp.epnp_init(problem), 5)
    terms.append(stage(pnp.pose_loss, refined, sample.raw_pose))
    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(loss, term)
    return p, loss


def tracked_tensors_held(fn) -> list:
    """Tracked Tensors that a closure reaches through its cells, nested
    closures, containers and object attributes."""
    found, seen, stack = [], set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, ad.Tensor):
            if obj.tape is not None:
                found.append(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            stack.extend(vars(obj).values())
    return found


def test_pair_set_holds_no_dense_array():
    sample, _ = scene_and_params()
    pairs = sc.build_pairs(sample, 1.0, 4.0)
    arrays = [v for v in vars(pairs).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 3
    for arr in arrays:
        assert arr.ndim == 1 and arr.size < sample.n_points * sample.n_pixels


def test_training_step_records_one_node_per_fused_loss():
    sample, params = scene_and_params()
    tape = ad.Tape()
    ops = {}  # library function -> the ops its calls recorded, in order

    def stage(fn, *args):
        start = len(tape.nodes)
        out = fn(*args)
        ops.setdefault(fn.__name__, []).extend(node.op for node in tape.nodes[start:])
        return out

    p, loss = training_step(tape, sample, params, stage)
    assert ops == {
        "encode": ["dense"] * 4,
        "fuse": ["attention"] * 4 + ["dense", "dense", "add"] * 2,
        "similarity": ["similarity"],
        "infonce_loss": ["infonce", "infonce"],
        "overlap_scores": ["dense", "dense"],
        "overlap_bce_loss": ["overlap_bce"],
        "match_coords": ["soft_match"],
        "gauss_newton_refine": ["gauss_newton"],
        "pose_loss": ["pose_loss"],
    }
    assert [node.op for node in tape.nodes].count("leaf") == 37
    assert len(tape.nodes) == 63
    tape.backward(loss)
    grads = pm.gradients(p)
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    for name in ("align.b", "overlap.point.w", "overlap.pixel.b", "point_enc.l1.w",
                 "point_enc.l2.b", "fuse.0.pixel.ffn.l1.b"):
        assert np.any(grads[name] != 0.0), name


def test_backward_dtype_never_reaches_a_loss_term(monkeypatch):
    # attention's backward computes in enc.BACKWARD_DTYPE; no forward value,
    # and so no term, may depend on it, while the gradients do
    sample, params = scene_and_params()
    runs = []
    for dtype in (np.float64, np.float32):
        monkeypatch.setattr(enc, "BACKWARD_DTYPE", dtype)
        terms = []

        def stage(fn, *args):
            out = fn(*args)
            if fn in (mt.infonce_loss, mt.overlap_bce_loss, pnp.pose_loss):
                terms.append(out.value)
            return out

        tape = ad.Tape()
        p, loss = training_step(tape, sample, params, stage)
        tape.backward(loss)
        runs.append(([*terms, loss.value], pm.gradients(p)))
    (want, want_grads), (got, got_grads) = runs
    assert len(got) == 5
    for have, exact in zip(got, want, strict=True):
        np.testing.assert_array_equal(have, exact)
    assert any(not np.array_equal(got_grads[name], want_grads[name]) for name in want_grads)


def calibrate_untracked(sample, params):
    """Scene to pose with constant weights; returns every stage's output."""
    p = {name: ad.constant(value) for name, value in params.items()}
    f_p, f_i = enc.fuse(*enc.encode(sample, p), sample, p)
    logits = mt.similarity(f_p, f_i, mt.AlignmentTransform(p["align.b"], TEMPERATURE))
    s_p, s_i = mt.overlap_scores(f_p, f_i, p)
    selection = mt.threshold_overlap(s_p, s_i, 0.5, 0.5,
                                     sample.point_overlap_gt, sample.pixel_overlap_gt)
    coords = mt.match_coords(logits, selection, sc.pixel_centers(sample.grid))
    problem = pnp.PnPProblem(sample.points[selection.point_indices], coords,
                             sample.intrinsics)
    refined = pnp.gauss_newton_refine(problem, pnp.epnp_init(problem))
    return f_p, f_i, logits, s_p, s_i, coords, refined


def test_untracked_calibration_records_nothing():
    sample, params = scene_and_params()
    f_p, f_i, logits, s_p, s_i, coords, refined = calibrate_untracked(sample, params)
    pairs = sc.build_pairs(sample, 1.0, 4.0)
    losses = [mt.infonce_loss(logits, pairs, d) for d in ("point_to_pixel", "pixel_to_point")]
    losses.append(mt.overlap_bce_loss(s_p, s_i, sample.point_overlap_gt,
                                      sample.pixel_overlap_gt))
    for out in [f_p, f_i, logits, s_p, s_i, coords, refined.pose, *losses]:
        assert out.tape is None
    assert np.all(np.isfinite(refined.estimate.pose.rotation))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator policy is glibc's")
def test_calibration_pass_does_not_fault_in_its_temporaries():
    # freed N x M temporaries must stay in the process: if the allocator
    # hands them back to the kernel, every pass faults each page in again.
    # Scene size and model width are those of the calib_s256_g16 benchmark.
    import resource  # POSIX only, like the allocator policy under test

    rng = np.random.default_rng(0)
    sample = sc.generate_scene(rng, sc.SceneConfig(n_points=256, grid=(16, 16)))
    params = enc.init_encoder_params(rng, 32, 64)
    params.update(mt.init_alignment(rng, 32))
    params.update(mt.init_overlap_heads(rng, 32))
    for _ in range(3):
        calibrate_untracked(sample, params)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    calibrate_untracked(sample, params)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # one 256 x 256 float64 array spans 128 pages of 4 KiB
    assert faults < 256 * 256 * 8 // 4096, faults


def test_training_tape_is_freed_without_the_cycle_collector():
    # a backward closure that held a tracked Tensor would tie the tape into
    # a reference cycle and keep every step's tape alive until a gc pass
    sample, params = scene_and_params()
    gc.disable()
    try:
        tape = ad.Tape()
        p, loss = training_step(tape, sample, params)
        for node in tape.nodes:
            assert tracked_tensors_held(node.backward_fn) == [], node.op
        tape.backward(loss)
        ref = weakref.ref(tape)
        del tape, p, loss
        assert ref() is None
    finally:
        gc.enable()
