"""One training step and one calibration pass composed from the public layer
functions on a 32-point 8x8 scene, pinning how many tape nodes each fused
op records."""

import gc
import weakref

import numpy as np

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


def recorded(tape, fn, *args):
    """Call ``fn`` and return its result with the ops it put on the tape."""
    start = len(tape.nodes)
    out = fn(*args)
    return out, [node.op for node in tape.nodes[start:]]


def test_pair_set_holds_no_dense_array():
    sample, _ = scene_and_params()
    pairs = sc.build_pairs(sample, 1.0, 4.0)
    arrays = [v for v in vars(pairs).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 4
    for arr in arrays:
        assert arr.ndim == 1 and arr.size < sample.n_points * sample.n_pixels


def test_training_step_records_one_node_per_fused_loss():
    sample, params = scene_and_params()
    pairs = sc.build_pairs(sample, 1.0, 4.0)
    tape = ad.Tape()
    p = pm.bind(tape, params)
    (f_p, f_i), ops = recorded(tape, enc.fuse, *enc.encode(sample, p), sample, p)
    assert ops.count("attention") == 4 and len(ops) == 28

    logits, ops = recorded(tape, mt.similarity, f_p, f_i,
                           mt.AlignmentTransform(p["align.b"], TEMPERATURE))
    assert ops.count("normalize_rows") == 2 and len(ops) == 9
    terms = []
    for direction in ("point_to_pixel", "pixel_to_point"):
        term, ops = recorded(tape, mt.infonce_loss, logits, pairs, direction)
        assert ops == ["infonce"]
        terms.append(term)
    s_p, s_i = mt.overlap_scores(f_p, f_i, p)
    term, ops = recorded(tape, mt.overlap_bce_loss, s_p, s_i,
                         sample.point_overlap_gt, sample.pixel_overlap_gt)
    assert ops == ["overlap_bce"]
    terms.append(term)
    selection = mt.threshold_overlap(s_p, s_i, 0.5, 0.5,
                                     sample.point_overlap_gt, sample.pixel_overlap_gt)
    coords, ops = recorded(tape, mt.match_coords, logits, selection,
                           sc.pixel_centers(sample.grid))
    assert ops == ["soft_match"]
    terms.append(ad.reduce(coords))

    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(loss, term)
    tape.backward(loss)
    grads = pm.gradients(p)
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    for name in ("align.b", "overlap.point.w", "overlap.pixel.b", "point_enc.l1.w"):
        assert np.any(grads[name] != 0.0), name


def test_untracked_calibration_records_nothing():
    sample, params = scene_and_params()
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
    pairs = sc.build_pairs(sample, 1.0, 4.0)
    losses = [mt.infonce_loss(logits, pairs, d) for d in ("point_to_pixel", "pixel_to_point")]
    losses.append(mt.overlap_bce_loss(s_p, s_i, sample.point_overlap_gt,
                                      sample.pixel_overlap_gt))
    for out in [f_p, f_i, logits, s_p, s_i, coords, refined.rotation, *losses]:
        assert out.tape is None
    assert np.all(np.isfinite(refined.estimate.pose.rotation))


def test_training_tape_is_freed_without_the_cycle_collector():
    # a backward closure that held a tracked Tensor would tie the tape into
    # a reference cycle and keep every step's tape alive until a gc pass
    sample, params = scene_and_params()
    pairs = sc.build_pairs(sample, 1.0, 4.0)
    gc.disable()
    try:
        tape = ad.Tape()
        p = pm.bind(tape, params)
        f_p, f_i = enc.fuse(*enc.encode(sample, p), sample, p)
        logits = mt.similarity(f_p, f_i, mt.AlignmentTransform(p["align.b"], TEMPERATURE))
        loss = ad.add(mt.infonce_loss(logits, pairs, "point_to_pixel"),
                      mt.infonce_loss(logits, pairs, "pixel_to_point"))
        tape.backward(loss)
        ref = weakref.ref(tape)
        del tape, p, f_p, f_i, logits, loss
        assert ref() is None
    finally:
        gc.enable()
