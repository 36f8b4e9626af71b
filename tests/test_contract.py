"""The error contract of the public surface: a public name that gets one bad
value in an otherwise valid call returns, or raises NeucalibError (or the
narrower subclass that its entry names), and nothing else.

TABLE has one entry for every name that ``test_surface.definitions()``
returns: the error class, and a function whose parameters are the call's
arguments that take outside input, each defaulting to a valid value.
Arguments of library types (tensors, scenes, poses, pair sets, selections,
parameter stores) are built inside the function: each of them checked its own
rule when it was built. A generator is checked by each public function that
draws from it, and ``AlignmentTransform`` checks its tensor, so those entries
take them as arguments. Each value that BAD makes
from the valid one replaces each such argument in turn. Nothing here draws
at random, and pyproject's ``error::RuntimeWarning`` filter turns a numpy
warning into a failure.
"""

import inspect
import os

import numpy as np
import pytest

from neucalib import autodiff as ad
from neucalib import encoder as enc
from neucalib import errors
from neucalib import geometry as geo
from neucalib import matching as mt
from neucalib import params as pm
from neucalib import pnp
from neucalib import scene as sc
from neucalib.errors import ConfigError, NeucalibError, ParameterError, SolveError
from test_surface import definitions

CFG = sc.SceneConfig(32, (8, 8))
SCENE = sc.generate_scene(np.random.default_rng(0), CFG)
OVERLAP = np.flatnonzero(SCENE.point_overlap_gt)
PIXELS = np.flatnonzero(SCENE.pixel_overlap_gt)
CENTERS = sc.pixel_centers(SCENE.grid)


def _rng():
    return np.random.default_rng(0)


PARAMS = {**enc.init_encoder_params(_rng(), 8, 8), **mt.init_alignment(_rng(), 8),
          **mt.init_overlap_heads(_rng(), 8)}
WEIGHTS = {name: ad.constant(value) for name, value in PARAMS.items()}  # untracked
F_P, F_I = enc.fuse(*enc.encode(SCENE, WEIGHTS), SCENE, WEIGHTS)
TRANSFORM = mt.AlignmentTransform(WEIGHTS["align.b"], 0.07)
LOGITS = mt.similarity(F_P, F_I, TRANSFORM)
S_P, S_I = mt.overlap_scores(F_P, F_I, WEIGHTS)
PAIRS = sc.build_pairs(SCENE, 1.0, 4.0)
SELECTION = mt.OverlapSelection(OVERLAP, PIXELS, False, False)
PROBLEM = pnp.PnPProblem(SCENE.points[OVERLAP], SCENE.gt_projection[OVERLAP], SCENE.intrinsics)
EYE = geo.RigidPose(np.eye(3), np.zeros(3))
ONES = np.ones((2, 3))


def _error_entry(cls):
    return NeucalibError, lambda: cls("message")


def _load_dataset(data_dir="ds"):
    sc.write_dataset("ds", [SCENE], CFG, 0)
    return sc.load_dataset(data_dir)


def _load_params(path="m.nclp"):
    pm.save_params(PARAMS, "m.nclp")
    return pm.load_params(path)


def _read_file(path="f.bin"):
    errors.write_file("f.bin", b"x", "probe")
    return errors.read_file(path, "probe")


TABLE = {
    # autodiff
    "Block": (NeucalibError, lambda: ad.Block(np.arange(2), ONES, (4, 3))),
    "Tape": (NeucalibError, lambda value=ONES: ad.Tape().parameter(value)),
    "Tensor": (NeucalibError, lambda value=ONES: ad.Tensor(value)),
    "add": (NeucalibError, lambda: ad.add(ad.constant(ONES), ad.constant(ONES))),
    "constant": (NeucalibError, lambda x=ONES: ad.constant(x)),
    "dense": (ParameterError, lambda act="tanh": ad.dense(
        ad.constant(ONES), ad.constant(np.ones((3, 4))), ad.constant(np.zeros((1, 4))), act)),
    "record": (NeucalibError, lambda value=np.ones((1, 1)): ad.record(
        "probe", (ad.Tape().parameter(np.ones((1, 1))),), lambda g: (g,), value)),
    # errors
    **{name: _error_entry(cls) for name, cls in vars(errors).items()
       if isinstance(cls, type) and issubclass(cls, NeucalibError)},
    "check_generator": (ParameterError, lambda rng=_rng(): errors.check_generator(rng)),
    "index_set": (ParameterError, lambda x=np.arange(3): errors.index_set(x, "probe")),
    "is_count": (NeucalibError, lambda x=3: errors.is_count(x, 1)),
    "read_file": (ConfigError, _read_file),
    "real_array": (ParameterError, lambda x=ONES: errors.real_array(x, "probe", ParameterError)),
    "write_file": (ConfigError, lambda path="f.bin", data=b"x": errors.write_file(
        path, data, "probe")),
    # encoder
    "encode": (NeucalibError, lambda: enc.encode(SCENE, WEIGHTS)),
    "fuse": (NeucalibError, lambda: enc.fuse(*enc.encode(SCENE, WEIGHTS), SCENE, WEIGHTS)),
    "init_encoder_params": (ParameterError, lambda rng=_rng(), channels=8, hidden=8,
                            fusion_layers=1: enc.init_encoder_params(rng, channels, hidden,
                                                                     fusion_layers)),
    # geometry
    "CameraIntrinsics": (ParameterError, lambda fx=12.0, fy=12.0, cx=4.0, cy=4.0:
                         geo.CameraIntrinsics(fx, fy, cx, cy)),
    "RigidPose": (ParameterError, lambda rotation=np.eye(3), translation=np.zeros(3),
                  points=ONES: geo.RigidPose(rotation, translation).apply(points)),
    "geodesic_angle": (ParameterError, lambda r_a=np.eye(3), r_b=np.eye(3):
                       geo.geodesic_angle(r_a, r_b)),
    "sample_augmentation": (ParameterError, lambda rng=_rng(), rot_range=0.5, trans_range=1.0:
                            geo.sample_augmentation(rng, rot_range, trans_range)),
    # matching
    "AlignmentTransform": (ParameterError, lambda raw=WEIGHTS["align.b"], temperature=0.07:
                           mt.AlignmentTransform(raw, temperature).matrix()),
    "OverlapSelection": (ParameterError, lambda point_indices=OVERLAP, pixel_indices=PIXELS,
                         point_fallback=False, pixel_fallback=False: mt.OverlapSelection(
                             point_indices, pixel_indices, point_fallback, pixel_fallback)),
    "infonce_loss": (ParameterError, lambda direction="pixel_to_point":
                     mt.infonce_loss(LOGITS, PAIRS, direction)),
    "init_alignment": (ParameterError, lambda rng=_rng(), channels=8:
                       mt.init_alignment(rng, channels)),
    "init_overlap_heads": (ParameterError, lambda rng=_rng(), channels=8:
                           mt.init_overlap_heads(rng, channels)),
    "match_coords": (ParameterError, lambda centers=CENTERS, mode="soft":
                     mt.match_coords(LOGITS, SELECTION, centers, mode)),
    "overlap_bce_loss": (ParameterError, lambda point_labels=SCENE.point_overlap_gt,
                         pixel_labels=SCENE.pixel_overlap_gt:
                         mt.overlap_bce_loss(S_P, S_I, point_labels, pixel_labels)),
    "overlap_scores": (NeucalibError, lambda: mt.overlap_scores(F_P, F_I, WEIGHTS)),
    "similarity": (ParameterError, lambda mode="cosine": mt.similarity(F_P, F_I, TRANSFORM, mode)),
    "threshold_overlap": (ParameterError, lambda theta_p=0.5, theta_i=0.5,
                          gt_point_mask=SCENE.point_overlap_gt,
                          gt_pixel_mask=SCENE.pixel_overlap_gt: mt.threshold_overlap(
                              S_P, S_I, theta_p, theta_i, gt_point_mask, gt_pixel_mask)),
    # params
    "bind": (NeucalibError, lambda value=ONES: pm.bind(ad.Tape(), {"w": value})),
    "check_shapes": (NeucalibError, lambda: pm.check_shapes(PARAMS, PARAMS)),
    "gradients": (NeucalibError, lambda: pm.gradients(pm.bind(ad.Tape(), PARAMS))),
    "load_params": (ConfigError, _load_params),
    "save_params": (NeucalibError, lambda value=ONES, path="w.nclp":
                    pm.save_params({"w": value}, path)),
    # pnp
    "PnPProblem": (SolveError, lambda points=PROBLEM.points, targets=PROBLEM.targets.value,
                   intrinsics=SCENE.intrinsics: pnp.solve_pose(
                       pnp.PnPProblem(points, targets, intrinsics))),
    "PoseEstimate": (NeucalibError, lambda: pnp.PoseEstimate(EYE)),
    "RefinedPose": (NeucalibError, lambda: pnp.RefinedPose(
        ad.constant(np.zeros((3, 4))), pnp.PoseEstimate(EYE), [])),
    "epnp_init": (NeucalibError, lambda: pnp.epnp_init(PROBLEM)),
    "gauss_newton_refine": (SolveError, lambda k_iters=2: pnp.gauss_newton_refine(
        PROBLEM, SCENE.raw_pose, k_iters)),
    "pose_loss": (NeucalibError, lambda: pnp.pose_loss(pnp.solve_pose(PROBLEM), EYE)),
    "solve_pose": (SolveError, lambda k_iters=2: pnp.solve_pose(PROBLEM, k_iters)),
    # scene
    "PairSet": (ParameterError, lambda overlap_points=PAIRS.overlap_points,
                n_pixels=PAIRS.n_pixels, positives=PAIRS.positives, near=PAIRS.near,
                skipped_no_positive=0, skipped_no_negative=0: sc.PairSet(
                    overlap_points, n_pixels, positives, near, skipped_no_positive,
                    skipped_no_negative)),
    "SceneConfig": (ParameterError, lambda n_points=32, grid=(8, 8):
                    sc.SceneConfig(n_points, grid)),
    "SceneSample": (ConfigError, lambda points=SCENE.points, raw_pose=SCENE.raw_pose,
                    grid=SCENE.grid: sc.SceneSample(points, raw_pose, grid).texture),
    "augment_scene": (ParameterError, lambda rot=np.eye(3), trans=np.zeros(3):
                      sc.augment_scene(SCENE, rot, trans)),
    "build_pairs": (ParameterError, lambda r_p=1.0, r_n=4.0: sc.build_pairs(SCENE, r_p, r_n)),
    "generate_scene": (ParameterError, lambda rng=_rng():
                       sc.generate_scene(rng, CFG)),
    "load_dataset": (ConfigError, _load_dataset),
    "pixel_centers": (ParameterError, lambda grid=(8, 8): sc.pixel_centers(grid)),
    "scene_to_bytes": (NeucalibError, lambda: sc.scene_to_bytes(SCENE)),
    "write_dataset": (NeucalibError, lambda out_dir="ds", scenes=[SCENE], config=CFG, seed=0:
                      sc.write_dataset(out_dir, scenes, config, seed)),
}


def _shaped(good, value, dtype=None):
    """``value`` in the shape of ``good`` if that is an array, else as it is."""
    if isinstance(good, np.ndarray):
        return np.full(good.shape, value, dtype)
    return value if dtype is None else np.array(value, dtype)


def _one_entry(good, value):
    """``good`` with its first entry set to ``value``, as floats, if it is a
    non-empty array; else ``value``."""
    if not (isinstance(good, np.ndarray) and good.size):
        return value
    bad = good.astype(np.float64)
    bad.flat[0] = value
    return bad


# each bad value, made from the valid one that it replaces
BAD = {
    "ndim_3": lambda good: np.zeros((2, 2, 2)),
    "shape_3x5": lambda good: np.zeros((3, 5)),
    "empty": lambda good: good[:0] if isinstance(good, (np.ndarray, str, bytes, list, tuple))
    else np.zeros(0),
    "nan": lambda good: _one_entry(good, np.nan),
    "inf": lambda good: _one_entry(good, np.inf),
    "-inf": lambda good: _one_entry(good, -np.inf),
    "complex": lambda good: _shaped(good, 1.0 + 1.0j),
    "bool": lambda good: _shaped(good, True),
    "object": lambda good: _shaped(good, None, object),
    "str": lambda good: _shaped(good, "1"),
    "numpy_float": lambda good: np.float64(0.5),
    "numpy_int": lambda good: np.int64(4),
    "none": lambda good: None,
    "ragged": lambda good: [[1.0, 2.0], [3.0]],
    "surrogate": lambda good: "\ud800",
}

CASES = [(name, arg, case) for name, (_, call) in sorted(TABLE.items())
         for arg in inspect.signature(call).parameters for case in BAD]


@pytest.fixture(scope="module", autouse=True)
def _in_scratch_directory(tmp_path_factory):
    """The table's paths are relative: run every call in one scratch directory."""
    home = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("contract"))
    yield
    os.chdir(home)


def test_table_has_an_entry_for_every_public_name():
    assert sorted(TABLE) == sorted(definitions())


@pytest.mark.parametrize("name", sorted(TABLE))
def test_valid_call_returns(name):
    TABLE[name][1]()


@pytest.mark.parametrize("name, arg, case", CASES, ids=[f"{n}-{a}-{c}" for n, a, c in CASES])
def test_bad_input_returns_or_raises_its_error(name, arg, case):
    error, call = TABLE[name]
    good = inspect.signature(call).parameters[arg].default
    try:
        call(**{arg: BAD[case](good)})
    except error:
        pass
