"""Numbers at the edge of what the library takes.

``test_bound_holds_at_the_edge`` holds each field that takes numbers from
outside to its bound, ``geometry.MAX_MAGNITUDE`` (and 1 / it from below on a
focal length or a temperature) or, for a rotation entry,
1 + ``geometry.ORTHONORMALITY_TOL``: the bound itself passes, the next double
past it does not. ``test_extreme_record_calibrates_or_raises`` runs
valid but extreme scenes through every call of the calibration path, with
numpy's warnings as errors: each call returns finite values or raises a
NeucalibError, and each record ends where its row says.
"""

import numpy as np
import pytest

from neucalib import autodiff as ad
from neucalib import encoder as enc
from neucalib import geometry as geo
from neucalib import matching as mt
from neucalib import pnp
from neucalib import scene as sc
from neucalib.errors import ConfigError, DegenerateBatchError, ParameterError, SolveError

M = geo.MAX_MAGNITUDE
PAST = np.nextafter(M, np.inf)
EYE = geo.RigidPose(np.eye(3), np.zeros(3))
BASE = sc.generate_scene(np.random.default_rng(0), sc.SceneConfig(32, (8, 8)))
ON = BASE.point_overlap_gt
CAM = BASE.raw_pose.apply(BASE.points)  # camera frame; a scene with pose EYE keeps its labels

PARAMS = {**enc.init_encoder_params(np.random.default_rng(0), 8, 8),
          **mt.init_alignment(np.random.default_rng(0), 8),
          **mt.init_overlap_heads(np.random.default_rng(0), 8)}
WEIGHTS = {name: ad.constant(value) for name, value in PARAMS.items()}
FEATURES = enc.fuse(*enc.encode(BASE, WEIGHTS), BASE, WEIGHTS)


def _with(good: np.ndarray, value: float) -> np.ndarray:
    """A copy of ``good`` with its first entry ``value``."""
    out = np.array(good, dtype=np.float64)
    out.flat[0] = value
    return out


def _turn(x: float) -> np.ndarray:
    """diag(x, x, 1), a rotation at x = +-1."""
    return np.diag([x, x, 1.0])


def _intrinsics(field: str):
    return lambda x: geo.CameraIntrinsics(**{"fx": 12.0, "fy": 12.0, "cx": 4.0, "cy": 4.0,
                                             field: x})


SYMMETRIC = ((M, -M), (PAST, -PAST))  # the values accepted, then those refused
FOCAL = ((M, 1 / M), (PAST, np.nextafter(1 / M, 0), 1e-200, 1e-300))
# a temperature is bounded as a focal length is; similarity's matmul met inf at 1e-320
TEMPERATURE = (FOCAL[0], (*FOCAL[1], 1e-320))
RANGE = ((0.0, M), (PAST, 1e308))  # numpy's uniform raised OverflowError on 1e308
# a rotation entry is bounded by 1 + ORTHONORMALITY_TOL; R^T R overflowed on 1e300
ROTATION = ((1.0, -1.0), (np.nextafter(1.0 + geo.ORTHONORMALITY_TOL, 2.0), 1e300))
# each bounded field: its error, a call that puts a value into it, and its edges
BOUNDED = {
    "RigidPose.translation": (ParameterError, lambda x: geo.RigidPose(np.eye(3), [0.0, x, 0.0]),
                              SYMMETRIC),
    "RigidPose.apply": (ParameterError, lambda x: EYE.apply(_with(CAM, x)), SYMMETRIC),
    "RigidPose.rotation": (ParameterError, lambda x: geo.RigidPose(_turn(x), np.zeros(3)),
                           ROTATION),
    "geodesic_angle.r_a": (ParameterError, lambda x: geo.geodesic_angle(_turn(x), np.eye(3)),
                           ROTATION),
    "sample_augmentation.rot_range": (ParameterError, lambda x: geo.sample_augmentation(
        np.random.default_rng(0), x, 1.0), RANGE),
    "sample_augmentation.trans_range": (ParameterError, lambda x: geo.sample_augmentation(
        np.random.default_rng(0), 0.5, x), RANGE),
    "AlignmentTransform.temperature": (ParameterError, lambda x: mt.similarity(
        *FEATURES, mt.AlignmentTransform(WEIGHTS["align.b"], x)), TEMPERATURE),
    "CameraIntrinsics.fx": (ParameterError, _intrinsics("fx"), FOCAL),
    "CameraIntrinsics.fy": (ParameterError, _intrinsics("fy"), FOCAL),
    "CameraIntrinsics.cx": (ParameterError, _intrinsics("cx"), SYMMETRIC),
    "CameraIntrinsics.cy": (ParameterError, _intrinsics("cy"), SYMMETRIC),
    "SceneSample.points": (ConfigError, lambda x: sc.SceneSample(_with(BASE.points, x), EYE,
                                                                  BASE.grid), SYMMETRIC),
    "PnPProblem.points": (SolveError, lambda x: pnp.PnPProblem(
        _with(BASE.points[ON], x), BASE.gt_projection[ON], BASE.intrinsics), SYMMETRIC),
    "PnPProblem.targets": (SolveError, lambda x: pnp.PnPProblem(
        BASE.points[ON], _with(BASE.gt_projection[ON], x), BASE.intrinsics), SYMMETRIC),
}
EDGES = [(name, x, accepted) for name, (_, _, edges) in BOUNDED.items()
         for accepted, values in zip((True, False), edges) for x in values]


@pytest.mark.parametrize("name, x, accepted", EDGES,
                         ids=[f"{name}-{float(x)!r}" for name, x, _ in EDGES])
def test_bound_holds_at_the_edge(name, x, accepted):
    # with a focal length of 1e-200 or 1e-300, EPnP's normal matrix overflowed
    # and numpy's warning or LinAlgError escaped solve_pose
    error, build, _ = BOUNDED[name]
    if accepted:
        build(x)
    else:
        with pytest.raises(error):
            build(x)


def _grid_scene(grid) -> sc.SceneSample:
    """The overlapping points of BASE squeezed, at their depths, onto a
    smaller grid under its own camera."""
    uv = BASE.gt_projection[ON] * (grid[1] / 8.0, grid[0] / 8.0)
    return sc.SceneSample(sc._unproject(uv, CAM[ON, 2], sc._camera(grid)), EYE, grid)


def _huge_scene() -> sc.SceneSample:
    pts = np.clip(CAM * (M / np.abs(CAM).max()), -M, M)
    return sc.SceneSample(np.vstack([pts, [[0.0, 0.0, M], [M, -M, M], [-M, M, -M]]]), EYE,
                          BASE.grid)


# each valid but extreme scene, and the error that ends its calibration (None: a
# pose). The labels select the points, so exactly MIN_CORRESPONDENCES reach the
# solver from "min_correspondences"; there, and on the one-pixel grid, the
# untrained weights' targets drive a point behind the camera during refinement
RECORDS = {
    "all_behind_camera": (lambda: sc.SceneSample(
        np.column_stack([CAM[:, :2], -np.abs(CAM[:, 2])]), EYE, BASE.grid), DegenerateBatchError),
    "duplicated_points": (lambda: sc.SceneSample(np.repeat(CAM[ON][:1], 32, axis=0), EYE,
                                                 BASE.grid), SolveError),
    "min_correspondences": (lambda: sc.SceneSample(
        np.vstack([CAM[ON][:pnp.MIN_CORRESPONDENCES], CAM[~ON]]), EYE, BASE.grid), SolveError),
    "one_row_grid": (lambda: _grid_scene((1, 8)), None),
    "one_pixel_grid": (lambda: _grid_scene((1, 1)), SolveError),
    "points_at_max_magnitude": (_huge_scene, None),
    "points_at_1e-300": (lambda: sc.SceneSample(CAM * 1e-300, EYE, BASE.grid),
                         DegenerateBatchError),
}

THETA = np.nextafter(1.0, 0.0)  # no unsaturated score passes, so the selection is the labels'


def _finite(*values):
    for value in values:
        assert np.isfinite(value).all()


def _calibrate(scene: sc.SceneSample):
    """Every call of the calibration path, each checked to return finite values."""
    f_p, f_i = enc.encode(scene, WEIGHTS)
    _finite(f_p.value, f_i.value)
    f_p, f_i = enc.fuse(f_p, f_i, scene, WEIGHTS)
    _finite(f_p.value, f_i.value)
    logits = mt.similarity(f_p, f_i, mt.AlignmentTransform(WEIGHTS["align.b"], 0.07))
    _finite(logits.value)
    s_p, s_i = mt.overlap_scores(f_p, f_i, WEIGHTS)
    _finite(s_p.value, s_i.value)
    selection = mt.threshold_overlap(s_p, s_i, THETA, THETA, scene.point_overlap_gt,
                                     scene.pixel_overlap_gt)
    coords = mt.match_coords(logits, selection, sc.pixel_centers(scene.grid))
    _finite(coords.value)
    problem = pnp.PnPProblem(scene.points[selection.point_indices], coords, scene.intrinsics)
    refined = pnp.solve_pose(problem)
    _finite(refined.pose.value, refined.objectives)
    return refined


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(RECORDS))
def test_extreme_record_calibrates_or_raises(name):
    build, error = RECORDS[name]
    if error is None:
        _calibrate(build())
    else:
        with pytest.raises(error):
            _calibrate(build())
