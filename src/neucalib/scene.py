"""Synthetic camera/point-cloud scenes with exact overlap ground truth.

A scene stands in for a real LiDAR+camera pair: points are sampled from a
few planar patches plus box noise in front of the camera, mapped into a
"sensor" frame by the inverse of a random raw pose, and labeled by exact
projection. The feature grid H' x W' doubles as the image: pixel (row v,
col u) has its center at continuous coordinates (u, v) and flat index
v * W' + u. Only the scene size is configurable; the camera, depth band,
patch layout, overlap band and pose spreads are module constants.

A scene is its points, raw pose and grid, and every label follows from them
by one rule: a point overlaps iff it lies in front of the camera and projects
inside the grid. ``_grid_projection`` states that rule and ``_unproject``
inverts it. ``SceneSample`` derives the labels and the pixel texture, and no
other library module reads the raw pose or a label.

A dataset is one little-endian file, ``scenes.nclr``, of format version 4:
a head of the magic ``NCLD``, the version and scene count as uint32, the seed
as uint64 and the size N, H' and W' as uint32, then one ``_layout(N)`` record
a scene, its raw pose's rotation and translation and N x 3 points as float64.
The same seed writes a bit-identical file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from . import geometry as geo
from .errors import (ConfigError, GenerationError, ParameterError, check_generator, index_set,
                     is_count, read_file, real_array, write_file)

DATASET_MAGIC = b"NCLD"
FORMAT_VERSION = 4
DATASET_FILE = "scenes.nclr"
_DATASET_HEAD = np.dtype([("magic", "S4"), ("version", "<u4"), ("count", "<u4"), ("seed", "<u8"),
                          ("n", "<u4"), ("h", "<u4"), ("w", "<u4")])

FOCAL_PX = 12.0
Z_NEAR, Z_FAR = 4.0, 20.0  # meters, depth band of the in-frustum points
N_PATCHES = 3
NOISE_FRACTION = 0.25  # in-frustum points drawn as box noise, not patches
OVERLAP_BAND = (0.6, 0.9)  # target in-frustum fraction
POSE_ROT_SPREAD = 0.3  # radians, raw-pose rotation magnitude
POSE_TRANS_SPREAD = 1.0  # meters, raw-pose translation magnitude
PATCH_PLANES = 10  # plane draws per patch before generation gives up
MIN_OVERLAP = 8  # overlapping points per scene, headroom for the pose solver
_MAX_PIXELS = 1 << 16  # per grid; the dataset head alone sizes its grid
_TEXTURE_BLOCK = 1 << 19  # squared distances per block of the texture's argmin; 512/24² is one


@dataclass(frozen=True)
class SceneConfig:
    """Scene size; the defaults give a 256-point, 16 x 16 grid scene.

    ``n_points`` is an integer of at least ``MIN_OVERLAP`` and ``grid`` passes
    ``_is_grid`` with sides >= 4; numpy integers are stored as ints.
    """

    n_points: int = 256
    grid: tuple[int, int] = (16, 16)  # (H', W')

    def __post_init__(self):
        if not is_count(self.n_points, MIN_OVERLAP):
            raise ParameterError(f"n_points must be an integer >= {MIN_OVERLAP}: {self.n_points!r}")
        if not _is_grid(self.grid, 4):
            raise ParameterError(f"grid must be a tuple of two integers >= 4 "
                                 f"of at most {_MAX_PIXELS} pixels: {self.grid!r}")
        object.__setattr__(self, "n_points", int(self.n_points))
        object.__setattr__(self, "grid", (int(self.grid[0]), int(self.grid[1])))


def _is_grid(grid, least: int) -> bool:
    """Whether ``grid`` is a tuple of two integers >= ``least`` of at most
    ``_MAX_PIXELS`` pixels."""
    return (isinstance(grid, tuple) and len(grid) == 2 and all(is_count(g, least) for g in grid)
            and int(grid[0]) * int(grid[1]) <= _MAX_PIXELS)


@lru_cache(maxsize=16)  # a grid's camera, FOCAL_PX centred on it, shared by its scenes
def _camera(grid: tuple[int, int]) -> geo.CameraIntrinsics:
    return geo.CameraIntrinsics(fx=FOCAL_PX, fy=FOCAL_PX, cx=grid[1] / 2.0, cy=grid[0] / 2.0)


@dataclass(frozen=True)
class SceneSample:
    """One synthetic scene from three inputs: ``points`` (N x 3, sensor
    frame), ``raw_pose`` and ``grid`` (H', W'). Five attributes are derived:
    ``intrinsics``, the grid's camera; ``gt_projection``, each point's pixel
    coordinates under the raw pose, a row of NaN where it misses the grid;
    ``point_overlap_gt``, the N rows of ``gt_projection`` not all NaN;
    ``pixel_overlap_gt``, the H'W' pixels within Chebyshev distance 1 of one
    of those rows; and ``texture``, the image stand-in: for each of the H'W'
    pixels the camera-frame depth of the overlapping point projected nearest
    its center (ties to the lower index), or 0 with no overlap. Each derived
    array is computed once and is read-only. A sample checks the scene rule
    where it is built, or raises ``ConfigError``: ``grid`` passes ``_is_grid``
    with sides >= 1, ``points`` is an N x 3 float64 array within
    ``geo.MAX_MAGNITUDE``, and ``raw_pose`` is a ``RigidPose``.
    """

    points: np.ndarray  # N x 3, sensor frame
    raw_pose: geo.RigidPose
    grid: tuple[int, int]  # (H', W')

    def __post_init__(self):
        if not _is_grid(self.grid, 1):
            raise ConfigError(f"scene grid {self.grid!r} is not two integers >= 1 of at most "
                              f"{_MAX_PIXELS} pixels")
        pts = self.points
        if not (isinstance(pts, np.ndarray) and pts.ndim == 2 and pts.shape[1] == 3
                and pts.dtype == "float64" and (abs(pts) <= geo.MAX_MAGNITUDE).all()):
            raise ConfigError("scene points are not an N x 3 float64 array within MAX_MAGNITUDE")
        if not isinstance(self.raw_pose, geo.RigidPose):
            raise ConfigError(f"scene raw pose is not a RigidPose: {type(self.raw_pose).__name__}")

    @property
    def intrinsics(self) -> geo.CameraIntrinsics:
        return _camera(self.grid)

    @cached_property
    def gt_projection(self) -> np.ndarray:  # N x 2, NaN where not overlapping
        cam = self.raw_pose.apply(self.points)
        return _read_only(_grid_projection(cam, self.intrinsics, self.grid))

    @cached_property
    def point_overlap_gt(self) -> np.ndarray:  # N bool
        return _read_only(~np.isnan(self.gt_projection).all(axis=1))

    @cached_property
    def pixel_overlap_gt(self) -> np.ndarray:  # H'*W' bool
        uv = self.gt_projection[self.point_overlap_gt]
        return _read_only(_label_pixel_overlap(uv, self.grid))

    @cached_property
    def texture(self) -> np.ndarray:  # H'*W' float64
        (h, w), overlap = self.grid, np.flatnonzero(self.point_overlap_gt)
        if overlap.size == 0:
            return _read_only(np.zeros(h * w))
        u, v = self.gt_projection[overlap].T
        depth = self.raw_pose.apply(self.points[overlap])[:, 2]
        rows = max(1, _TEXTURE_BLOCK // (w * overlap.size))  # whole grid rows per block,
        cols = min(w, max(1, _TEXTURE_BLOCK // overlap.size))  # or parts of a row that exceeds it
        cu, cv = np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64)
        nearest = [_nearest(cu[c:c + cols], cv[r:r + rows], u, v)
                   for r in range(0, h, rows) for c in range(0, w, cols)]
        return _read_only(depth[np.concatenate(nearest)])

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _nearest(cu: np.ndarray, cv: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The index of the point (u, v) nearest each pixel center of columns ``cu``
    and rows ``cv``, row-major, ties to the lower. A one-row block is as large
    as its column offsets, so it sums into them in place."""
    du, dv = np.subtract.outer(cu, u)[None], np.subtract.outer(cv, v)[:, None]
    du *= du
    dv *= dv
    return np.argmin(np.add(dv, du, out=du if cv.size == 1 else None), axis=2).ravel()


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a sample's derived arrays are shared by every reader."""
    a.flags.writeable = False
    return a


def pixel_centers(grid: tuple[int, int]) -> np.ndarray:
    """(H'*W') x 2 array of (u, v) centers in flat row-major order of a grid
    that passes ``_is_grid`` with sides >= 1."""
    if not _is_grid(grid, 1):
        raise ParameterError(f"grid must be a tuple of two integers >= 1 of at most "
                             f"{_MAX_PIXELS} pixels, got {grid!r}")
    h, w = grid
    v, u = np.mgrid[0:h, 0:w]
    return np.stack([u.reshape(-1), v.reshape(-1)], axis=1).astype(np.float64)


def _grid_projection(cam_pts, k: geo.CameraIntrinsics, grid: tuple[int, int]) -> np.ndarray:
    """The pinhole model: N x 2 pixels (u, v) of N x 3 float64 camera-frame points,
    a NaN row at depth ``geo.MIN_DEPTH`` or less or outside [0, W') x [0, H'). Only
    rows in front are divided, so bounded points raise no numpy warning."""
    front = np.flatnonzero(cam_pts[:, 2] > geo.MIN_DEPTH)
    uv = cam_pts[front, :2] * (k.fx, k.fy) / cam_pts[front, 2:] + (k.cx, k.cy)
    inside = ((uv >= 0) & (uv < grid[::-1])).all(axis=1)
    coords = np.full((cam_pts.shape[0], 2), np.nan)
    coords[front[inside]] = uv[inside]
    return coords


def _unproject(coords: np.ndarray, depth: np.ndarray, k: geo.CameraIntrinsics) -> np.ndarray:
    """Inverse of :func:`_grid_projection`: finite N x 2 float64 pixels at N
    depths to N x 3 camera-frame points."""
    return np.column_stack([(coords - (k.cx, k.cy)) / (k.fx, k.fy) * depth[:, None], depth])


def _window_pixels(uv: np.ndarray, radius: float,
                   grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Pixels whose centers lie in the square window ceil(uv - radius) ...
    floor(uv + radius) around each row of ``uv``, clipped to the grid.

    ``uv`` is K x 2 and finite. Returns (row, pixel): the row of ``uv`` and
    the flat pixel index of each pair, ordered by row, then by pixel. The
    work is O(K r^2), capped at O(K H' W') once the window covers the grid.
    """
    h, w = grid
    lo = np.maximum(np.ceil(uv - radius), 0.0).astype(np.int64)
    hi = np.minimum(np.floor(uv + radius), [w - 1.0, h - 1.0]).astype(np.int64)
    span = hi - lo + 1  # K x 2, zero or less for an empty window
    offs_u = np.arange(max(int(span[:, 0].max(initial=0)), 0))
    offs_v = np.arange(max(int(span[:, 1].max(initial=0)), 0))
    inside = (offs_v < span[:, 1:])[:, :, None] & (offs_u < span[:, :1])[:, None, :]
    row, dv, du = np.nonzero(inside)
    return row, (lo[row, 1] + dv) * w + lo[row, 0] + du


def _label_pixel_overlap(uv: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """Pixel (u, v) overlaps iff one of the overlapping projections ``uv``
    (K x 2, inside the grid) lies within Chebyshev distance 1 of its center."""
    labels = np.zeros(grid[0] * grid[1], dtype=bool)
    labels[_window_pixels(uv, 1.0, grid)[1]] = True
    return labels


@dataclass(frozen=True)
class PairSet:
    """Positive and near point-pixel pairs for the contrastive losses.

    Pairs are flat indices ``i * n_pixels + pixel`` into the block of the
    overlapping points' rows that InfoNCE reads, for the i-th point of
    ``overlap_points``, each field ascending. ``near`` holds every pair
    within r_n, positives included; an overlapping point's negatives are all
    the pixels outside its near list, and a pixel's negatives are all the
    overlapping points outside it. ``skipped_no_positive`` /
    ``skipped_no_negative`` count overlapping points excluded from the loss.

    It checks the pair rule where it is built, or raises ``ParameterError``:
    ``n_pixels`` is an intp count >= 1, the index fields are index sets and
    no pair lies past the block's rows. ``infonce_loss`` fits it to logits.
    """

    overlap_points: np.ndarray  # ascending indices of the overlapping points
    n_pixels: int
    positives: np.ndarray  # flat pairs at distance < r_p
    near: np.ndarray  # flat pairs at distance <= r_n
    skipped_no_positive: int
    skipped_no_negative: int

    def __post_init__(self):
        if not (is_count(self.n_pixels, 1) and self.n_pixels <= np.iinfo(np.intp).max):
            raise ParameterError(f"pairs.n_pixels must be an intp integer >= 1: {self.n_pixels!r}")
        rows = index_set(self.overlap_points, "pairs.overlap_points").size
        for name in ("positives", "near"):
            pairs = index_set(getattr(self, name), f"pairs.{name}")
            # a bound on the row, not on rows * n_pixels, which can wrap
            if pairs.size and pairs[-1] // self.n_pixels >= rows:
                raise ParameterError(f"pairs.{name} reach row {pairs[-1] // self.n_pixels} "
                                     f"of a block of {rows} overlapping points")


def build_pairs(sample: SceneSample, r_p: float, r_n: float) -> PairSet:
    """Distance-margin pair labeling around each overlapping point.

    Positives are pixels strictly closer than r_p to the point's projection;
    negatives strictly farther than r_n; the annulus in between belongs to
    neither set. A pair is ``i * H'W' + pixel`` for the i-th overlapping
    point. Only the pixels in each projection's r_n window are visited, so
    the work is O(N r_n^2) rather than O(N H' W').
    """
    margins = real_array((r_p, r_n), "margins", ParameterError)
    if not (margins.shape == (2,) and 0.0 < margins[0] < margins[1]):
        raise ParameterError(f"margins must satisfy 0 < r_p < r_n, got {(r_p, r_n)}")
    return _label_pairs(sample.gt_projection, sample.grid, r_p, r_n)


def _label_pairs(proj: np.ndarray, grid: tuple[int, int], r_p: float, r_n: float) -> PairSet:
    """``build_pairs`` on N x 2 projections ``proj`` (a row of NaN for a point
    that does not overlap, any other row inside ``grid``), for margins
    0 < r_p < r_n."""
    m = grid[0] * grid[1]
    overlap = np.flatnonzero(~np.isnan(proj).all(axis=1))
    uv = proj[overlap]
    row, pixel = _window_pixels(uv, r_n, grid)
    v, u = np.divmod(pixel, grid[1])
    dx, dy = uv[row, 0] - u, uv[row, 1] - v
    dist = np.sqrt(dx * dx + dy * dy)
    near = dist <= r_n
    row, pairs, pos = row[near], row[near] * m + pixel[near], dist[near] < r_p
    has_pos = np.bincount(row[pos], minlength=overlap.size) > 0
    has_neg = np.bincount(row, minlength=overlap.size) < m
    return PairSet(overlap, m, pairs[pos], pairs, int((~has_pos).sum()),
                   int((has_pos & ~has_neg).sum()))


def _uniform(rng: np.random.Generator, low: float, high: float, size=None):
    """``rng.uniform(low, high, size)`` at a fraction of its per-call cost:
    the same doubles from the same 64-bit words of the generator, because
    numpy's C computes each as ``low + (high - low) * next_double`` and
    ``rng.random`` returns ``next_double`` (numpy 1.24 through 2.4). The
    identity needs that C built without fused multiply-add, as numpy's
    x86-64 Linux wheels are; ``TestUniformDraw`` pins it."""
    return low + (high - low) * rng.random(size)


def _sample_raw_pose(rng: np.random.Generator) -> geo.RigidPose:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = _uniform(rng, -POSE_ROT_SPREAD, POSE_ROT_SPREAD)
    t = rng.uniform(-POSE_TRANS_SPREAD, POSE_TRANS_SPREAD, 3)
    return geo.RigidPose(geo._rotation_from_axis_angle(axis, angle), t)


def _sample_patch(rng: np.random.Generator, k: geo.CameraIntrinsics,
                  grid: tuple[int, int], size: int) -> np.ndarray:
    """``size`` camera-frame points on one planar patch, drawing a new plane
    whenever ``100 * size`` attempts on the current one leave it short.

    Each uniform draw, the plane's scalars and a batch's (u, v) offsets in
    [-radius, radius), is ``rng.uniform``'s double through ``_uniform``.
    A ray is ``_unproject`` of its (u, v) at depth 1.0.
    """
    h, w = grid
    edge = np.array([w - 0.1, h - 0.1])
    for _ in range(PATCH_PLANES):
        center_uv = np.array([_uniform(rng, 1.0, w - 1.0), _uniform(rng, 1.0, h - 1.0)])
        z0 = _uniform(rng, Z_NEAR, Z_FAR)
        q0 = _unproject(center_uv[None, :], np.array([z0]), k)[0]
        normal = q0 / np.linalg.norm(q0) + 0.5 * rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        radius = _uniform(rng, 1.5, max(2.0, min(h, w) / 2.0))
        offset = q0 @ normal
        pts, got, attempts = [], 0, 0
        while got < size and attempts < 100 * size:
            state, need = rng.bit_generator.state, size - got
            batch = min(2 * need, 100 * size - attempts)
            uv = center_uv + _uniform(rng, -radius, radius, (batch, 2))
            rays = _unproject(uv, np.ones(batch), k)
            denom = np.matmul(rays[:, None, :], normal)[:, 0]
            ok = ((0.1 <= uv) & (uv <= edge)).all(axis=1) & (np.abs(denom) >= 1e-3)
            z = offset / np.where(ok, denom, 1.0)
            ok &= (0.5 * Z_NEAR <= z) & (z <= 1.5 * Z_FAR)
            hits = np.flatnonzero(ok)
            if hits.size >= need and hits[need - 1] + 1 < batch:
                # the sequential loop stops at the attempt that completes the
                # patch: rewind the generator and redraw only the attempts made
                batch = int(hits[need - 1]) + 1
                rng.bit_generator.state = state
                rng.random((batch, 2))
                ok[batch:] = False
            attempts += batch
            pts.append(rays[ok] * z[ok, None])
            got += np.count_nonzero(ok)
        if got == size:
            return np.vstack(pts)
    raise GenerationError("could not place a planar patch inside the frustum "
                          f"on any of {PATCH_PLANES} planes")


def _sample_in_frustum(rng: np.random.Generator, k: geo.CameraIntrinsics,
                       grid: tuple[int, int], count: int) -> np.ndarray:
    """Camera-frame points from planar patches plus box noise, all of which
    project inside the grid with depth in a safe band.

    The draws are those of a loop making one attempt at a time: a patch
    draws batches of twice the attempts it still needs, and rewinds the
    generator to just after the attempt that completes it, so no attempt
    that the loop would not have made stays drawn; the noise draws its
    (u, v, z) triples in row-major order. The ray-plane dot
    product goes one row at a time, through a stacked matmul, because a
    matrix-vector product or a written-out sum rounds differently in some
    rows and would move points.
    """
    h, w = grid
    n_noise = int(round(count * NOISE_FRACTION))
    n_patch = count - n_noise
    # count >= MIN_OVERLAP gives n_patch >= 6, so each patch gets at least 2 points
    sizes = np.full(N_PATCHES, n_patch // N_PATCHES)
    sizes[: n_patch - sizes.sum()] += 1
    pts = [_sample_patch(rng, k, grid, size) for size in sizes]
    uvz = rng.uniform([0.1, 0.1, Z_NEAR], [w - 0.1, h - 0.1, Z_FAR], (n_noise, 3))
    pts.append(_unproject(uvz[:, :2], uvz[:, 2], k))
    return np.vstack(pts)


def _sample_out_of_frustum(rng: np.random.Generator, k: geo.CameraIntrinsics,
                           grid: tuple[int, int], count: int) -> np.ndarray:
    """Camera-frame points that do not overlap the grid.

    No point can overlap: one behind the camera has depth at most -1, below
    ``geo.MIN_DEPTH``, and one in the side cone is unprojected from a pixel
    column at least 2 px outside [0, W'). The check at the end guards that
    argument.

    The draws are those of a loop that, for each point, draws the coin
    ``rng.random() < 0.5``; then behind the camera x, y and minus the depth
    through ``_uniform`` over (-Z_FAR, Z_FAR), (-Z_FAR, Z_FAR) and (1, Z_FAR),
    or in the side cone the column's magnitude over (W' + 2, 3 W'), its sign
    ``(-1.0, 1.0)[rng.integers(2)]``, v over (-H', 2 H') and the depth over
    (Z_NEAR, Z_FAR). They are replayed from the raw 64-bit words of a
    ``PCG64``: a double is ``(word >> 11) * 2**-53``, so the coin is the
    word's top bit, and ``integers(2)`` is bit 31 of a 32-bit half-word, the
    one the state holds (``has_uint32``, ``uinteger``), or else the low half
    of the next word, whose high half the state then holds. So a point takes
    four words, five in the side cone when no half is held. The words of the
    longest walk are drawn at once, the generator is then left where the loop
    leaves it, and each value is ``_uniform``'s ``low + (high - low) * d``.
    """
    h, w = grid
    bits = rng.bit_generator
    state = bits.state
    words = bits.random_raw(5 * count)
    top, low = (words >> 63).tolist(), (words >> 31 & 1).tolist()
    held, held_bit, held_at = state["has_uint32"], state["uinteger"] >> 31, None
    side, first, rest, sign = [], [], [], []  # rest: the word of y or v, then depth's
    at = 0
    for _ in range(count):
        side.append(top[at])
        first.append(at + 1)
        if top[at]:
            if not held:
                held_bit, held_at = top[at + 2], at + 2
                sign.append(low[at + 2])
                at += 1
            else:
                sign.append(held_bit)
            held = not held
        at += 4
        rest.append(at - 2)
    if held_at is not None:
        state["uinteger"] = int(words[held_at]) >> 32
    state["has_uint32"] = int(held)
    bits.state = state  # the entry's position, holding the half-word the loop holds
    bits.random_raw(at)

    side = np.array(side, dtype=bool)
    lo = np.where(side[:, None], (w + 2.0, -h, Z_NEAR), (-Z_FAR, -Z_FAR, 1.0))
    hi = np.where(side[:, None], (3.0 * w, 2.0 * h, Z_FAR), Z_FAR)
    d = ((words >> 11) * 2.0 ** -53)[np.array([first, rest, np.add(rest, 1)], np.intp).T]
    pts = lo + (hi - lo) * d
    pts[side, 0] *= np.where(sign, 1.0, -1.0)
    pts[~side, 2] *= -1.0
    pts[side] = _unproject(pts[side, :2], pts[side, 2], k)
    hits = np.count_nonzero(~np.isnan(_grid_projection(pts, k, grid)).all(axis=1))
    if hits:
        raise GenerationError(f"{hits} out-of-frustum points overlap the grid")
    return pts


def generate_scene(rng: np.random.Generator, config: SceneConfig) -> SceneSample:
    """Deterministic scene generation: same generator state, same scene.

    The in-frustum fraction is drawn from ``OVERLAP_BAND`` and realized
    by construction (in-frustum points are sampled through the camera model),
    with a floor of ``MIN_OVERLAP`` overlapping points. ``rng`` is a
    ``np.random.Generator`` on ``PCG64``, as ``np.random.default_rng`` makes,
    whose stream ``_sample_out_of_frustum`` replays, or a ``ParameterError``
    is raised before any draw.
    """
    check_generator(rng)
    k = _camera(config.grid)
    raw_pose = _sample_raw_pose(rng)
    frac = _uniform(rng, *OVERLAP_BAND)
    n_in = min(config.n_points, max(MIN_OVERLAP, int(round(frac * config.n_points))))

    cam_pts = np.vstack([_sample_in_frustum(rng, k, config.grid, n_in),
                         _sample_out_of_frustum(rng, k, config.grid, config.n_points - n_in)])
    cam_pts = cam_pts[rng.permutation(config.n_points)]
    points = cam_pts @ raw_pose.rotation + -raw_pose.rotation.T @ raw_pose.translation

    sample = SceneSample(points, raw_pose, config.grid)
    overlap = np.count_nonzero(sample.point_overlap_gt)
    if overlap < MIN_OVERLAP:
        raise GenerationError(f"only {overlap} overlapping points after construction")
    return sample


def augment_scene(sample: SceneSample, rot: np.ndarray, trans: np.ndarray) -> SceneSample:
    """Points move, labels stay: p' = R_r (p + t_r) for the ``RigidPose`` of
    ``rot`` and ``trans``, translated first, the one order under which the
    recomputed pose R_gt = R_raw R_r^-1, t_gt = t_raw - R_raw t_r gives
    R_gt p' + t_gt = R_raw p + t_raw. The derived projections move by rounding
    alone, and a label carries over unless a projection lies within that
    rounding of its boundary."""
    aug, raw = geo.RigidPose(rot, trans), sample.raw_pose
    points = (sample.points + aug.translation) @ aug.rotation.T
    r_gt, t_gt = raw.rotation @ aug.rotation.T, raw.translation - raw.rotation @ aug.translation
    try:
        return replace(sample, points=points, raw_pose=geo.RigidPose(r_gt, t_gt))
    except ConfigError as err:  # the moved points pass the scene's bound
        raise ParameterError(f"augmented scene out of range: {err}") from err


# --- binary scene format -------------------------------------------------

@lru_cache(maxsize=16)  # a dataset's records share one size
def _layout(n: int) -> np.dtype:
    if (n + 4) * 24 > np.iinfo(np.intc).max:  # N + 4 rows of 3 doubles; numpy sizes it in a C int
        raise ConfigError(f"a scene of {n} points does not fit the scene format")
    return np.dtype([("rotation", "<f8", (3, 3)), ("translation", "<f8", (3,)),
                     ("points", "<f8", (n, 3))])


def scene_to_bytes(sample: SceneSample) -> bytes:
    """A sample's record, its raw pose and points; the sample checked itself when built."""
    pose = sample.raw_pose
    return np.array((pose.rotation, pose.translation, sample.points),
                    _layout(sample.n_points)).tobytes()


def write_dataset(out_dir, scenes: list[SceneSample], config: SceneConfig,
                  seed: int) -> None:
    """Write ``out_dir/scenes.nclr`` once ``config`` is a ``SceneConfig`` whose
    N a record holds, ``scenes`` a list of fewer than 2**32 ``SceneSample`` of
    its size and ``seed`` an integer in [0, 2**64); the head holds its size."""
    if not (is_count(seed, 0) and seed < 2 ** 64):
        raise ParameterError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if not isinstance(config, SceneConfig):
        raise ParameterError(f"config must be a SceneConfig, got {type(config).__name__}")
    if not (isinstance(scenes, list) and len(scenes) < 2 ** 32
            and all(isinstance(s, SceneSample) for s in scenes)):
        raise ParameterError("scenes must be a list of fewer than 2**32 SceneSample")
    for i, sample in enumerate(scenes):
        if (sample.n_points, sample.grid) != (config.n_points, config.grid):
            raise ParameterError(f"scene {i} has {sample.n_points} points on a {sample.grid} "
                                 f"grid, the config {config.n_points} on {config.grid}")
    _layout(config.n_points)  # refuses an N past a C int's record, far below the head's uint32
    head = np.array((DATASET_MAGIC, FORMAT_VERSION, len(scenes), seed, config.n_points,
                     *config.grid), _DATASET_HEAD)
    blob = b"".join([head.tobytes(), *map(scene_to_bytes, scenes)])
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, TypeError, ValueError) as err:  # not a path, or a NUL byte in it
        raise ConfigError(f"cannot make dataset directory {out_dir}: {err}") from err
    write_file(out / DATASET_FILE, blob, "dataset file")


def load_dataset(data_dir) -> list[SceneSample]:
    """The scenes of ``data_dir/scenes.nclr``, or a ConfigError for a head of
    another magic or version, a length other than that of the head's records,
    or a record that is no scene."""
    try:
        path = Path(data_dir) / DATASET_FILE
    except TypeError as err:
        raise ConfigError(f"cannot read dataset directory {data_dir!r}: {err}") from err
    blob = read_file(path, "dataset file")
    at = _DATASET_HEAD.itemsize
    if len(blob) < at:
        raise ConfigError(f"dataset file truncated to {len(blob)} bytes inside its head")
    magic, version, count, _, n, h, w = np.frombuffer(blob, _DATASET_HEAD, 1).item()
    if magic != DATASET_MAGIC or version != FORMAT_VERSION:
        raise ConfigError(f"dataset file of magic {magic!r} and format version {version}; "
                          f"this reader takes {DATASET_MAGIC!r} and version {FORMAT_VERSION}")
    layout = _layout(n)
    if len(blob) != at + count * layout.itemsize:
        raise ConfigError(f"dataset file of {len(blob)} bytes; its head says {count} "
                          f"records of {layout.itemsize} after {at}")
    try:
        return [SceneSample(rec["points"].copy(),
                            geo.RigidPose(rec["rotation"].copy(), rec["translation"].copy()),
                            (h, w)) for rec in np.frombuffer(blob, layout, count, at)]
    except ParameterError as err:
        raise ConfigError(f"dataset file holds an invalid raw pose: {err}") from err
