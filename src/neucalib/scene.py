"""Synthetic camera/point-cloud scenes with exact overlap ground truth.

A scene stands in for a real LiDAR+camera pair: points are sampled from a
few planar patches plus box noise in front of the camera, mapped into a
"sensor" frame by the inverse of a random raw pose, and labeled by exact
projection. The feature grid H' x W' doubles as the image: pixel (row v,
col u) has its center at continuous coordinates (u, v) and flat index
v * W' + u.

Scenes serialize to a little-endian binary format (magic ``NCLR``) plus a
``manifest.json`` per dataset directory; the layout is bit-exact so that
regeneration with the same seed reproduces identical files.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from . import geometry as geo
from .errors import ConfigError, GenerationError, ParameterError

MAGIC = b"NCLR"
FORMAT_VERSION = 1
SAMPLE_PATTERN = "sample_%06d.nclr"


@dataclass(frozen=True)
class SceneConfig:
    """Generation knobs; defaults give a 16 x 16 grid desk-scale scene."""

    n_points: int = 256
    grid: tuple[int, int] = (16, 16)  # (H', W')
    focal_px: float = 12.0
    z_near: float = 4.0
    z_far: float = 20.0
    n_patches: int = 3
    noise_fraction: float = 0.25  # in-frustum points drawn as box noise, not patches
    overlap_band: tuple[float, float] = (0.6, 0.9)  # target in-frustum fraction
    pose_rot_spread: float = 0.3  # radians, raw-pose rotation magnitude
    pose_trans_spread: float = 1.0  # meters, raw-pose translation magnitude

    def __post_init__(self):
        if self.n_points < 8:
            raise ParameterError("n_points must be at least 8")
        if self.grid[0] < 4 or self.grid[1] < 4:
            raise ParameterError("grid must be at least 4x4")
        lo, hi = self.overlap_band
        if not (0.0 < lo <= hi <= 1.0):
            raise ParameterError(f"overlap_band must satisfy 0 < lo <= hi <= 1, got {self.overlap_band}")

    def intrinsics(self) -> geo.CameraIntrinsics:
        h, w = self.grid
        return geo.CameraIntrinsics(fx=self.focal_px, fy=self.focal_px,
                                    cx=w / 2.0, cy=h / 2.0, width=w, height=h)


@dataclass(frozen=True)
class SceneSample:
    """One synthetic (point cloud, image grid, intrinsics, raw pose) tuple.

    ``gt_projection`` holds raw-pose pixel coordinates per point, NaN where
    the point does not overlap the grid; ``point_overlap_gt[i]`` is true iff
    the point projects with positive depth into [0, W') x [0, H').
    """

    points: np.ndarray  # N x 3, sensor frame
    intrinsics: geo.CameraIntrinsics
    raw_pose: geo.RigidPose
    grid: tuple[int, int]  # (H', W')
    point_overlap_gt: np.ndarray  # N bool
    pixel_overlap_gt: np.ndarray  # H'*W' bool
    gt_projection: np.ndarray  # N x 2, NaN where not overlapping

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.grid[0] * self.grid[1]


def pixel_centers(grid: tuple[int, int]) -> np.ndarray:
    """(H'*W') x 2 array of (u, v) centers in flat row-major order."""
    h, w = grid
    v, u = np.mgrid[0:h, 0:w]
    return np.stack([u.reshape(-1), v.reshape(-1)], axis=1).astype(np.float64)


def point_overlap_labels(points, pose, k: geo.CameraIntrinsics,
                         grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Exact overlap mask and projections for points under a pose."""
    h, w = grid
    proj = geo.project(points, pose, k)
    with np.errstate(invalid="ignore"):
        inside = (proj.coords[:, 0] >= 0) & (proj.coords[:, 0] < w) \
            & (proj.coords[:, 1] >= 0) & (proj.coords[:, 1] < h)
    overlap = proj.valid & inside
    coords = np.where(overlap[:, None], proj.coords, np.nan)
    return overlap, coords


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


def label_pixel_overlap(sample: SceneSample, radius: float = 1.0) -> np.ndarray:
    """Pixel (u, v) is overlapping iff some overlapping point's projection
    lies within Chebyshev distance ``radius`` of its center."""
    h, w = sample.grid
    labels = np.zeros(h * w, dtype=bool)
    _, pixel = _window_pixels(sample.gt_projection[sample.point_overlap_gt], radius, sample.grid)
    labels[pixel] = True
    return labels


@dataclass(frozen=True)
class PairSet:
    """Positive and near point-pixel pairs for the contrastive losses.

    Pairs are flat indices ``point * n_pixels + pixel`` in ascending order,
    and only overlapping points have any. ``near`` holds every pair within
    r_n, positives included; an overlapping point's negatives are all the
    pixels outside its near list, and a pixel's negatives are all the
    overlapping points outside it. ``skipped_no_positive`` /
    ``skipped_no_negative`` count overlapping points excluded from the loss.
    """

    overlap_points: np.ndarray  # ascending indices of the overlapping points
    n_pixels: int
    positives: np.ndarray  # flat pairs at distance < r_p
    near: np.ndarray  # flat pairs at distance <= r_n
    anchor_points: np.ndarray  # indices of usable point anchors
    skipped_no_positive: int
    skipped_no_negative: int


def build_pairs(sample: SceneSample, r_p: float, r_n: float) -> PairSet:
    """Distance-margin pair labeling around each overlapping point.

    Positives are pixels strictly closer than r_p to the point's projection;
    negatives strictly farther than r_n; the annulus in between belongs to
    neither set. Only the pixels in each projection's r_n window are
    visited, so the work is O(N r_n^2) rather than O(N H' W').
    """
    if not (0.0 < r_p < r_n):
        raise ParameterError(f"margins must satisfy 0 < r_p < r_n, got {(r_p, r_n)}")
    m = sample.n_pixels
    overlap = np.flatnonzero(sample.point_overlap_gt)
    uv = sample.gt_projection[overlap]
    row, pixel = _window_pixels(uv, r_n, sample.grid)
    v, u = np.divmod(pixel, sample.grid[1])
    dx, dy = uv[row, 0] - u, uv[row, 1] - v
    dist = np.sqrt(dx * dx + dy * dy)
    near = dist <= r_n
    row, pairs, pos = row[near], overlap[row[near]] * m + pixel[near], dist[near] < r_p
    has_pos = np.bincount(row[pos], minlength=overlap.size) > 0
    has_neg = np.bincount(row, minlength=overlap.size) < m
    return PairSet(overlap, m, pairs[pos], pairs, overlap[has_pos & has_neg],
                   int((~has_pos).sum()), int((has_pos & ~has_neg).sum()))


def _sample_raw_pose(rng: np.random.Generator, cfg: SceneConfig) -> geo.RigidPose:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-cfg.pose_rot_spread, cfg.pose_rot_spread) if cfg.pose_rot_spread > 0 else 0.0
    t = rng.uniform(-cfg.pose_trans_spread, cfg.pose_trans_spread, 3) if cfg.pose_trans_spread > 0 else np.zeros(3)
    return geo.RigidPose(geo.rotation_from_axis_angle(axis, angle), t)


def _sample_in_frustum(rng: np.random.Generator, cfg: SceneConfig, count: int) -> np.ndarray:
    """Camera-frame points from planar patches plus box noise, all of which
    project inside the grid with depth in a safe band."""
    h, w = cfg.grid
    k = cfg.intrinsics()
    n_noise = int(round(count * cfg.noise_fraction))
    n_patch = count - n_noise

    pts = []
    if n_patch > 0:
        sizes = np.full(cfg.n_patches, n_patch // cfg.n_patches)
        sizes[: n_patch - sizes.sum()] += 1
        for size in sizes:
            if size == 0:
                continue
            center_uv = np.array([rng.uniform(1.0, w - 1.0), rng.uniform(1.0, h - 1.0)])
            z0 = rng.uniform(cfg.z_near, cfg.z_far)
            q0 = geo.unproject(center_uv[None, :], [z0], k)[0]
            normal = q0 / np.linalg.norm(q0) + 0.5 * rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            radius = rng.uniform(1.5, max(2.0, min(h, w) / 2.0))
            got = 0
            attempts = 0
            while got < size:
                attempts += 1
                if attempts > 100 * size:
                    raise GenerationError("could not place a planar patch inside the frustum")
                uv = center_uv + rng.uniform(-radius, radius, 2)
                if not (0.1 <= uv[0] <= w - 0.1 and 0.1 <= uv[1] <= h - 0.1):
                    continue
                ray = np.array([(uv[0] - k.cx) / k.fx, (uv[1] - k.cy) / k.fy, 1.0])
                denom = ray @ normal
                if abs(denom) < 1e-3:
                    continue
                z = (q0 @ normal) / denom
                if not (0.5 * cfg.z_near <= z <= 1.5 * cfg.z_far):
                    continue
                pts.append(ray * z)
                got += 1
    for _ in range(n_noise):
        uv = np.array([rng.uniform(0.1, w - 0.1), rng.uniform(0.1, h - 0.1)])
        z = rng.uniform(cfg.z_near, cfg.z_far)
        pts.append(geo.unproject(uv[None, :], [z], k)[0])
    return np.array(pts).reshape(count, 3)


def _sample_out_of_frustum(rng: np.random.Generator, cfg: SceneConfig, count: int) -> np.ndarray:
    """Camera-frame points guaranteed not to overlap the grid."""
    h, w = cfg.grid
    k = cfg.intrinsics()
    pts = np.empty((count, 3))
    for i in range(count):
        for attempt in range(100):
            if rng.uniform() < 0.5:  # behind the camera
                q = np.array([rng.uniform(-cfg.z_far, cfg.z_far),
                              rng.uniform(-cfg.z_far, cfg.z_far),
                              -rng.uniform(1.0, cfg.z_far)])
            else:  # positive depth, outside the image cone
                u = rng.uniform(w + 2.0, 3.0 * w) * rng.choice([-1.0, 1.0])
                v = rng.uniform(-h, 2.0 * h)
                q = geo.unproject(np.array([[u, v]]), [rng.uniform(cfg.z_near, cfg.z_far)], k)[0]
            overlap, _ = point_overlap_labels(q[None, :], geo.RigidPose.identity(), k, cfg.grid)
            if not overlap[0]:
                pts[i] = q
                break
        else:
            raise GenerationError("could not place an out-of-frustum point")
    return pts


def generate_scene(rng: np.random.Generator, config: SceneConfig) -> SceneSample:
    """Deterministic scene generation: same generator state, same scene.

    The in-frustum fraction is drawn from ``config.overlap_band`` and realized
    by construction (in-frustum points are sampled through the camera model),
    with a floor of 8 overlapping points so the pose solver always has
    correspondence headroom.
    """
    cfg = config
    k = cfg.intrinsics()
    raw_pose = _sample_raw_pose(rng, cfg)
    frac = rng.uniform(*cfg.overlap_band)
    n_in = min(cfg.n_points, max(8, int(round(frac * cfg.n_points))))
    n_out = cfg.n_points - n_in

    cam_pts = np.vstack([_sample_in_frustum(rng, cfg, n_in),
                         _sample_out_of_frustum(rng, cfg, n_out)])
    cam_pts = cam_pts[rng.permutation(cfg.n_points)]
    points = geo.invert(raw_pose).apply(cam_pts)

    overlap, coords = point_overlap_labels(points, raw_pose, k, cfg.grid)
    if overlap.sum() < 8:
        raise GenerationError(f"only {int(overlap.sum())} overlapping points after construction")
    sample = SceneSample(points=points, intrinsics=k, raw_pose=raw_pose,
                         grid=cfg.grid, point_overlap_gt=overlap,
                         pixel_overlap_gt=np.zeros(cfg.grid[0] * cfg.grid[1], dtype=bool),
                         gt_projection=coords)
    return replace(sample, pixel_overlap_gt=label_pixel_overlap(sample))


def augment_scene(sample: SceneSample, rot: np.ndarray, trans: np.ndarray) -> SceneSample:
    """Points move, labels stay: the pose is recomputed so projections are
    unchanged, which is exactly why the overlap ground truth carries over."""
    return replace(sample,
                   points=geo.apply_augmentation(sample.points, rot, trans),
                   raw_pose=geo.recompute_gt_pose(sample.raw_pose, rot, trans))


# --- binary scene format -------------------------------------------------

def scene_to_bytes(sample: SceneSample) -> bytes:
    h, w = sample.grid
    k = sample.intrinsics
    parts = [
        MAGIC,
        struct.pack("<IIII", FORMAT_VERSION, sample.n_points, h, w),
        struct.pack("<4d", k.fx, k.fy, k.cx, k.cy),
        np.ascontiguousarray(sample.raw_pose.rotation, dtype="<f8").tobytes(),
        np.ascontiguousarray(sample.raw_pose.translation, dtype="<f8").tobytes(),
        np.ascontiguousarray(sample.points, dtype="<f8").tobytes(),
        sample.point_overlap_gt.astype(np.uint8).tobytes(),
        sample.pixel_overlap_gt.astype(np.uint8).tobytes(),
        np.ascontiguousarray(sample.gt_projection, dtype="<f8").tobytes(),
    ]
    return b"".join(parts)


def scene_from_bytes(blob: bytes) -> SceneSample:
    if blob[:4] != MAGIC:
        raise ConfigError(f"bad scene magic {blob[:4]!r}")
    if len(blob) < 20:
        raise ConfigError(f"scene file truncated to {len(blob)} bytes inside its header")
    version, n, h, w = struct.unpack_from("<IIII", blob, 4)
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported scene format version {version}")
    # the header fixes every field's size, so one check covers them all:
    # 148 bytes up to the pose, 41 per point (xyz, flag, uv), 1 per pixel
    size = 148 + 41 * n + h * w
    if len(blob) != size:
        raise ConfigError(f"scene file has {len(blob)} bytes, its header implies {size}")
    off = 20
    fx, fy, cx, cy = struct.unpack_from("<4d", blob, off)
    off += 32
    rot = np.frombuffer(blob, "<f8", 9, off).reshape(3, 3).copy()
    off += 72
    trans = np.frombuffer(blob, "<f8", 3, off).copy()
    off += 24
    points = np.frombuffer(blob, "<f8", 3 * n, off).reshape(n, 3).copy()
    off += 24 * n
    p_overlap = np.frombuffer(blob, np.uint8, n, off).astype(bool)
    off += n
    px_overlap = np.frombuffer(blob, np.uint8, h * w, off).astype(bool)
    off += h * w
    proj = np.frombuffer(blob, "<f8", 2 * n, off).reshape(n, 2).copy()
    if not (np.isfinite([fx, fy, cx, cy]).all() and np.isfinite(rot).all()
            and np.isfinite(trans).all() and np.isfinite(points).all()):
        raise ConfigError("scene file holds a non-finite intrinsic, pose or point value")
    with np.errstate(all="ignore"):  # huge values overflow and fail the checks
        try:
            k = geo.CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=w, height=h)
            pose = geo.RigidPose(rot, trans)
        except ParameterError as err:
            raise ConfigError(f"scene file holds an invalid camera: {err}") from err
        depth = pose.apply(points[p_overlap])[:, 2]
    # the SceneSample invariant on overlapping points: in front of the
    # camera, projected inside the grid
    uv = proj[p_overlap]
    if not ((uv >= 0.0).all() and (uv < [w, h]).all()
            and (depth > geo.MIN_DEPTH).all() and np.isfinite(depth).all()):
        raise ConfigError("scene file has an overlapping point behind the camera "
                          "or projected outside the grid")
    return SceneSample(points=points, intrinsics=k, raw_pose=pose, grid=(h, w),
                       point_overlap_gt=p_overlap, pixel_overlap_gt=px_overlap,
                       gt_projection=proj)


def save_scene(sample: SceneSample, path) -> None:
    Path(path).write_bytes(scene_to_bytes(sample))


def load_scene(path) -> SceneSample:
    return scene_from_bytes(Path(path).read_bytes())


def write_dataset(out_dir, scenes: list[SceneSample], config: SceneConfig,
                  seed: int) -> Path:
    """Write sample files plus a manifest describing count and generation."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, sample in enumerate(scenes):
        name = SAMPLE_PATTERN % i
        save_scene(sample, out / name)
        entries.append({
            "file": name,
            "n_points": sample.n_points,
            "grid": list(sample.grid),
            "overlap_points": int(sample.point_overlap_gt.sum()),
            "overlap_pixels": int(sample.pixel_overlap_gt.sum()),
        })
    cfg = asdict(config)
    cfg["grid"] = list(config.grid)
    cfg["overlap_band"] = list(config.overlap_band)
    manifest = {"format_version": FORMAT_VERSION, "count": len(scenes),
                "seed": seed, "config": cfg, "samples": entries}
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


def load_dataset(data_dir) -> list[SceneSample]:
    data = Path(data_dir)
    manifest_path = data / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json in {data}")
    manifest = json.loads(manifest_path.read_text())
    scenes = []
    for entry in manifest["samples"]:
        scenes.append(load_scene(data / entry["file"]))
    if len(scenes) != manifest["count"]:
        raise ConfigError("manifest count does not match sample entries")
    return scenes
