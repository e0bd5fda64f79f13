"""Analytic ground-truth scenes, a fine-quadrature oracle renderer, orbit
cameras, and the procedural box-triplane dataset.

The oracle renderer evaluates closed-form density/color fields directly in
numpy; it shares the renderer's quadrature formulas but none of its code, so
the two paths cross-check each other. It integrates a frame in chunks of
``max(1, ORACLE_CHUNK_POINTS // n_fine)`` rays, so its working set is a few
arrays of ~32k points, not the whole frame's points: one 64x64 view at 1024
samples peaks at ~5 MB of allocations, where a whole-frame pass took ~544 MB.
Each ray's result does not depend on the chunking.

It also skips empty space exactly, in two steps. Points are built and density
is evaluated only on rays whose segment meets the scene's support (a
conservative slab test for the cube, a closest-point test for the sphere, see
AnalyticScene.rays_meeting_support), and color and the quadrature run only
for those rays that meet a nonzero density. Any
other ray keeps rgb 0, mask 0 and depth t_far, which is bit for bit what
oracle_integrate returns for it when its colors are finite and carry no sign
bit, as every scene's do (make_scene keeps two_blob colors in [0, 1], -0.0
refused): each weight is exp(-0.0) * (1 - exp(-0.0)) = +0.0, each weighted
color is +0.0, and depth is 0.0 + 1.0 * t_far. At orbit radius 3 about 11%
of a cube view's rays and 4% of a sphere view's meet any density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import token_ids
from .render import SQRT3, Camera, RenderOutput, generate_rays, sample_points_batch
from .triplane import Triplane

# sample points per oracle chunk: ~256 KB per (rays, n_fine) array
ORACLE_CHUNK_POINTS = 1 << 15

# relative and absolute enlargement of a scene's support in the oracle's ray
# test: far above the ~1e-15 rounding of o + t * d and of the slab and
# closest-point tests
SUPPORT_REL_MARGIN = 1e-9
SUPPORT_ABS_MARGIN = 1e-9

# 75 degrees: keeps the whole cube in frame from any orbit radius >= 3
DEFAULT_FOV = float(np.deg2rad(75.0))

# face colors of the reference cube: +x/-x, +y/-y, +z/-z
CUBE_FACE_COLORS = {
    (0, +1): (1.0, 0.0, 0.0),  # red
    (0, -1): (0.0, 1.0, 1.0),  # cyan
    (1, +1): (0.0, 1.0, 0.0),  # green
    (1, -1): (1.0, 0.0, 1.0),  # magenta
    (2, +1): (0.0, 0.0, 1.0),  # blue
    (2, -1): (1.0, 1.0, 0.0),  # yellow
}

BOX_PALETTE = {
    "red": (1.0, 0.1, 0.1),
    "green": (0.1, 1.0, 0.1),
    "blue": (0.1, 0.1, 1.0),
    "yellow": (1.0, 1.0, 0.1),
    "cyan": (0.1, 1.0, 1.0),
    "magenta": (1.0, 0.1, 1.0),
}


def _points(points):
    p = np.asarray(points, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValueError(f"scene fields take (N, 3) points, got shape {p.shape}")
    return p


@dataclass
class AnalyticScene:
    kind: str
    params: dict

    def sigma(self, points):
        """Closed-form density at (N, 3) points."""
        p = _points(points)
        if self.kind == "sphere":
            inside = np.linalg.norm(p, axis=-1) <= self.params["radius"]
            return self.params["density"] * inside
        if self.kind == "cube":
            h = self.params["half"]
            x, y, z = p[:, 0], p[:, 1], p[:, 2]
            return self.params["density"] * ((np.abs(x) <= h) & (np.abs(y) <= h) & (np.abs(z) <= h))
        if self.kind == "two_blob":
            c1, c2 = self.params["centers"]
            w2 = 2.0 * self.params["width"] ** 2
            g1 = np.exp(-np.sum((p - c1) ** 2, axis=-1) / w2)
            g2 = np.exp(-np.sum((p - c2) ** 2, axis=-1) / w2)
            return self.params["amplitude"] * (g1 + g2)
        if self.kind == "vacuum":
            return np.zeros(p.shape[:-1])
        raise ValueError(f"unknown scene kind {self.kind!r}")

    def rays_meeting_support(self, origins, directions, t_near, t_far):
        """Whether each ray's [t_near, t_far] segment meets a region around every nonzero density.

        The region is the cube [-b, b]^3 for the cube, with b its half extent,
        and the ball of radius b for the sphere, with b its radius; b is
        enlarged by SUPPORT_REL_MARGIN and SUPPORT_ABS_MARGIN, so that rounding
        can never put a sample with nonzero density on a rejected ray. Vacuum
        has no support; two_blob's Gaussians reach every ray.
        """
        n = len(origins)
        if self.kind == "vacuum":
            return np.zeros(n, dtype=bool)
        if self.kind == "two_blob":
            return np.ones(n, dtype=bool)
        if self.kind not in ("cube", "sphere"):
            raise ValueError(f"unknown scene kind {self.kind!r}")
        half = self.params["half"] if self.kind == "cube" else self.params["radius"]
        b = half * (1.0 + SUPPORT_REL_MARGIN) + SUPPORT_ABS_MARGIN
        if self.kind == "sphere":
            # the segment's point closest to the centre
            t = np.clip(-(origins * directions).sum(axis=1) / (directions * directions).sum(axis=1), t_near, t_far)
            return np.linalg.norm(origins + t[:, None] * directions, axis=1) <= b
        enter, leave = np.full(n, float(t_near)), np.full(n, float(t_far))
        for k in range(3):
            o, d = origins[:, k], directions[:, k]
            flat = d == 0.0  # parallel to the slab: inside it along the whole ray, or nowhere
            step = np.where(flat, 1.0, d)
            t1, t2 = (-b - o) / step, (b - o) / step
            lo = np.where(flat, np.where(np.abs(o) <= b, -np.inf, np.inf), np.minimum(t1, t2))
            hi = np.where(flat, np.inf, np.maximum(t1, t2))
            enter, leave = np.maximum(enter, lo), np.minimum(leave, hi)
        return enter <= leave

    def color(self, points):
        """Closed-form color at (N, 3) points, in [0, 1]^3."""
        p = _points(points)
        if self.kind == "sphere":
            return np.clip(0.5 + 0.5 * p / self.params["radius"], 0.0, 1.0)
        if self.kind == "cube":
            # face of the largest |coordinate|, the first one on ties (argmax's
            # rule); a coordinate of -0.0 is on the + face
            x, y, z = p[:, 0], p[:, 1], p[:, 2]
            ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
            on_z = az > np.maximum(ax, ay)
            on_y = ay > ax
            axis = np.where(on_z, 2, on_y)
            coord = np.where(on_z, z, np.where(on_y, y, x))
            palette = np.array([CUBE_FACE_COLORS[(i, sg)] for i in range(3) for sg in (+1, -1)])
            return palette.take(2 * axis + (coord < 0.0), axis=0)
        if self.kind == "two_blob":
            c1, c2 = self.params["centers"]
            w2 = 2.0 * self.params["width"] ** 2
            g1 = np.exp(-np.sum((p - c1) ** 2, axis=-1) / w2)[:, None]
            g2 = np.exp(-np.sum((p - c2) ** 2, axis=-1) / w2)[:, None]
            col1 = np.asarray(self.params["colors"][0])
            col2 = np.asarray(self.params["colors"][1])
            return (g1 * col1 + g2 * col2) / np.maximum(g1 + g2, 1e-300)
        if self.kind == "vacuum":
            return np.zeros((p.shape[0], 3))
        raise ValueError(f"unknown scene kind {self.kind!r}")


def _require_finite(kind, params, names):
    for name in names:
        if not np.all(np.isfinite(np.asarray(params[name], dtype=np.float64))):
            raise ValueError(f"{kind} {name} must be finite, got {params[name]}")


def make_scene(kind, params=None):
    """Deterministic closed-form scene; parameters are validated up front."""
    params = dict(params or {})
    if kind == "sphere":
        params.setdefault("radius", 0.5)
        params.setdefault("density", 4.0)
        _require_finite(kind, params, ("radius", "density"))
        if not (0.0 < params["radius"] < 1.0):
            raise ValueError(f"sphere radius must be in (0, 1), got {params['radius']}")
        if params["density"] <= 0.0:
            raise ValueError(f"{kind} density must be > 0, got {params['density']}")
    elif kind == "cube":
        params.setdefault("half", 0.6)
        params.setdefault("density", 20.0)
        _require_finite(kind, params, ("half", "density"))
        if not (0.0 < params["half"] < 1.0):
            raise ValueError(f"cube half extent must be in (0, 1), got {params['half']}")
        if params["density"] <= 0.0:
            raise ValueError(f"{kind} density must be > 0, got {params['density']}")
    elif kind == "two_blob":
        params.setdefault("amplitude", 6.0)
        params.setdefault("width", 0.15)
        if "centers" not in params:
            params["centers"] = (np.array([-0.45, -0.15, 0.0]), np.array([0.45, 0.25, 0.1]))
        if "colors" not in params:
            params["colors"] = (np.array([1.0, 0.4, 0.1]), np.array([0.1, 0.5, 1.0]))
        _require_finite(kind, params, ("amplitude", "width", "centers", "colors"))
        if params["amplitude"] <= 0.0 or not (0.0 < params["width"] < 1.0):
            raise ValueError(f"two_blob needs amplitude > 0 and width in (0, 1), "
                             f"got amplitude {params['amplitude']}, width {params['width']}")
        # signbit also refuses -0.0, which color() would return on a miss ray
        cols = np.asarray(params["colors"], dtype=np.float64)
        if np.signbit(cols).any() or (cols > 1.0).any():
            raise ValueError(f"two_blob colors must be in [0, 1] with no -0.0, got {params['colors']}")
    elif kind == "vacuum":
        pass
    else:
        raise ValueError(f"unknown scene kind {kind!r}")
    return AnalyticScene(kind, params)


def oracle_render(scene, cam, n_fine):
    """Reference render at n_fine uniform (bin-midpoint) samples per ray.

    Same quadrature as the differentiable renderer, written independently in
    plain numpy against the analytic fields. Only rays that meet the scene's
    support go through the fields, ORACLE_CHUNK_POINTS // n_fine at a
    time; each ray's pixel is the same as from one whole-frame pass. Of
    those, only rays with a nonzero density are colored and integrated. Every
    other ray keeps (0, 0, t_far), which is oracle_integrate's exact result
    for it as long as scene.color is finite and never negative or -0.0.
    """
    if n_fine < 512:
        raise ValueError(f"oracle requires n_fine >= 512, got {n_fine}")
    bundle = generate_rays(cam)
    h, w = bundle.shape
    r = h * w
    rays = np.flatnonzero(scene.rays_meeting_support(bundle.origins, bundle.directions, bundle.t_near, bundle.t_far))
    chunk = max(1, ORACLE_CHUNK_POINTS // n_fine)
    ts_chunk = sample_points_batch(bundle.t_near, bundle.t_far, min(chunk, len(rays)), n_fine)
    pts_chunk = np.empty(ts_chunk.shape + (3,))
    rgb, mask, depth = np.zeros((r, 3)), np.zeros(r), np.full(r, bundle.t_far)
    for lo in range(0, len(rays), chunk):
        idx = rays[lo:lo + chunk]
        ts, pts = ts_chunk[:len(idx)], pts_chunk[:len(idx)]
        origins, directions = bundle.origins[idx], bundle.directions[idx]
        for k in range(3):
            pts[:, :, k] = origins[:, k, None] + ts * directions[:, k, None]
        sig = scene.sigma(pts.reshape(-1, 3)).reshape(len(idx), n_fine)
        hit = np.flatnonzero(sig.any(axis=1))
        if hit.size == 0:
            continue
        sig, ts, pts = sig[hit], ts[hit], pts[hit]
        col = scene.color(pts.reshape(-1, 3)).reshape(sig.shape + (3,))
        rows = idx[hit]
        rgb[rows], mask[rows], depth[rows] = oracle_integrate(sig, col, ts, bundle.t_far)
    return RenderOutput(rgb.reshape(h, w, 3), mask.reshape(h, w), depth.reshape(h, w))


def oracle_integrate(sigmas, colors, ts, t_far):
    """Numpy-only quadrature mirror of the renderer's integrate_rays."""
    delta = np.empty_like(ts)
    delta[:, :-1] = ts[:, 1:] - ts[:, :-1]
    delta[:, -1] = t_far - ts[:, -1]
    sd = sigmas * delta
    excl = np.cumsum(sd, axis=1) - sd
    trans = np.exp(-1.0 * excl)
    alpha = 1.0 - np.exp(-1.0 * sd)
    w = trans * alpha
    rgb = (w[:, :, None] * colors).sum(axis=1)
    mask = w.sum(axis=1)
    depth = (w * ts).sum(axis=1) + (1.0 - mask) * float(t_far)
    return rgb, mask, depth


def look_at_origin(position):
    """Right-handed orthonormal frame with forward pointing at the origin."""
    position = np.asarray(position, dtype=np.float64)
    forward = -position / np.linalg.norm(position)
    up_world = np.array([0.0, 0.0, 1.0])
    if abs(forward @ up_world) > 1.0 - 1e-9:
        raise ValueError("camera on the world up axis: look-at frame degenerate")
    right = np.cross(forward, up_world)
    right /= np.linalg.norm(right)
    up = np.cross(right, forward)
    return np.column_stack([right, up, forward])


def camera_orbit(count, radius, elevation, fov=DEFAULT_FOV, height=64, width=64, azimuth_offset=0.0):
    """Evenly spaced look-at-origin cameras on a constant-elevation orbit."""
    return [orbit_camera(azimuth_offset + 2.0 * np.pi * k / count, elevation, radius, fov, height, width)
            for k in range(count)]


def orbit_camera(azimuth, elevation, radius, fov=DEFAULT_FOV, height=64, width=64):
    """Single look-at-origin camera at the given pose (angles in radians)."""
    if radius <= SQRT3:
        raise ValueError(f"orbit radius must exceed sqrt(3), got {radius}")
    pos = radius * np.array([np.cos(elevation) * np.cos(azimuth), np.cos(elevation) * np.sin(azimuth), np.sin(elevation)])
    return Camera(pos, look_at_origin(pos), fov, height, width)


# ---------------------------------------------------------------------------
# procedural triplane dataset: axis-aligned colored boxes projected onto the
# three planes, cross-plane consistent by construction
# ---------------------------------------------------------------------------

@dataclass
class ToyTriplaneExample:
    x0: Triplane
    caption: tuple
    tokens: np.ndarray


def _axis_profile(d, lo, hi):
    """Occupancy coverage per texel: 1 in the core, one-texel soft border."""
    i = np.arange(d, dtype=np.float64)
    return np.clip(np.minimum(i - lo, hi - i) + 0.5, 0.0, 1.0)


_BOX_MIN_SIDE = 3.0  # a toy box side is drawn from [3, d - 2]


def _size_class(mean_side, d):
    """The caption's size word for a toy box of mean side `mean_side` in d x d planes: thirds of [3, d - 2]."""
    third = (d - 2.0 - _BOX_MIN_SIDE) / 3.0
    if mean_side < _BOX_MIN_SIDE + third:
        return "small"
    return "medium" if mean_side < _BOX_MIN_SIDE + 2 * third else "large"


def make_toy_triplane_dataset(count, d=16, c=4, seed=0):
    """Random colored boxes as soft orthographic projections; channel 0 is
    occupancy, channels 1..3 a color fill. Captions name color and size."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if c < 4:
        raise ValueError(f"need at least 4 channels (occupancy + rgb), got {c}")
    if d < 5:  # a box side is drawn from [3, d - 2] and placed inside [0.5, d - 1.5]
        raise ValueError(f"need d >= 5 texels per side for a box of side >= 3, got d={d}")
    rng = np.random.default_rng(seed)
    colors = sorted(BOX_PALETTE)
    min_side, max_side = _BOX_MIN_SIDE, d - 2.0
    examples = []
    for _ in range(count):
        name = colors[rng.integers(len(colors))]
        rgb = np.array(BOX_PALETTE[name])
        lo = np.empty(3)
        hi = np.empty(3)
        for a in range(3):
            side = rng.uniform(min_side, max_side)
            start = rng.uniform(0.5, d - 1.5 - side)
            lo[a], hi[a] = start, start + side
        prof = [_axis_profile(d, lo[a], hi[a]) for a in range(3)]

        def plane(pa, pb):
            occ = np.outer(prof[pb], prof[pa])  # rows v (=pb), cols u (=pa)
            chans = [occ] + [occ * rgb[k] for k in range(3)]
            chans += [np.zeros((d, d))] * (c - 4)
            return np.stack(chans, axis=-1)

        x0 = Triplane(np.stack([plane(0, 1), plane(0, 2), plane(1, 2)]))
        caption = (name, _size_class(float((hi - lo).mean()), d), "box")
        examples.append(ToyTriplaneExample(x0, caption, token_ids(caption)))
    return examples


def decode_toy_triplane(tri):
    """(colour, size, mass) read off a toy box triplane, independently of any model.

    It inverts `make_toy_triplane_dataset`'s caption on every dataset example:
    - mass is the occupancy (channel 0, clipped at 0) summed over the three
      planes;
    - colour is the `BOX_PALETTE` name nearest the rgb of the texels with
      occupancy above 0.5, each channel's sum over them divided by their
      occupancy's, or None if no texel is above 0.5;
    - size is the caption's size class of the mean of the three max-marginal
      sums, x from the xy plane, y from yz and z from xz, which on a dataset
      box are its three sides.
    """
    data = tri.tensor.data
    if data.shape[-1] < 4:
        raise ValueError(f"need at least 4 channels (occupancy + rgb), got {data.shape[-1]}")
    occ = np.maximum(data[..., 0], 0.0)
    xy, xz, yz = occ  # each plane's rows are its second axis, its columns its first
    sides = [xy.max(axis=0).sum(), yz.max(axis=0).sum(), xz.max(axis=1).sum()]
    size = _size_class(float(np.mean(sides)), data.shape[1])
    inside = occ > 0.5
    colour = None
    if inside.any():
        rgb = data[..., 1:4][inside].sum(axis=0) / occ[inside].sum()
        colour = min(sorted(BOX_PALETTE), key=lambda name: float(np.sum((rgb - BOX_PALETTE[name]) ** 2)))
    return colour, size, float(occ.sum())
