import itertools
import tracemalloc

import numpy as np
import pytest

from trifield import diffusion as df
from trifield import render as rd
from trifield import scenes as sc
from trifield.autodiff import Tensor


def test_scene_parameter_validation():
    with pytest.raises(ValueError):
        sc.make_scene("sphere", {"radius": 1.5})
    with pytest.raises(ValueError):
        sc.make_scene("sphere", {"radius": 0.5, "density": -1.0})
    with pytest.raises(ValueError):
        sc.make_scene("nonsense")


@pytest.mark.parametrize("kind, params, says", [
    ("sphere", {"density": 0.0}, "sphere density must be > 0, got 0.0"),
    ("cube", {"density": -2.0}, "cube density must be > 0, got -2.0"),
    ("two_blob", {"amplitude": 0.0}, "two_blob needs amplitude > 0 and width in (0, 1), got amplitude 0.0, width 0.15"),
    ("two_blob", {"width": 1.0}, "two_blob needs amplitude > 0 and width in (0, 1), got amplitude 6.0, width 1.0"),
])
def test_scene_parameter_errors_name_the_kind_and_only_the_bad_parameters(kind, params, says):
    # the two-blob error printed the whole parameter dict, center and color arrays included
    with pytest.raises(ValueError) as err:
        sc.make_scene(kind, params)
    assert str(err.value) == says


@pytest.mark.parametrize("kind, params", [
    ("cube", {"density": np.nan}),
    ("cube", {"density": np.inf}),
    ("cube", {"half": np.nan}),
    ("sphere", {"density": np.nan}),
    ("sphere", {"density": np.inf}),
    ("sphere", {"radius": np.nan}),
    ("two_blob", {"amplitude": np.inf}),
    ("two_blob", {"amplitude": np.nan}),
    ("two_blob", {"width": np.nan}),
    ("two_blob", {"centers": (np.array([np.nan, 0.0, 0.0]), np.array([0.45, 0.25, 0.1]))}),
    ("two_blob", {"colors": (np.array([1.0, 0.4, 0.1]), np.array([0.1, np.inf, 1.0]))}),
])
def test_scene_rejects_non_finite_parameters(kind, params):
    with pytest.raises(ValueError, match="finite"):
        sc.make_scene(kind, params)


@pytest.mark.parametrize("kind", ["sphere", "cube", "two_blob", "vacuum"])
@pytest.mark.parametrize("shape", [(5, 2), (5, 4), (3,), (2, 2, 3)])
def test_scene_fields_take_n_by_3_points(kind, shape):
    # a cube's sigma of (N, 2) points once tested two coordinates quietly
    scene = sc.make_scene(kind)
    with pytest.raises(ValueError, match=r"\(N, 3\)"):
        scene.sigma(np.zeros(shape))
    with pytest.raises(ValueError, match=r"\(N, 3\)"):
        scene.color(np.zeros(shape))


def test_sphere_inside_outside():
    scene = sc.make_scene("sphere", {"radius": 0.5, "density": 4.0})
    sig = scene.sigma(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    assert sig[0] == 4.0 and sig[1] == 0.0


def test_cube_face_colors():
    scene = sc.make_scene("cube", {"half": 0.6, "density": 10.0})
    pts = np.array([
        [0.6, 0.0, 0.0], [-0.6, 0.0, 0.0],
        [0.0, 0.6, 0.0], [0.0, -0.6, 0.0],
        [0.0, 0.0, 0.6], [0.0, 0.0, -0.6],
    ])
    want = np.array([
        [1, 0, 0], [0, 1, 1], [0, 1, 0], [1, 0, 1], [0, 0, 1], [1, 1, 0],
    ], dtype=float)
    assert np.array_equal(scene.color(pts), want)


# the whole-frame oracle and argmax cube fields as they were before the chunked,
# column-wise oracle; the current ones must match them bit for bit

def _argmax_cube_sigma(scene, p):
    inside = np.all(np.abs(p) <= scene.params["half"], axis=-1)
    return scene.params["density"] * inside


def _argmax_cube_color(p):
    n = p.shape[0]
    axis = np.argmax(np.abs(p), axis=-1)
    sign = np.where(p[np.arange(n), axis] >= 0.0, 1, -1)
    out = np.empty((n, 3))
    for (ax, sg), rgb in sc.CUBE_FACE_COLORS.items():
        sel = (axis == ax) & (sign == sg)
        out[sel] = rgb
    return out


def _whole_frame_oracle(scene, cam, n_fine):
    bundle = rd.generate_rays(cam)
    h, w = bundle.shape
    r = h * w
    ts = rd.sample_points_batch(bundle.t_near, bundle.t_far, r, n_fine)
    pts = (bundle.origins[:, None, :] + ts[..., None] * bundle.directions[:, None, :]).reshape(r * n_fine, 3)
    if scene.kind == "cube":
        sig, col = _argmax_cube_sigma(scene, pts), _argmax_cube_color(pts)
    else:
        sig, col = scene.sigma(pts), scene.color(pts)
    rgb, mask, depth = sc.oracle_integrate(sig.reshape(r, n_fine), col.reshape(r, n_fine, 3), ts, bundle.t_far)
    return rgb.reshape(h, w, 3), mask.reshape(h, w), depth.reshape(h, w)


def _bit_identical(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# 64x64 stops at 1024 samples: the whole-frame reference at 2048 peaks near
# 1 GB, and 64x64 divides into whole chunks at 1024 and 2048 alike
@pytest.mark.parametrize("kind", ["sphere", "cube", "two_blob", "vacuum"])
@pytest.mark.parametrize("n_fine, height, width", [
    (512, 1, 1), (1024, 1, 1), (2048, 1, 1),
    (512, 33, 47), (1024, 33, 47), (2048, 33, 47),
    (512, 64, 64), (1024, 64, 64),
])
def test_chunked_oracle_is_bit_identical_to_whole_frame(kind, n_fine, height, width):
    # 33x47 = 1551 rays ends in a part chunk at every sample count
    scene = sc.make_scene(kind)
    cam = sc.orbit_camera(0.7, 0.35, 3.0, height=height, width=width)
    out = sc.oracle_render(scene, cam, n_fine)
    rgb, mask, depth = _whole_frame_oracle(scene, cam, n_fine)
    assert _bit_identical(out.image, rgb)
    assert _bit_identical(out.mask, mask)
    assert _bit_identical(out.depth, depth)


@pytest.mark.parametrize("half", [0.6, 0.3])
def test_cube_fields_follow_argmax_on_ties(half):
    # faces, edges, corners and signed zeros: every tie of the first-maximum rule
    scene = sc.make_scene("cube", {"half": half, "density": 20.0})
    pts = np.array(list(itertools.product([-0.6, -0.3, -0.0, 0.0, 0.3, 0.6], repeat=3)))
    assert _bit_identical(scene.sigma(pts), _argmax_cube_sigma(scene, pts))
    assert _bit_identical(scene.color(pts), _argmax_cube_color(pts))


def test_oracle_memory_stays_chunk_sized():
    # one 64x64 view at 1024 samples held ~544 MB of whole-frame arrays
    scene = sc.make_scene("cube")
    cam = sc.orbit_camera(0.7, 0.35, 3.0, height=64, width=64)
    tracemalloc.start()
    try:
        sc.oracle_render(scene, cam, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, f"oracle peak {peak / 2 ** 20:.1f} MB"


def test_oracle_colors_only_rays_that_meet_density():
    # at orbit radius 3, 473 of a cube view's 4096 rays meet the cube; the others
    # keep oracle_integrate's (0, 0, t_far). Density is evaluated on the 475 rays
    # that meet the slightly enlarged support box, not on all 4096 * 512 points
    scene = sc.make_scene("cube")
    cam = sc.orbit_camera(0.7, 0.35, 3.0, height=64, width=64)
    colored, color = [], scene.color
    scene.color = lambda p: colored.append(len(p)) or color(p)
    evaluated, sigma = [], scene.sigma
    scene.sigma = lambda p: evaluated.append(len(p)) or sigma(p)
    out = sc.oracle_render(scene, cam, 512)
    rgb, mask, depth = _whole_frame_oracle(sc.make_scene("cube"), cam, 512)
    hit_rays = np.count_nonzero(mask)  # the first sample with density carries a positive weight
    assert sum(colored) == hit_rays * 512
    assert 0.1 < hit_rays / (64 * 64) < 0.13
    assert sum(evaluated) == 475 * 512
    assert _bit_identical(out.image, rgb)
    assert _bit_identical(out.mask, mask)
    assert _bit_identical(out.depth, depth)


def test_oracle_evaluates_only_rays_that_meet_the_sphere():
    # the sphere's box let 326 rays of this view reach sigma, 156 of which meet
    # density; the closest-point test lets exactly those 156 through
    scene = sc.make_scene("sphere")
    cam = sc.orbit_camera(0.7, 0.35, 3.0, height=64, width=64)
    evaluated, sigma = [], scene.sigma
    scene.sigma = lambda p: evaluated.append(len(p)) or sigma(p)
    out = sc.oracle_render(scene, cam, 512)
    rgb, mask, depth = _whole_frame_oracle(sc.make_scene("sphere"), cam, 512)
    assert np.count_nonzero(mask) == 156
    assert sum(evaluated) == 156 * 512
    assert _bit_identical(out.image, rgb)
    assert _bit_identical(out.mask, mask)
    assert _bit_identical(out.depth, depth)


@pytest.mark.parametrize("kind, params", [
    ("cube", {"half": 0.6}), ("cube", {"half": 0.95}),
    ("sphere", {"radius": 0.5}), ("sphere", {"radius": 0.9}), ("sphere", {"radius": 0.05}),
])
@pytest.mark.parametrize("radius, elevation", [(1.8, 0.0), (3.0, 0.35), (5.0, -1.2)])
def test_support_culled_oracle_is_bit_identical_to_whole_frame(kind, params, radius, elevation):
    # odd sizes put a pixel on the view axis, so a direction coordinate can be
    # exactly 0; at radius 1.8 the box fills most of the view
    scene = sc.make_scene(kind, params)
    for azimuth in (0.0, 0.7, np.pi / 2):
        cam = sc.orbit_camera(azimuth, elevation, radius, height=33, width=47)
        out = sc.oracle_render(scene, cam, 512)
        rgb, mask, depth = _whole_frame_oracle(scene, cam, 512)
        assert _bit_identical(out.image, rgb)
        assert _bit_identical(out.mask, mask)
        assert _bit_identical(out.depth, depth)


def test_support_test_keeps_grazing_rays_and_drops_clear_misses():
    scene = sc.make_scene("cube", {"half": 0.6})
    origins = np.array([
        [-3.0, 0.6, 0.0],  # slides along the +y face, where sigma is nonzero
        [-3.0, 0.6 + 1e-12, 0.0],  # misses by 1e-12, inside the margin
        [-3.0, 0.6 + 1e-6, 0.0],  # a clear miss
        [-3.0, 0.0, 0.0],  # through the centre
    ])
    directions = np.tile([1.0, 0.0, 0.0], (4, 1))
    assert scene.rays_meeting_support(origins, directions, 0.1, 6.0).tolist() == [True, True, False, True]
    # the centre ray reaches the -x face at t = 2.4
    assert scene.rays_meeting_support(origins[3:], directions[3:], 0.1, 2.4).all()
    assert not scene.rays_meeting_support(origins[3:], directions[3:], 0.1, 2.39).any()

    sphere = sc.make_scene("sphere", {"radius": 0.5})
    starts = np.array([
        [-3.0, 0.5, 0.0],  # touches the sphere at (0, 0.5, 0)
        [-3.0, 0.5 + 1e-12, 0.0],  # misses by 1e-12, inside the margin
        [-3.0, 0.5 + 1e-6, 0.0],  # a clear miss
        [-3.0, 0.0, 0.0],  # through the centre
        [-3.0, 0.45, 0.45],  # inside the sphere's box, outside the sphere
    ])
    along_x = np.tile([1.0, 0.0, 0.0], (5, 1))
    assert sphere.rays_meeting_support(starts, along_x, 0.1, 6.0).tolist() == [True, True, False, True, False]
    # the centre ray reaches the sphere at t = 2.5, and one pointing away never does
    assert sphere.rays_meeting_support(starts[3:4], along_x[:1], 0.1, 2.5).all()
    assert not sphere.rays_meeting_support(starts[3:4], along_x[:1], 0.1, 2.49).any()
    assert not sphere.rays_meeting_support(starts[3:4], -along_x[:1], 0.1, 6.0).any()
    # a ray starting inside the sphere meets it at once
    assert sphere.rays_meeting_support(np.zeros((1, 3)), along_x[:1], 0.1, 0.2).all()

    # vacuum has no density, so no ray meets it; two_blob's Gaussians reach every ray
    assert not sc.make_scene("vacuum").rays_meeting_support(origins, directions, 0.1, 6.0).any()
    assert sc.make_scene("two_blob").rays_meeting_support(origins, directions, 0.1, 6.0).all()


@pytest.mark.parametrize("colors", [
    (np.array([-1.0, 0.4, 0.1]), np.array([-0.1, 0.5, 1.0])),
    (np.array([1.0, 0.4, -0.0]), np.array([0.1, 0.5, -0.0])),
    (np.array([1.5, 0.4, 0.1]), np.array([0.1, 0.5, 1.0])),
])
def test_two_blob_rejects_colors_outside_unit_range(colors):
    # at width 0.02 both Gaussians underflow to 0 on a miss ray, where a channel
    # negative or -0.0 in both colors makes color() -0.0; the oracle's +0.0 for
    # skipped rays would then match only because numpy's sums start from +0.0
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        sc.make_scene("two_blob", {"width": 0.02, "colors": colors})


def test_oracle_skip_is_exact_where_two_blob_underflows():
    # zero channels in both colors and mostly exact-zero density: the miss rays
    # are skipped and must still match oracle_integrate's +0.0 sums
    scene = sc.make_scene("two_blob", {"width": 0.02, "colors": (
        np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))})
    cam = sc.orbit_camera(0.7, 0.35, 3.0, height=33, width=47)
    out = sc.oracle_render(scene, cam, 512)
    rgb, mask, depth = _whole_frame_oracle(scene, cam, 512)
    assert 0 < np.count_nonzero(mask) < mask.size
    assert _bit_identical(out.image, rgb)
    assert _bit_identical(out.mask, mask)
    assert _bit_identical(out.depth, depth)


def test_two_blob_center_amplitude():
    scene = sc.make_scene("two_blob", {"amplitude": 6.0, "width": 0.15})
    centers = np.stack(scene.params["centers"])
    sig = scene.sigma(centers)
    # other blob's tail is exp(-|c1-c2|^2 / (2 w^2)) ~ 1e-10 relative
    assert np.allclose(sig, 6.0, rtol=1e-6)


def test_oracle_render_vacuum():
    cam = sc.orbit_camera(0.3, 0.2, 3.0, height=4, width=4)
    out = sc.oracle_render(sc.make_scene("vacuum"), cam, 512)
    assert np.all(out.image == 0.0) and np.all(out.mask == 0.0)


def test_oracle_center_ray_matches_closed_form():
    # principal ray through the sphere center: chord 2r = 1, mask -> 1 - e^-4
    scene = sc.make_scene("sphere", {"radius": 0.5, "density": 4.0})
    cam = sc.orbit_camera(0.0, 0.0, 3.0, height=1, width=1, fov=0.3)
    out = sc.oracle_render(scene, cam, 2048)
    closed = 1.0 - np.exp(-4.0)
    assert abs(out.mask[0, 0] - closed) / closed < 0.005


def test_oracle_cube_face_ray_transmittance():
    # principal ray into the +x face: chord = 2 * half = 1.2, density 20
    scene = sc.make_scene("cube", {"half": 0.6, "density": 20.0})
    cam = sc.orbit_camera(0.0, 0.0, 3.0, height=1, width=1, fov=0.3)
    out = sc.oracle_render(scene, cam, 2048)
    closed = 1.0 - np.exp(-20.0 * 1.2)
    assert abs(out.mask[0, 0] - closed) < 5e-3
    assert np.allclose(out.image[0, 0], [1.0, 0.0, 0.0], atol=5e-3)  # red face


def test_oracle_two_blob_line_integral():
    # ray through the first blob center along +x; each blob contributes a
    # Gaussian line integral A * w * sqrt(2 pi) * exp(-d^2 / (2 w^2)) with d
    # its perpendicular distance from the line
    scene = sc.make_scene("two_blob")
    a, w = scene.params["amplitude"], scene.params["width"]
    c1, c2 = scene.params["centers"]
    origin = np.array([-3.0, c1[1], c1[2]])
    direction = np.array([1.0, 0.0, 0.0])
    d2 = np.linalg.norm(c2[1:] - c1[1:])
    tau = a * w * np.sqrt(2 * np.pi) * (1.0 + np.exp(-d2 ** 2 / (2 * w ** 2)))
    closed = 1.0 - np.exp(-tau)

    from trifield.render import sample_points_batch

    n = 4096
    ts = sample_points_batch(0.0, 6.0, 1, n)
    pts = origin[None, None, :] + ts[..., None] * direction[None, None, :]
    sig = scene.sigma(pts.reshape(-1, 3)).reshape(1, n)
    col = scene.color(pts.reshape(-1, 3)).reshape(1, n, 3)
    _, mask, _ = sc.oracle_integrate(sig, col, ts, 6.0)
    assert abs(mask[0] - closed) / closed < 0.005


def test_oracle_convergence_plateau():
    scene = sc.make_scene("sphere", {"radius": 0.5, "density": 4.0})
    cam = sc.orbit_camera(0.4, 0.3, 3.0, height=6, width=6)
    a = sc.oracle_render(scene, cam, 2048)
    b = sc.oracle_render(scene, cam, 4096)
    assert np.abs(a.image - b.image).max() < 1e-3
    assert np.abs(a.mask - b.mask).max() < 1e-3


def test_oracle_requires_fine_sampling():
    cam = sc.orbit_camera(0.0, 0.2, 3.0, height=2, width=2)
    with pytest.raises(ValueError):
        sc.oracle_render(sc.make_scene("vacuum"), cam, 256)


def test_oracle_and_renderer_quadratures_agree_exactly():
    # same sampled sigma/color values through both code paths
    rng = np.random.default_rng(0)
    sig = np.abs(rng.normal(size=(7, 40)))
    col = rng.uniform(size=(7, 40, 3))
    ts = np.sort(rng.uniform(0.1, 3.9, size=(7, 40)), axis=1)
    rgb_t, mask_t, depth_t = rd.integrate_rays(Tensor(sig), Tensor(col), ts, 4.0)
    rgb_o, mask_o, depth_o = sc.oracle_integrate(sig, col, ts, 4.0)
    assert np.array_equal(rgb_t.data, rgb_o)
    assert np.array_equal(mask_t.data, mask_o)
    assert np.array_equal(depth_t.data, depth_o)


def test_orbit_canonical_azimuths():
    cams = sc.camera_orbit(4, 3.0, 0.3)
    azimuths = [np.degrees(np.arctan2(c.position[1], c.position[0])) % 360 for c in cams]
    assert np.allclose(azimuths, [0.0, 90.0, 180.0, 270.0], atol=1e-9)
    # each orbit camera is, byte for byte, the single-pose camera at its azimuth
    offset = np.deg2rad(10.0)
    orbit = sc.camera_orbit(6, 3.5, 0.4, fov=0.9, height=5, width=7, azimuth_offset=offset)
    for k, cam in enumerate(orbit):
        ref = sc.orbit_camera(offset + 2.0 * np.pi * k / 6, 0.4, 3.5, fov=0.9, height=5, width=7)
        assert cam.position.tobytes() == ref.position.tobytes()
        assert cam.orientation.tobytes() == ref.orientation.tobytes()
        assert (cam.fov, cam.height, cam.width) == (ref.fov, ref.height, ref.width)


def test_opposite_orbit_cameras_antiparallel():
    cams = sc.camera_orbit(4, 3.0, 0.0)  # symmetric only on an equatorial orbit
    assert np.abs(cams[0].forward + cams[2].forward).max() < 1e-9
    assert np.abs(cams[1].forward + cams[3].forward).max() < 1e-9


def test_orbit_look_at_contract():
    for cam in sc.camera_orbit(6, 3.5, 0.4):
        to_origin = -cam.position / np.linalg.norm(cam.position)
        assert np.abs(cam.forward - to_origin).max() < 1e-9
        assert np.abs(cam.orientation.T @ cam.orientation - np.eye(3)).max() < 1e-9


def test_orbit_radius_validation():
    with pytest.raises(ValueError):
        sc.camera_orbit(4, 1.0, 0.3)
    with pytest.raises(ValueError):
        sc.orbit_camera(0.0, 0.0, 1.5)


def test_toy_dataset_consistency_and_extent_agreement():
    examples = sc.make_toy_triplane_dataset(6, d=16, c=4, seed=2)
    for ex in examples:
        assert df.cross_plane_consistency(ex.x0) == 0.0
        # x-extent shadow agrees between P_xy and P_xz
        from trifield.triplane import plane_marginal
        mx_xy = plane_marginal(ex.x0.tensor.data[0], "v", "max")[:, 0]
        mx_xz = plane_marginal(ex.x0.tensor.data[1], "v", "max")[:, 0]
        assert np.array_equal(mx_xy, mx_xz)


def test_toy_dataset_deterministic():
    a = sc.make_toy_triplane_dataset(4, d=16, c=4, seed=9)
    b = sc.make_toy_triplane_dataset(4, d=16, c=4, seed=9)
    for ea, eb in zip(a, b):
        assert ea.caption == eb.caption
        assert np.array_equal(ea.x0.tensor.data, eb.x0.tensor.data)


def test_toy_dataset_validation():
    with pytest.raises(ValueError):
        sc.make_toy_triplane_dataset(0)
    with pytest.raises(ValueError):
        sc.make_toy_triplane_dataset(1, c=2)
    # a box side is drawn from [3, d - 2]: below d = 5 rng.uniform raised "high - low < 0"
    for d in (2, 4):
        with pytest.raises(ValueError, match=f"got d={d}"):
            sc.make_toy_triplane_dataset(1, d=d)
    for ex in sc.make_toy_triplane_dataset(20, d=5, seed=1):
        assert ex.x0.tensor.data.shape == (3, 5, 5, 4)
