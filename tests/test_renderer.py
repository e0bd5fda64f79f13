import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from trifield import autodiff as ad
from trifield import render as rd
from trifield import scenes as sc
from trifield import triplane as tp
from trifield.autodiff import Tensor
from trifield.render import Camera


def make_camera(height=5, width=5, fov=np.pi / 2):
    pos = np.array([3.0, 0.0, 0.0])
    return Camera(pos, sc.look_at_origin(pos), fov, height, width)


def test_camera_validates_orientation_and_fov():
    bad = np.eye(3)
    bad[0, 0] = 1.1
    with pytest.raises(ValueError, match="orthonormal"):
        Camera(np.zeros(3), bad, 1.0, 4, 4)
    with pytest.raises(ValueError, match="fov"):
        Camera(np.zeros(3), np.eye(3), 4.0, 4, 4)


def test_center_pixel_ray_is_camera_forward():
    cam = make_camera(5, 5)
    bundle = rd.generate_rays(cam)
    center = bundle.directions.reshape(5, 5, 3)[2, 2]
    assert np.abs(center - cam.forward).max() < 1e-12


def test_all_ray_directions_unit_norm():
    cam = make_camera(6, 9, fov=1.1)
    bundle = rd.generate_rays(cam)
    assert np.abs(np.linalg.norm(bundle.directions, axis=1) - 1.0).max() < 1e-9


def test_corner_pixel_direction_by_hand_trigonometry():
    # fov = 90 deg, square image: the half-extent is tan(45) = 1; the corner
    # pixel CENTER sits at offset 1 - 1/W of the half-extent on both axes
    w = 4
    cam = make_camera(w, w, fov=np.pi / 2)
    bundle = rd.generate_rays(cam)
    corner = bundle.directions.reshape(w, w, 3)[0, 0]
    off = 1.0 - 1.0 / w
    want = -off * cam.right + off * cam.up + cam.forward
    want = want / np.linalg.norm(want)
    assert np.abs(corner - want).max() < 1e-12


def test_degenerate_look_at_rejected():
    with pytest.raises(ValueError):
        sc.look_at_origin(np.array([0.0, 0.0, 2.0]))


def test_sample_points_single_midpoint():
    assert np.array_equal(rd.sample_points_batch(0.0, 4.0, 1, 1), [[2.0]])


def test_sample_points_bin_midpoints():
    assert np.array_equal(rd.sample_points_batch(0.0, 4.0, 2, 4), [[0.5, 1.5, 2.5, 3.5]] * 2)


def test_stratified_draws_stay_in_bins():
    rng = np.random.default_rng(0)
    n = 8
    ts = rd.sample_points_batch(1.0, 3.0, 10_000, n, stratified=True, rng=rng)
    edges = np.linspace(1.0, 3.0, n + 1)
    assert np.all(ts >= edges[:-1]) and np.all(ts < edges[1:])
    assert np.all(np.diff(ts, axis=1) > 0.0)


def test_field_eval_density_bias_tail():
    rng = np.random.default_rng(1)
    tri = tp.random_triplane(rng, 4, 2, scale=0.1)
    heads = rd.init_field_heads(rng, 6, hidden=8, depth=2, density_bias=-20.0)
    heads.s_layers[-1][0].data[:] = 0.0  # leave only the -20 bias
    sigma, _ = rd.field_eval_batch(tri, heads, np.array([[0.1, 0.2, 0.3]]))
    assert sigma.data.shape == (1,) and float(sigma.data[0]) < 1e-8


def test_field_eval_zero_color_head_gives_mid_gray():
    rng = np.random.default_rng(2)
    tri = tp.random_triplane(rng, 4, 2, scale=0.1)
    heads = rd.init_field_heads(rng, 6, hidden=8, depth=2)
    for w, b in heads.c_layers:
        w.data[:] = 0.0
        b.data[:] = 0.0
    _, color = rd.field_eval_batch(tri, heads, np.array([[0.1, 0.2, 0.3]]))
    assert np.array_equal(color.data, [[0.5, 0.5, 0.5]])


def test_field_eval_grad_check_wrt_planes():
    rng = np.random.default_rng(3)
    d, c = 4, 2
    tri = tp.random_triplane(rng, d, c, scale=0.8)
    heads = rd.init_field_heads(rng, 3 * c, hidden=8, depth=2)
    pts = rng.uniform(-0.85, 0.85, size=(5, 3)) + 0.0137

    def f(x):
        t2 = tp.Triplane(ad.concat([ad.reshape(x, (1, d, d, c)), ad.narrow(tri.tensor, 0, 1, 2)]))
        sigma, _ = rd.field_eval_batch(t2, heads, pts)
        return ad.tsum(sigma)

    err = ad.grad_check(f, Tensor(tri.tensor.data[0].copy(), requires_grad=True))
    assert err < 1e-5


def test_integrate_vacuum_ray():
    rgb, mask, depth = rd.integrate_rays(np.zeros((1, 4)), np.full((1, 4, 3), 0.7), [[0.5, 1.5, 2.5, 3.5]], 4.0)
    assert np.array_equal(rgb.data, np.zeros((1, 3)))
    assert np.array_equal(mask.data, [0.0])
    assert np.array_equal(depth.data, [4.0])


def test_integrate_opaque_sample():
    rgb, mask, depth = rd.integrate_rays(np.array([[50.0]]), np.array([[[0.2, 0.4, 0.6]]]), [[1.0]], 2.0)
    assert 1.0 - float(mask.data[0]) < 1e-20
    assert np.abs(rgb.data - [[0.2, 0.4, 0.6]]).max() < 1e-20
    assert abs(float(depth.data[0]) - 1.0) < 1e-19


def test_integrate_rejects_bad_inputs():
    with pytest.raises(ValueError, match="ascending"):
        rd.integrate_rays(np.zeros((1, 3)), np.zeros((1, 3, 3)), [[1.0, 1.0, 2.0]], 4.0)
    with pytest.raises(ValueError, match="non-negative"):
        rd.integrate_rays(np.array([[-0.1, 0.0]]), np.zeros((1, 2, 3)), [[1.0, 2.0]], 4.0)
    with pytest.raises(ad.ShapeError):
        rd.integrate_rays(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4, 3))), np.zeros((2, 3)), 4.0)


def test_render_rays_rejects_misaligned_sample_depths():
    rng = np.random.default_rng(2)
    tri, heads = tp.random_triplane(rng, 4, 2), rd.init_field_heads(rng, 6, hidden=4)
    bundle = rd.generate_rays(make_camera(2, 2))
    for ts in (np.full((3, 4), 2.0), np.full(4, 2.0), np.full((4, 2, 2), 2.0)):
        with pytest.raises(ad.ShapeError):
            rd.render_rays(tri, heads, bundle.origins, bundle.directions, ts, bundle.t_far)


def slab_mask(n):
    # constant sigma = 2 over the chord [1.43, 2.43] inside bounds [0.1, 3.9]
    o = np.array([[-1.93, 0.0, 0.0]])
    d = np.array([[1.0, 0.0, 0.0]])
    scene = sc.make_scene("sphere", {"radius": 0.5, "density": 2.0})
    ts = rd.sample_points_batch(0.1, 3.9, 1, n)
    pts = (o[:, None, :] + ts[..., None] * d[:, None, :]).reshape(-1, 3)
    sig = scene.sigma(pts).reshape(1, n)
    col = scene.color(pts).reshape(1, n, 3)
    _, mask, _ = rd.integrate_rays(Tensor(sig), Tensor(col), ts, 3.9)
    return float(mask.data[0])


def test_constant_slab_matches_closed_form_transmittance():
    closed = 1.0 - np.exp(-2.0 * 1.0)
    assert abs(slab_mask(256) - closed) / closed < 0.01


def test_slab_error_decreases_with_sample_count():
    closed = 1.0 - np.exp(-2.0 * 1.0)
    errs = [abs(slab_mask(n) - closed) for n in (16, 64, 256)]
    assert errs[0] > errs[1] > errs[2]


def test_weights_are_a_subprobability():
    rng = np.random.default_rng(4)
    sig = np.abs(rng.normal(scale=3.0, size=(20, 16)))
    col = rng.uniform(size=(20, 16, 3))
    ts = np.sort(rng.uniform(0.1, 3.9, size=(20, 16)), axis=1)
    _, mask, _ = rd.integrate_rays(Tensor(sig), Tensor(col), ts, 4.0)
    assert np.all(mask.data >= 0.0) and np.all(mask.data <= 1.0)


def test_doubling_density_never_decreases_mask():
    rng = np.random.default_rng(5)
    sig = np.abs(rng.normal(size=(10, 12)))
    col = rng.uniform(size=(10, 12, 3))
    ts = np.sort(rng.uniform(0.1, 3.9, size=(10, 12)), axis=1)
    _, m1, _ = rd.integrate_rays(Tensor(sig), Tensor(col), ts, 4.0)
    _, m2, _ = rd.integrate_rays(Tensor(2.0 * sig), Tensor(col), ts, 4.0)
    assert np.all(m2.data >= m1.data - 1e-15)


def test_render_view_vacuum_heads():
    rng = np.random.default_rng(6)
    tri = tp.random_triplane(rng, 4, 2, scale=0.1)
    heads = rd.init_field_heads(rng, 6, hidden=8, depth=2, density_bias=-60.0)
    heads.s_layers[-1][0].data[:] = 0.0
    cam = make_camera(4, 4, fov=1.2)
    out = rd.render_view(tri, heads, cam, 16)
    tn, tf = rd.default_bounds(cam.position)
    assert np.all(out.image == 0.0)
    assert np.all(out.mask == 0.0)
    assert np.abs(out.depth - tf).max() < 1e-12


def test_render_view_deterministic():
    rng = np.random.default_rng(7)
    tri = tp.random_triplane(rng, 6, 4, scale=0.5)
    heads = rd.init_field_heads(rng, 12, hidden=8, depth=2)
    cam = make_camera(17, 17, fov=1.2)
    a = rd.render_view(tri, heads, cam, 24)
    b = rd.render_view(tri, heads, cam, 24)
    assert np.array_equal(a.image, b.image)
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.depth, b.depth)
    # chunking must not change pixel math: 289 rays take two chunks, render_rays one call
    assert cam.height * cam.width > rd.RENDER_CHUNK
    bundle = rd.generate_rays(cam)
    ts = rd.sample_points_batch(bundle.t_near, bundle.t_far, len(bundle.origins), 24)
    rgb, mask, depth = rd.render_rays(tri, heads, bundle.origins, bundle.directions, ts, bundle.t_far)
    for got, want in ((a.image, rgb.data), (a.mask, mask.data), (a.depth, depth.data)):
        assert np.abs(got.reshape(want.shape) - want).max() < 1e-12


def _serial_frame(tri, heads, cam, n):
    """render_view's frame from a serial loop of render_rays over RENDER_CHUNK slices."""
    bundle = rd.generate_rays(cam)
    parts = []
    for lo in range(0, len(bundle.origins), rd.RENDER_CHUNK):
        origins, dirs = bundle.origins[lo:lo + rd.RENDER_CHUNK], bundle.directions[lo:lo + rd.RENDER_CHUNK]
        ts = rd.sample_points_batch(bundle.t_near, bundle.t_far, len(origins), n)
        parts.append(rd.render_rays(tri, heads, origins, dirs, ts, bundle.t_far))
    h, w = bundle.shape
    return tuple(np.concatenate([part[i].data for part in parts]).reshape(shape)
                 for i, shape in enumerate(((h, w, 3), (h, w), (h, w))))


def _assert_frame(out, want):
    for got, ref in zip((out.image, out.mask, out.depth), want):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def _pool_model():
    rng = np.random.default_rng(11)
    return tp.random_triplane(rng, 6, 4, scale=0.5), rd.init_field_heads(rng, 12, hidden=8, depth=2)


class _FakeBlas:
    """A BLAS thread count that `on_cores` pins and restores."""

    def __init__(self, threads):
        self.threads = threads
        self.seen = []  # the count each render_rays call ran under

    def set(self, k):
        self.threads = k

    def get(self):
        return self.threads


def _with_fake_blas(monkeypatch, threads=3):
    blas = _FakeBlas(threads)
    monkeypatch.setattr(rd, "_find_openblas", lambda: (blas.set, blas.get))
    render_rays = rd.render_rays

    def seen(*args, **kwargs):
        blas.seen.append(blas.get())
        return render_rays(*args, **kwargs)

    monkeypatch.setattr(rd, "render_rays", seen)
    return blas


def _chunk_threads(monkeypatch):
    """The thread of every render_rays call render_view makes."""
    threads = []
    render_rays = rd.render_rays

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return render_rays(*args, **kwargs)

    monkeypatch.setattr(rd, "render_rays", recorded)
    return threads


# 17x17 = 289 rays ends in a 33-ray chunk; 20x33 = 660 rays in a 20-ray one
@pytest.mark.parametrize("n", [8, 24, 48, 96])
@pytest.mark.parametrize("height, width", [(17, 17), (20, 33)])
def test_render_view_pool_matches_serial_chunks(monkeypatch, n, height, width):
    tri, heads = _pool_model()
    cam = make_camera(height, width, fov=1.2)
    assert (height * width) % rd.RENDER_CHUNK
    threads = _chunk_threads(monkeypatch)
    out = rd.render_view(tri, heads, cam, n)
    _assert_frame(out, _serial_frame(tri, heads, cam, n))
    # the calling thread renders chunks too, and workers - 1 pool threads help it
    workers = len(os.sched_getaffinity(0)) if rd._find_openblas() is not None else 1
    assert threading.get_ident() in threads and len(set(threads)) <= workers


def test_render_view_without_openblas_runs_one_worker(monkeypatch):
    tri, heads = _pool_model()
    cam = make_camera(17, 17, fov=1.2)
    want = _serial_frame(tri, heads, cam, 24)
    monkeypatch.setattr(rd, "_find_openblas", lambda: None)
    threads = _chunk_threads(monkeypatch)
    _assert_frame(rd.render_view(tri, heads, cam, 24), want)
    assert threads == [threading.get_ident()] * 3


def test_render_view_restores_the_loaded_openblas():
    blas = rd._find_openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS found in /proc/self/maps")
    set_threads, get_threads = blas
    tri, heads = _pool_model()
    before = get_threads()
    rd.render_view(tri, heads, make_camera(17, 17, fov=1.2), 8)
    assert get_threads() == before


def test_concurrent_render_views_keep_frames_and_blas_count(monkeypatch):
    tri, heads = _pool_model()
    cams = [make_camera(17, 17, fov=1.2), make_camera(20, 33, fov=1.0)]
    want = [_serial_frame(tri, heads, cam, 24) for cam in cams]
    blas = _with_fake_blas(monkeypatch)
    start = threading.Barrier(len(cams))
    outs = [None] * len(cams)

    def work(i):
        start.wait()
        outs[i] = rd.render_view(tri, heads, cams[i], 24)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cams))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    for out, ref in zip(outs, want):
        _assert_frame(out, ref)
    assert blas.threads == 3
    assert set(blas.seen) == {1}


def _cores(monkeypatch, n, threads=3):
    """`on_cores` with a fake OpenBLAS at `threads` threads and n usable CPUs."""
    blas = _FakeBlas(threads)
    monkeypatch.setattr(rd, "_find_openblas", lambda: (blas.set, blas.get))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return blas


def _slow_square(i):
    time.sleep(0.002 * (i % 3))  # items finish out of order
    return i * i, threading.get_ident()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_on_cores_returns_results_in_item_order(monkeypatch, cpus):
    _cores(monkeypatch, cpus)
    with rd.on_cores() as run:
        out = run(_slow_square, range(11))
        assert run(_slow_square, []) == []
    assert [sq for sq, _ in out] == [i * i for i in range(11)]
    assert out[0][1] == threading.get_ident()  # item 0 runs on the calling thread
    assert len({ident for _, ident in out}) <= cpus


@pytest.mark.parametrize("blas", ["none", "one cpu"])
def test_on_cores_with_one_worker_starts_no_thread(monkeypatch, blas):
    if blas == "none":
        monkeypatch.setattr(rd, "_find_openblas", lambda: None)
    else:
        _cores(monkeypatch, 1)
    before = set(threading.enumerate())

    def item(i):
        assert set(threading.enumerate()) == before
        return threading.get_ident()

    with rd.on_cores() as run:
        assert run(item, range(5)) == [threading.get_ident()] * 5


def test_on_cores_pins_blas_for_every_item_and_restores_it(monkeypatch):
    blas = _cores(monkeypatch, 2)
    with rd.on_cores() as run:
        assert run(lambda i: blas.get(), range(6)) == [1] * 6
        with rd.on_cores() as inner:  # the pin is reentrant, as a fit's log callback needs
            assert inner(lambda i: blas.get(), range(3)) == [1] * 3
        assert blas.threads == 1
    assert blas.threads == 3
    with pytest.raises(ZeroDivisionError), rd.on_cores() as run:
        run(lambda i: 1 / (i - 2), range(4))
    assert blas.threads == 3


# item 0 runs on the calling thread, item 1 on the first pool thread, later items on whichever thread is free
@pytest.mark.parametrize("fail", [0, 1, 5])
def test_on_cores_item_error_reaches_caller(monkeypatch, fail):
    blas = _cores(monkeypatch, 3)
    before = set(threading.enumerate())
    started = []

    def item(i):
        started.append(i)
        if i == fail:
            raise RuntimeError(f"item {i} failed")
        time.sleep(0.02)
        return i

    with pytest.raises(RuntimeError, match=f"item {fail} failed"), rd.on_cores() as run:
        run(item, range(12))
    # items 0-2 go to the three workers at once, later ones in order as a worker
    # frees up; once an item has failed no worker takes another
    assert fail in started and set(started) <= set(range(max(fail + 1, 3)))
    assert blas.threads == 3
    assert set(threading.enumerate()) == before


def test_on_cores_leaves_no_thread(monkeypatch):
    _cores(monkeypatch, 3)
    before = set(threading.enumerate())
    with rd.on_cores() as run:
        for _ in range(3):
            idents = {ident for _, ident in run(_slow_square, range(9))}
    assert len(idents) > 1  # the pool did run items
    assert set(threading.enumerate()) == before


def test_sampling_imports_neither_the_thread_pool_nor_logging():
    # on_cores imports concurrent.futures, which pulls in logging, only when it
    # runs: denoiser_sample's peak RSS moves by 7-18% with what the process imports
    code = (
        "import importlib, pkgutil, sys\n"
        "import numpy as np\n"
        "import trifield\n"
        "for m in pkgutil.iter_modules(trifield.__path__):\n"
        "    importlib.import_module('trifield.' + m.name)\n"
        "from trifield import diffusion as df\n"
        "den = df.Denoiser(df.DenoiserConfig(resolution=4, hidden=8, d_model=8))\n"
        "df.ddpm_sample_many(den, [np.zeros(3, dtype=np.int64)], df.make_schedule(1), np.random.default_rng(0))\n"
        "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])\n"
    )
    src = os.path.dirname(os.path.dirname(rd.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fitted_sphere_render_matches_fine_oracle():
    # fit the analytic sphere from 6 orbit views, then compare a held-out
    # 32x32 render at n = 128 against the n = 2048 oracle
    from trifield import training as tr

    scene = sc.make_scene("sphere", {"radius": 0.5, "density": 8.0})
    elev = np.deg2rad(18.0)
    cams = sc.camera_orbit(6, 3.0, elev, height=32, width=32, azimuth_offset=np.deg2rad(10.0))
    views = [(cam, sc.oracle_render(scene, cam, 1024)) for cam in cams]
    cfg = tr.FitConfig(iterations=900, ray_batch=192, samples_per_ray=32,
                       grid_resolution=24, grid_channels=8, hidden=24, val_every=100, seed=1)
    result = tr.fit_scene(views, cfg)
    assert not result.diverged
    cam = sc.orbit_camera(np.deg2rad(55.0), elev, 3.0, height=32, width=32)
    gt = sc.oracle_render(scene, cam, 2048)
    pred = rd.render_view(result.triplane, result.heads, cam, 128)
    assert np.abs(pred.image - gt.image).mean() < 0.01


def test_render_grad_check_through_small_view():
    rng = np.random.default_rng(8)
    d, c = 4, 2
    tri = tp.random_triplane(rng, d, c, scale=0.8)
    heads = rd.init_field_heads(rng, 3 * c, hidden=8, depth=2)
    cam = make_camera(4, 4, fov=1.2)
    bundle = rd.generate_rays(cam)

    def f(x):
        t2 = tp.Triplane(ad.concat([ad.reshape(x, (1, d, d, c)), ad.narrow(tri.tensor, 0, 1, 2)]))
        ts = rd.sample_points_batch(bundle.t_near, bundle.t_far, len(bundle.origins), 8)
        rgb, mask, depth = rd.render_rays(t2, heads, bundle.origins, bundle.directions, ts, bundle.t_far)
        return ad.tmean(rgb)

    err = ad.grad_check(f, Tensor(tri.tensor.data[0].copy(), requires_grad=True))
    assert err < 1e-4
