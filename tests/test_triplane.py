import sys
import threading

import numpy as np
import pytest

from trifield import autodiff as ad
from trifield import triplane as tp
from trifield.autodiff import Tensor
from trifield.triplane import Triplane


@pytest.mark.parametrize("b", [1, 3])
def test_unstack_planes_inverts_stack_planes(b):
    rng = np.random.default_rng(b)
    d, c = 4, 3
    tris = [tp.random_triplane(rng, d, c, scale=1.0) for _ in range(b)]
    for tri in tris:
        tri.tensor.requires_grad = True
    x = tp.stack_planes(tris)
    # per example xy, xz, yz, each plane's D*D rows [v, u] row-major
    assert np.array_equal(x.data, np.concatenate([p.reshape(d * d, c) for tri in tris for p in tri.tensor.data]))
    back = tp.unstack_planes(x, d, c)
    assert len(back) == b
    for got, want in zip(back, tris):
        assert np.array_equal(got.tensor.data, want.tensor.data)
    probe = rng.normal(size=(b, 3, d, d, c))
    ad.tsum(ad.mul(x, Tensor(probe.reshape(-1, c)))).backward()  # the tape carries through the stack
    for tri, pb in zip(tris, probe):
        assert np.array_equal(tri.tensor.grad, pb)


def test_unstack_planes_rejects_rows_that_are_not_whole_triplanes():
    for shape, d, c in (((2 * 16, 2), 4, 2), ((3 * 16 + 1, 2), 4, 2), ((3 * 16, 3), 4, 2), ((0, 2), 4, 2),
                        ((3 * 16,), 4, 1), ((3, 2), 0, 2)):
        with pytest.raises(ad.ShapeError, match="unstack_planes"):
            tp.unstack_planes(Tensor(np.zeros(shape)), d, c)


def tri_from(plane_xy, d=None, c=None):
    d = d or plane_xy.shape[0]
    c = c or plane_xy.shape[2]
    return Triplane(np.stack([plane_xy, np.zeros((d, d, c)), np.zeros((d, d, c))]))


def plane_coords(p, d):
    """Continuous (u, v) of a world point on each plane, (xy, xz, yz) rows.

    Read through sample_triplane from planes that store their own texel
    coordinates: bilinear interpolation reproduces that linear ramp exactly.
    """
    v, u = np.meshgrid(np.arange(d, dtype=np.float64), np.arange(d, dtype=np.float64), indexing="ij")
    ramp = np.stack([u, v], axis=-1)
    pts = np.asarray(p, dtype=np.float64).reshape(1, 3)
    return tp.sample_triplane(Triplane(np.stack([ramp, ramp, ramp])), pts).data.reshape(3, 2)


def test_project_point_center():
    coords = plane_coords(np.zeros(3), 5)
    assert np.array_equal(coords, np.full((3, 2), 2.0))


def test_project_point_corner():
    coords = plane_coords(np.array([1.0, -1.0, 0.0]), 5)
    assert tuple(coords[0]) == (4.0, 0.0)


def test_project_point_affine_by_hand():
    # (0.5 + 1) / 2 * (9 - 1) = 6.0 on the x axis
    coords = plane_coords(np.array([0.5, 0.0, 0.0]), 9)
    assert tuple(coords[0]) == (6.0, 4.0)


def test_project_point_clamps_and_counts():
    before = tp.clamp_count()
    coords = plane_coords(np.array([1.5, 0.0, -2.0]), 5)
    assert tp.clamp_count() - before == 2
    assert coords[0, 0] == 4.0  # clamped to +1 before mapping
    assert coords[1, 1] == 0.0


def test_clamp_count_sums_exactly_over_threads():
    # render_view samples from worker threads; each call here clamps 5
    # components, and a lost update would leave the sum short
    tri = tp.random_triplane(np.random.default_rng(0), 3, 2)
    pts = np.array([[1.5, 0.0, -2.0], [0.5, 3.0, 1.0], [-1.0 - 1e-9, 1.0, 1.0 + 1e-9], [0.0, 0.0, 0.0]])
    n_threads, n_calls = 4, 50
    start = threading.Barrier(n_threads)

    def work():
        start.wait()
        for _ in range(n_calls):
            tp.sample_triplane(tri, pts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        before = tp.clamp_count()
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert tp.clamp_count() - before == n_threads * n_calls * 5


def test_sample_rejects_unbatched_point():
    tri = Triplane(np.zeros((3, 3, 3, 1)))
    with pytest.raises(ValueError, match=r"\(N, 3\)"):
        tp.sample_triplane(tri, np.zeros(3))


def test_projection_round_trip():
    # world -> texel through sample_triplane, texel -> world by the inverse map
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = rng.uniform(-1, 1, size=3)
        u, v = plane_coords(p, 17)[0]
        assert abs(2.0 * u / 16 - 1.0 - p[0]) < 1e-12
        assert abs(2.0 * v / 16 - 1.0 - p[1]) < 1e-12


def test_sample_constant_planes():
    tri = Triplane(np.full((3, 6, 6, 2), 3.0))
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = tp.sample_triplane(tri, rng.uniform(-1, 1, size=(1, 3)))
        assert np.allclose(f.data, 3.0, atol=1e-12)


def test_sample_at_grid_knot_returns_stored_pixel():
    rng = np.random.default_rng(2)
    d, c = 5, 3
    planes = rng.normal(size=(3, d, d, c))
    tri = Triplane(planes)
    # world point whose projections land exactly on integer grid coords
    u, v = 3, 1
    p = 2.0 * np.array([u, v, v]) / (d - 1) - 1.0
    f = tp.sample_triplane(tri, p[None]).data[0]
    assert np.allclose(f[:c], planes[0][v, u], atol=1e-12)


def test_sample_cell_center_bilinear_average():
    plane = np.zeros((2, 2, 1))
    plane[0, 0, 0], plane[0, 1, 0], plane[1, 0, 0], plane[1, 1, 0] = 1.0, 2.0, 3.0, 4.0
    f = tp.sample_triplane(tri_from(plane), np.array([[0.0, 0.0, -1.0]]))
    assert f.data[0, 0] == pytest.approx(2.5, abs=1e-12)


def test_sampling_linear_in_plane_contents():
    rng = np.random.default_rng(3)
    d, c = 6, 2
    t1 = tp.random_triplane(rng, d, c, scale=1.0)
    t2 = tp.random_triplane(rng, d, c, scale=1.0)
    a, b = 0.7, -1.3
    mix = Triplane(a * t1.tensor.data + b * t2.tensor.data)
    pts = rng.uniform(-1, 1, size=(20, 3))
    f_mix = tp.sample_triplane(mix, pts).data
    f_sep = a * tp.sample_triplane(t1, pts).data + b * tp.sample_triplane(t2, pts).data
    assert np.abs(f_mix - f_sep).max() < 1e-12


def test_sampling_grad_check_wrt_plane_contents():
    rng = np.random.default_rng(4)
    d, c = 4, 2
    tri = tp.random_triplane(rng, d, c, scale=1.0)
    pts = rng.uniform(-0.9, 0.9, size=(6, 3)) + 0.0137  # off grid lines
    probe = Tensor(rng.normal(size=(6, 3 * c)))

    def f(x):
        return ad.tsum(ad.mul(tp.sample_triplane(Triplane(x), pts), probe))

    err = ad.grad_check(f, Tensor(tri.tensor.data.copy(), requires_grad=True))  # all three planes
    assert err < 1e-6


def test_sampling_grad_check_wrt_points():
    rng = np.random.default_rng(5)
    tri = tp.random_triplane(rng, 5, 2, scale=1.0)
    probe = Tensor(rng.normal(size=(4, 6)))
    pts0 = rng.uniform(-0.85, 0.85, size=(4, 3)) + 0.0123

    def f(x):
        return ad.tsum(ad.mul(tp.sample_triplane(tri, x), probe))

    err = ad.grad_check(f, Tensor(pts0, requires_grad=True))
    assert err < 1e-6


def test_plane_marginal_constant_and_one_hot():
    const = np.full((4, 4, 2), 1.5)
    assert np.allclose(tp.plane_marginal(const, "u", "mean"), 1.5)
    hot = np.zeros((4, 4, 1))
    hot[2, 1, 0] = 1.0
    prof = tp.plane_marginal(hot, "u", "max")  # reduce along u, survive v
    assert np.array_equal(prof[:, 0], [0.0, 0.0, 1.0, 0.0])


def test_plane_marginal_mean_matches_direct_sum():
    rng = np.random.default_rng(6)
    plane = rng.normal(size=(4, 4, 1))
    got = tp.plane_marginal(plane, "v", "mean")
    # direct per-column average oracle (reduce v, profile over u)
    want = np.stack([plane[:, u, :].mean(axis=0) for u in range(4)])
    assert np.allclose(got, want, atol=1e-15)


def test_plane_marginal_validates_arguments():
    plane = np.zeros((3, 3, 1))
    with pytest.raises(ValueError):
        tp.plane_marginal(plane, "w", "mean")
    with pytest.raises(ValueError):
        tp.plane_marginal(plane, "u", "median")


def test_triplane_shape_and_finite_validation():
    # one plane, a leading axis other than 3, non-square planes
    for shape in ((3, 3, 1), (2, 3, 3, 1), (4, 3, 3, 1), (3, 3, 4, 1)):
        with pytest.raises(ValueError, match=r"one \(3, D, D, C\) tensor"):
            Triplane(np.zeros(shape))
    for index, pid in (((0, 0, 0, 0), "xy"), ((2, 1, 2, 0), "yz")):
        bad = np.zeros((3, 3, 3, 1))
        bad[index] = np.nan
        with pytest.raises(ValueError, match=f"plane {pid} contains non-finite values"):
            Triplane(bad)


def oracle_lookup(planes, pts, g):
    """Plain-numpy reference: per plane, a four-corner bilinear lookup and a
    per-corner np.add.at adjoint of the output gradient g, both summed in
    corner order 0, 1, 2, 3."""
    d, _, c = planes[0].shape
    x = np.clip(pts, -1.0, 1.0)
    half = 0.5 * (d - 1)
    s = 1 if d > 1 else 0
    feats, grads = [], []
    for i, (plane, pid) in enumerate(zip(planes, tp.PLANE_IDS)):
        au, av = tp.PLANE_AXES[pid]
        u = (x[:, au] + 1.0) * half
        v = (x[:, av] + 1.0) * half
        if d > 1:
            u0 = np.clip(np.floor(u), 0, d - 2).astype(np.int64)
            v0 = np.clip(np.floor(v), 0, d - 2).astype(np.int64)
        else:
            u0 = v0 = np.zeros(len(u), np.int64)
        fu, fv = u - u0, v - v0
        gu, gv = 1.0 - fu, 1.0 - fv
        corners = ((v0, u0, gu * gv), (v0, u0 + s, fu * gv), (v0 + s, u0, gu * fv), (v0 + s, u0 + s, fu * fv))
        gp = g[:, i * c:(i + 1) * c]
        feat, grad = None, None
        for vi, ui, w in corners:
            term = plane[vi, ui] * w[:, None]
            feat = term if feat is None else feat + term
            part = np.zeros_like(plane)
            np.add.at(part, (vi, ui), gp * w[:, None])
            grad = part if grad is None else grad + part
        feats.append(feat)
        grads.append(grad)
    return np.concatenate(feats, axis=1), grads


@pytest.mark.parametrize("d, c, n, reach, block", [
    (32, 16, 12288, 1.0 / 0.6, None),  # ~40% of components outside the cube
    (32, 16, 3 * tp._BLOCK_ROWS + 17, 1.2, None),
    (6, 3, 3 * 5 + 17, 1.2, 5),
    (32, 16, 0, 1.2, None),
    (32, 16, 1, 1.2, None),
    (2, 4, 500, 1.3, None),
    (1, 4, 300, 1.3, None),
])
def test_lookup_bit_identical_to_numpy_oracle(monkeypatch, d, c, n, reach, block):
    if block is not None:
        monkeypatch.setattr(tp, "_BLOCK_ROWS", block)
    rng = np.random.default_rng(d * 1000 + n)
    planes = [rng.normal(size=(d, d, c)) for _ in range(3)]
    pts = rng.uniform(-reach, reach, size=(n, 3))
    probe = rng.normal(size=(n, 3 * c))
    tri = Triplane(Tensor(np.stack(planes), requires_grad=True))
    feat = tp.sample_triplane(tri, pts)
    ad.tsum(ad.mul(feat, Tensor(probe))).backward()
    want_feat, want_grads = oracle_lookup(planes, pts, probe)
    assert np.array_equal(feat.data, want_feat)
    for got, want in zip(tri.tensor.grad, want_grads):
        assert np.array_equal(got, want)


def test_lookup_returns_adjoints_only_for_parents_that_require_grad():
    rng = np.random.default_rng(8)
    d, c, n = 4, 2, 7
    g = rng.normal(size=(n, 3 * c))
    planes = Tensor(rng.normal(size=(3, d, d, c)), requires_grad=True)
    pts = Tensor(rng.uniform(-0.9, 0.9, size=(n, 3)))
    got = tp.triplane_lookup(planes, pts)._backward(g)
    assert [t for t, _ in got] == [planes]  # no point adjoint
    assert got[0][1].shape == (3, d, d, c)
    frozen = Tensor(planes.data)
    moving = Tensor(pts.data, requires_grad=True)
    got = tp.triplane_lookup(frozen, moving)._backward(g)
    assert [t for t, _ in got] == [moving]
    assert got[0][1].shape == (n, 3)


def test_sample_rejects_non_finite_points():
    tri = Triplane(np.zeros((3, 3, 3, 1)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            tp.sample_triplane(tri, np.array([[0.0, bad, 0.0]]))
