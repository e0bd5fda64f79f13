import os
import threading

import numpy as np
import pytest

from trifield import autodiff as ad
from trifield import render as rd
from trifield import scenes as sc
from trifield import triplane as tp
from trifield import training as tr
from trifield.autodiff import Tensor
from trifield.render import RenderOutput


def view(img, mask, depth):
    return RenderOutput(np.asarray(img, dtype=float), np.asarray(mask, dtype=float), np.asarray(depth, dtype=float))


def test_render_loss_zero_when_equal():
    rng = np.random.default_rng(0)
    gt = view(rng.uniform(size=(4, 4, 3)), rng.uniform(size=(4, 4)), rng.uniform(1, 4, size=(4, 4)))
    loss = tr.render_loss([gt], [gt])
    assert float(loss.data) == 0.0


def test_default_weights_follow_the_balance():
    w = tr.LossWeights()
    assert (w.lambda_mask, w.lambda_depth) == (0.5, 1.0)


def test_render_loss_hand_arithmetic():
    # 1x1 view: image off by 0.1 per channel, mask by 0.2, depth by 0.3
    # -> 0.01 + 0.5 * 0.04 + 1.0 * 0.09 = 0.12
    pred = view(np.full((1, 1, 3), 0.5), [[0.5]], [[1.5]])
    gt = view(np.full((1, 1, 3), 0.6), [[0.7]], [[1.8]])
    loss = tr.render_loss([pred], [gt])
    assert float(loss.data) == pytest.approx(0.12, abs=1e-12)


def test_render_loss_sums_over_views():
    pred = view(np.full((1, 1, 3), 0.5), [[0.5]], [[1.5]])
    gt = view(np.full((1, 1, 3), 0.6), [[0.7]], [[1.8]])
    double = tr.render_loss([pred, pred], [gt, gt])
    assert float(double.data) == pytest.approx(0.24, abs=1e-12)


def test_render_loss_shape_mismatch_rejected():
    a = view(np.zeros((2, 2, 3)), np.zeros((2, 2)), np.zeros((2, 2)))
    b = view(np.zeros((3, 3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(ad.ShapeError):
        tr.render_loss([a], [b])
    with pytest.raises(ValueError):
        tr.render_loss([], [])


def test_render_loss_nonnegative_and_definite():
    rng = np.random.default_rng(1)
    gt = view(rng.uniform(size=(3, 3, 3)), rng.uniform(size=(3, 3)), rng.uniform(1, 4, size=(3, 3)))
    pred = view(gt.image + 0.01, gt.mask, gt.depth)
    assert float(tr.render_loss([pred], [gt]).data) > 0.0


def test_adamw_default_hyperparameters():
    opt = tr.AdamW([Tensor(np.zeros(2), requires_grad=True)], lr=1e-3)
    assert (opt.beta1, opt.beta2, opt.weight_decay) == (0.9, 0.95, 0.03)


def test_adamw_decay_only_step():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = tr.AdamW([p], lr=1e-3, weight_decay=0.03)
    p.grad = np.zeros(2)
    assert opt.step()
    assert np.array_equal(p.data, np.array([1.0, -2.0]) * (1.0 - 1e-3 * 0.03))


def test_adamw_first_step_unit_displacement():
    for g in (0.3, -7.0):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = tr.AdamW([p], lr=1e-3, weight_decay=0.0)
        p.grad = np.array([g])
        opt.step()
        # m_hat / sqrt(v_hat) = g / |g| up to the eps guard
        assert abs(abs(p.data[0]) - 1e-3) < 1e-9
        assert np.sign(-p.data[0]) == np.sign(g)


def test_adamw_zero_lr_is_identity():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = tr.AdamW([p], lr=0.0)
    p.grad = np.array([5.0, -1.0])
    opt.step()
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adamw_rejects_non_finite_grads():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = tr.AdamW([p], lr=1e-3)
    before = p.data.copy()
    p.grad = np.array([np.nan])
    assert not opt.step()
    assert opt.rejected == 1
    assert opt.step_count == 0
    assert np.array_equal(p.data, before)
    assert np.array_equal(opt.m[0], np.zeros(1))


def test_adamw_step_reads_param_grads():
    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([2.0]), requires_grad=True)
    opt = tr.AdamW([p, q], lr=1e-3, weight_decay=0.0)
    p.grad = np.array([1.0])  # q.grad stays None and steps as a zero gradient
    assert opt.step()
    assert p.data[0] < 1.0 and opt.step_count == 1
    assert q.data[0] == 2.0


def vacuum_views(size=12, n_views=2):
    cams = sc.camera_orbit(n_views, 3.0, 0.3, height=size, width=size)
    views = []
    for cam in cams:
        from trifield.render import default_bounds

        _, tf = default_bounds(cam.position)
        views.append((cam, RenderOutput(np.zeros((size, size, 3)), np.zeros((size, size)), np.full((size, size), tf))))
    return views


def small_cfg(**overrides):
    base = dict(iterations=120, ray_batch=96, samples_per_ray=12, grid_resolution=8,
                grid_channels=4, hidden=8, val_every=40, val_rays=128, seed=3)
    base.update(overrides)
    return tr.FitConfig(**base)


def test_fit_requires_two_views():
    with pytest.raises(ValueError):
        tr.fit_scene(vacuum_views()[:1], small_cfg())


def test_fit_vacuum_drives_density_down():
    views = vacuum_views()
    result = tr.fit_scene(views, small_cfg(iterations=500))
    assert not result.diverged
    assert tr.mean_density(result.triplane, result.heads) < 1e-3


def test_fit_is_deterministic():
    views = vacuum_views()
    r1 = tr.fit_scene(views, small_cfg())
    r2 = tr.fit_scene(views, small_cfg())
    assert r1.history == r2.history
    assert np.array_equal(r1.triplane.tensor.data, r2.triplane.tensor.data)


def test_fit_smoothed_loss_non_increasing_early():
    views = vacuum_views()
    result = tr.fit_scene(views, small_cfg(iterations=300))
    h = np.array(result.history)
    windows = [h[i:i + 100].mean() for i in range(0, 300, 100)]
    assert windows[0] >= windows[1] >= windows[2]


def test_fit_returns_f32_snapped_parameters():
    views = vacuum_views()
    result = tr.fit_scene(views, small_cfg(iterations=60))
    for p in [result.triplane.tensor] + result.heads.tensors():
        assert np.array_equal(p.data, p.data.astype("<f4").astype(np.float64))


def test_psnr_basics():
    img = np.full((4, 4, 3), 0.5)
    assert tr.psnr(img, img) == float("inf")
    assert tr.psnr(img, img + 0.1) == pytest.approx(20.0, abs=1e-9)


def test_fit_halts_on_divergence_with_finite_checkpoint(monkeypatch):
    views = vacuum_views()
    poisoned = [(cam, RenderOutput(np.full_like(gt.image, np.nan), gt.mask, gt.depth))
                for cam, gt in views]
    stepped, walked = [], []
    step, backward = tr.AdamW.step, ad.Tensor.backward
    monkeypatch.setattr(tr.AdamW, "step", lambda opt: stepped.append(opt) or step(opt))
    monkeypatch.setattr(ad.Tensor, "backward", lambda t: walked.append(t) or backward(t))
    result = tr.fit_scene(poisoned, small_cfg(iterations=50))
    assert result.diverged
    # each part stops before its backward, and the step before the optimizer
    assert result.steps_run == 0 and result.history == [] and stepped == [] and walked == []
    for p in [result.triplane.tensor] + result.heads.tensors():
        assert np.all(np.isfinite(p.data))


def test_fit_clears_grad_flags_when_an_exception_escapes(monkeypatch):
    # fails at the parent, which cleared the flags only on a normal return
    seen = []
    step = tr.AdamW.step

    def failing_step(opt):
        seen.extend(opt.params)
        if opt.step_count == 1:
            raise RuntimeError("injected failure on step 2")
        return step(opt)

    monkeypatch.setattr(tr.AdamW, "step", failing_step)
    with pytest.raises(RuntimeError, match="injected"):
        tr.fit_scene(vacuum_views(), small_cfg(iterations=5))
    assert seen
    for p in seen:
        assert not p.requires_grad and p.grad is None


def _fit_params(result):
    return [result.triplane.tensor.data] + [t.data for t in result.heads.tensors()]


def test_fit_without_openblas_matches_the_two_worker_fit(monkeypatch):
    # one worker runs both batch parts in the calling thread, part 0 first
    views = vacuum_views()
    pooled = tr.fit_scene(views, small_cfg())
    monkeypatch.setattr(rd, "_find_openblas", lambda: None)
    serial = tr.fit_scene(views, small_cfg())
    assert serial.history == pooled.history
    for a, b in zip(_fit_params(serial), _fit_params(pooled)):
        assert np.array_equal(a, b)


def _watch_parts(monkeypatch):
    """Record (thread, rays) of every render in a fit, run on a fake OpenBLAS and two usable CPUs."""
    monkeypatch.setattr(rd, "_find_openblas", lambda: (lambda k: None, lambda: 1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls = []
    render_rays = tr.render_rays

    def watched(tri, heads, origins, *args):
        calls.append((threading.get_ident(), len(origins)))
        return render_rays(tri, heads, origins, *args)

    monkeypatch.setattr(tr, "render_rays", watched)
    return calls


@pytest.mark.parametrize("ray_batch, sizes", [(1, [1]), (5, [2, 3])])
def test_fit_splits_small_and_odd_batches(monkeypatch, ray_batch, sizes):
    calls = _watch_parts(monkeypatch)
    result = tr.fit_scene(vacuum_views(), small_cfg(iterations=4, ray_batch=ray_batch, val_every=10))
    assert result.steps_run == 4 and np.all(np.isfinite(result.history))
    assert calls[-1] == (threading.get_ident(), 128)  # the probe
    # part 0 runs on the calling thread, part 1 on the one pool thread
    here = threading.get_ident()
    assert [rays for ident, rays in calls[:-1] if ident == here] == sizes[:1] * 4
    assert [rays for ident, rays in calls[:-1] if ident != here] == sizes[1:] * 4


def test_fit_log_callback_can_render_a_view():
    # the fit holds the BLAS pin while it calls `log`, and render_view takes it
    # again; run in a daemon thread, so that a deadlock fails instead of hanging
    rng = np.random.default_rng(0)
    tri = tp.random_triplane(rng, 4, 2)
    heads = rd.init_field_heads(rng, 6, hidden=4)
    cam = sc.camera_orbit(2, 3.0, 0.3, height=4, width=4)[0]
    frames, results = [], []

    def log(step, loss, val):
        frames.append(rd.render_view(tri, heads, cam, 4))

    fit = threading.Thread(target=lambda: results.append(tr.fit_scene(vacuum_views(), small_cfg(
        iterations=2, val_every=1), log=log)), daemon=True)
    fit.start()
    fit.join(timeout=60)
    assert not fit.is_alive()
    assert results[0].steps_run == 2 and len(frames) == 2
