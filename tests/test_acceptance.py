"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to watch the lines stream;
criteria are ordered lightest first. Budgets are generous wall-clock caps.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from trifield import attention as at
from trifield import autodiff as ad
from trifield import cli
from trifield import diffusion as df
from trifield import render as rd
from trifield import scenes as sc
from trifield import training as tr
from trifield import triplane as tp
from trifield.attention import token_ids
from trifield.autodiff import Tensor
from trifield.checkpoint import load_fit_checkpoint, save_fit_checkpoint
from trifield.images import read_pgm, read_ppm
from trifield.triplane import Triplane


@contextmanager
def criterion(number, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"\n[criterion {number}] {name}: PASS ({time.time() - start:.1f}s)")


def test_criterion_1_gradient_suite():
    with criterion(1, "gradient suite"):
        start = time.time()
        entries = cli._gradcheck_entries("all", seed=0)
        names = " ".join(name for name, _, _ in entries)
        for needed in ("sample_triplane", "orthogonal", "cross", "transformer_refine",
                       "field_eval", "integrate_ray", "render_loss"):
            assert needed in names
        for name, threshold, fn in entries:
            err = fn()
            assert err < threshold, f"{name}: {err:.3e} >= {threshold:g}"
        assert time.time() - start < 120.0


def test_criterion_2_oa_oracle_equivalence():
    with criterion(2, "orthogonal attention vs brute force"):
        start = time.time()
        worst = 0.0
        for d in (1, 2, 3, 4):
            for c in (1, 2):
                for seed in range(100):
                    rng = np.random.default_rng(seed)
                    tri = tp.random_triplane(rng, d, c, scale=1.0)
                    params = at.attention_params(rng, c, d_k=3, zero_out=False)
                    out = at.orthogonal_attention(tri, params, d // 2)
                    ref = at.orthogonal_attention_reference(tri.tensor.data, params, d // 2)
                    worst = max(worst, max(np.abs(o - r).max() for o, r in zip(out.tensor.data, ref)))
        assert worst < 1e-10, f"max deviation {worst:.3e}"
        assert time.time() - start < 60.0


def _slab_mask(n):
    # constant sigma = 2 across the chord [1.43, 2.43] inside bounds [0.1, 3.9]
    o = np.array([[-1.93, 0.0, 0.0]])
    d = np.array([[1.0, 0.0, 0.0]])
    scene = sc.make_scene("sphere", {"radius": 0.5, "density": 2.0})
    ts = rd.sample_points_batch(0.1, 3.9, 1, n)
    pts = (o[:, None, :] + ts[..., None] * d[:, None, :]).reshape(-1, 3)
    sig = scene.sigma(pts).reshape(1, n)
    col = scene.color(pts).reshape(1, n, 3)
    _, mask, _ = rd.integrate_rays(Tensor(sig), Tensor(col), ts, 3.9)
    return float(mask.data[0])


def test_criterion_3_volume_rendering_physics():
    with criterion(3, "constant-slab transmittance and convergence"):
        closed = 1.0 - np.exp(-2.0 * 1.0)
        errs = {n: abs(_slab_mask(n) - closed) for n in (16, 64, 256)}
        assert errs[256] / closed < 0.01, f"relative error {errs[256] / closed:.4%}"
        assert errs[16] > errs[64] > errs[256], f"not monotone: {errs}"


def test_criterion_4_scene_fitting_psnr():
    with criterion(4, "colored-cube fit, any-view PSNR"):
        start = time.time()
        scene = sc.make_scene("cube", {"half": 0.6, "density": 20.0})
        radius, elev = 3.0, np.deg2rad(20.0)
        cams = sc.camera_orbit(8, radius, elev, height=64, width=64,
                               azimuth_offset=np.deg2rad(22.5))
        views = [(cam, sc.oracle_render(scene, cam, 1024)) for cam in cams]
        cfg = tr.FitConfig(iterations=3000, ray_batch=256, samples_per_ray=48,
                           val_every=100, seed=0)
        result = tr.fit_scene(views, cfg)
        assert not result.diverged

        # held-out canonical views, halfway between the training azimuths
        for az in (0.0, 90.0, 180.0, 270.0):
            cam = sc.orbit_camera(np.deg2rad(az), elev, radius, height=64, width=64)
            gt = sc.oracle_render(scene, cam, 1024)
            pred = rd.render_view(result.triplane, result.heads, cam, 96)
            val = tr.psnr(pred.image, gt.image)
            print(f"  canonical az {az:5.1f}: {val:.2f} dB")
            assert val >= 25.0, f"azimuth {az}: {val:.2f} dB < 25"

        # an arbitrary azimuth never seen in training or canonical evaluation
        cam = sc.orbit_camera(np.deg2rad(137.0), elev, radius, height=64, width=64)
        gt = sc.oracle_render(scene, cam, 1024)
        pred = rd.render_view(result.triplane, result.heads, cam, 96)
        val = tr.psnr(pred.image, gt.image)
        print(f"  unseen az 137.0: {val:.2f} dB")
        assert val >= 22.0, f"unseen azimuth: {val:.2f} dB < 22"
        assert time.time() - start < 900.0


class _SingleExample:
    def __init__(self, x0, tokens):
        self.x0 = x0
        self.tokens = tokens


def test_criterion_5_diffusion_objectives():
    with criterion(5, "diffusion objectives"):
        start = time.time()
        # the triplane objective is the sum of the three per-plane noise MSEs,
        # each computed here in numpy from the denoiser's prediction
        dataset = sc.make_toy_triplane_dataset(2, d=16, c=4, seed=7)
        den = df.Denoiser(df.DenoiserConfig(seed=3))
        fill = np.random.default_rng(1)
        for t in den.params.values():  # no zero-initialized head: the prediction is not 0
            if not t.data.any():
                t.data = fill.normal(scale=0.1, size=t.data.shape)
        sched = df.make_schedule(100)
        eps = df.noise_like(dataset[0].x0, np.random.default_rng(0))
        tokens = dataset[0].tokens[None]
        full = float(df.epsilon_loss(den, [dataset[0].x0], tokens, [40], [eps], sched).data)
        x_t = tp.stack_planes([df.q_sample(dataset[0].x0, 40, eps, sched)])
        pred = den._forward_stacked(x_t, [40], tokens, 1).data.reshape(3, 16, 16, 4)
        parts = [float(np.mean((pred[i] - eps.tensor.data[i]) ** 2)) for i in range(3)]
        assert full == pytest.approx(parts[0] + parts[1] + parts[2], rel=1e-12)

        # variance preservation within 2% over ~1e5 scalar draws
        rng = np.random.default_rng(7)
        d, c = 4, 2
        draws, per = 1100, 3 * d * d * c
        acc = np.empty((draws, per))
        for i in range(draws):
            x0 = Triplane(rng.standard_normal((3, d, d, c)))
            noise = df.noise_like(x0, rng)
            xt = df.q_sample(x0, 50, noise, sched)
            acc[i] = xt.tensor.data.ravel()
        assert acc.size >= 100_000
        assert abs(acc.var() - 1.0) < 0.02, f"variance {acc.var():.4f}"

        # single-example memorization: smoothed eps-loss below 0.1 within 2000 steps
        x0 = Triplane(np.full((3, 16, 16, 4), 0.3))
        single = [_SingleExample(x0, token_ids(("red", "small", "box")))]
        cfg = df.DiffusionTrainConfig(steps=2000, batch=2, lr=3e-3, seed=2)
        res = df.train_denoiser(single, cfg, model_cfg=df.DenoiserConfig(use_adapters=False, seed=2))
        h = np.array(res.history)
        smoothed = min(h[i - 50:i].mean() for i in range(50, len(h) + 1, 50))
        print(f"  memorization smoothed loss: {smoothed:.4f}")
        assert smoothed < 0.1, f"smoothed loss {smoothed:.4f}"

        # samples from the memorized model stay near x0
        samples = df.ddpm_sample_many(res.denoiser, [single[0].tokens] * 4, res.sched,
                                      np.random.default_rng(3), chunk=4)
        mad = np.mean([np.abs(s.tensor.data[i] - x0.tensor.data[i]).mean()
                       for s in samples for i in range(3)])
        print(f"  memorization sample MAD: {mad:.4f}")
        assert mad < 0.15, f"sample MAD {mad:.4f}"
        assert time.time() - start < 300.0


def test_criterion_6_oa_ablation():
    with criterion(6, "paired OA ablation on cross-plane consistency"):
        start = time.time()
        dataset = sc.make_toy_triplane_dataset(32, d=16, c=4, seed=11)
        toks = [dataset[i % len(dataset)].tokens for i in range(64)]
        scores = {}
        for use_oa in (True, False):
            cfg = df.DiffusionTrainConfig(steps=800, batch=4, lr=2e-3, seed=5)
            mcfg = df.DenoiserConfig(use_adapters=True, adapter_attention=use_oa, seed=5)
            res = df.train_denoiser(dataset, cfg, model_cfg=mcfg)
            assert not res.diverged
            samples = df.ddpm_sample_many(res.denoiser, toks, res.sched,
                                          np.random.default_rng(99), chunk=8)
            scores[use_oa] = float(np.mean([df.cross_plane_consistency(s) for s in samples]))
        rel = (scores[False] - scores[True]) / scores[False]
        print(f"  consistency error: OA on {scores[True]:.4f}, OA off {scores[False]:.4f} "
              f"({rel:.1%} lower with OA)")
        assert scores[True] < scores[False]
        assert rel >= 0.25, f"relative improvement {rel:.1%} < 25%"
        assert time.time() - start < 600.0


FIT_CONFIG = [
    "seed = 4",
    "scene.kind = sphere",
    "scene.radius = 0.5",
    "scene.density = 6.0",
    "fit.iterations = 150",
    "fit.views = 2",
    "fit.image_size = 12",
    "fit.ray_batch = 96",
    "fit.samples_per_ray = 12",
    "fit.grid_resolution = 8",
    "fit.grid_channels = 4",
    "fit.hidden = 8",
    "fit.val_every = 50",
    "fit.val_rays = 128",
    "eval.oracle_samples = 512",
    "eval.azimuths_deg = 45",
    "render.samples_per_ray = 16",
    "render.size = 12",
]


def test_criterion_7_determinism_and_formats(tmp_path):
    with criterion(7, "determinism, image formats, checkpoint round trip"):
        cfg_path = tmp_path / "fit.cfg"
        cfg_path.write_text("\n".join(FIT_CONFIG) + "\n")

        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["fit", "--config", str(cfg_path), "--out", out1]) == 0
        assert cli.main(["fit", "--config", str(cfg_path), "--out", out2]) == 0
        for name in ("metrics.txt", "checkpoint.trifield", "preview_rgb.ppm",
                     "preview_mask.pgm", "preview_depth.pgm"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, f"{name} differs between identical runs"

        # checkpoint round trip renders bit-identically to the in-memory model
        tri, heads = load_fit_checkpoint(os.path.join(out1, "checkpoint.trifield"))
        cam = sc.orbit_camera(np.deg2rad(33.0), 0.3, 3.0, height=8, width=8)
        direct = rd.render_view(tri, heads, cam, 16)
        path2 = os.path.join(out1, "roundtrip.ckpt")
        save_fit_checkpoint(path2, tri, heads)
        tri2, heads2 = load_fit_checkpoint(path2)
        again = rd.render_view(tri2, heads2, cam, 16)
        assert np.array_equal(direct.image, again.image)
        assert np.array_equal(direct.mask, again.mask)
        assert np.array_equal(direct.depth, again.depth)

        # P6/P5 payloads follow the documented quantization exactly
        img = read_ppm(os.path.join(out1, "preview_rgb.ppm"))
        assert img.shape == (12, 12, 3) and img.min() >= 0.0 and img.max() <= 1.0
        raw = open(os.path.join(out1, "preview_rgb.ppm"), "rb").read()
        assert raw.startswith(b"P6\n12 12\n255\n")
        mask = read_pgm(os.path.join(out1, "preview_mask.pgm"))
        assert mask.shape == (12, 12)
        assert open(os.path.join(out1, "preview_mask.pgm"), "rb").read().startswith(b"P5\n")
