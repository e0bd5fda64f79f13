"""The four trifield workloads, each a closed loop with one client.

A workload builds its inputs from the run's seed, registers after-call hooks
on the op boundary, and drives the program's public API until the run's op
clock raises ``BenchStop``. Its set-up ends with the first op (the warm-up).
After the timed phase it checks the outputs it kept against independent
references. Why each workload exists is written up in README.md.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
import traceback

import numpy as np


class BenchStop(Exception):
    """Raised from an op hook when the timed phase is over."""


VIEW_SIZE = 64
ORBIT_RADIUS = 3.0
ELEVATION_DEG = 20.0
# the oracle's smallest allowed quadrature; at 1024 samples 8 views alone take ~10 s
ORACLE_SAMPLES = 512
RENDER_SAMPLES = 96
# fit_cube / render_view model shapes (configs/cube.cfg): D=32, C=16, hidden 32
GRID_D, GRID_C, HIDDEN = 32, 16, 32
DENOISER_BATCH = 4
DATASET_SIZE = 32
SAMPLE_CHUNK = 8
# not a multiple of the chunk: chunks of 8, 8 and 7 chains. Batch-8 passes are
# the majority of any window, and a batch-7 pass costs about as much, so neither
# the median nor the op rate depends on where the deadline cuts a call.
SAMPLE_CHAINS = 23
# steps of the 7-chain chain that set-up runs, so that both batch shapes reach
# the index caches on every run, however far the timed phase gets
REMAINDER_STEPS = 2
TIMESTEPS = 100
REFERENCE_TOL = 1e-12
OA_TOL = 1e-10


def _scratch_dir(run):
    os.makedirs(run.out_dir, exist_ok=True)
    return tempfile.mkdtemp(prefix="ckpt-", dir=run.out_dir)


def _op_boundary(run, span, accept=None):
    """Make every call of `span` one op; `accept(args, result)` returns an error or None."""

    def hook(args, result):
        if accept is not None:
            err = accept(args, result)
            if err:
                run.fail(err)
        run.op_end()

    run.tracer.hooks[span].append(hook)


def _capture_losses(run):
    """Record every backward root: the trainer's loss."""
    run.tracer.hooks["autodiff.backward"].append(lambda args, result: run.losses.append(float(args[0].data)))


def _drive_trainer(run, train, *args, **kwargs):
    """Run a trainer until the op clock stops it; a trainer that returns on its own has failed.

    Both trainers stop before ``backward()`` when a loss is not finite, so the
    finite-loss check is this one: the trainer must still be running at the deadline.
    """
    try:
        result = train(*args, **kwargs)
    except BenchStop:
        return
    run.stop_failed("trainer stopped early: " + ("diverged (non-finite loss)" if result.diverged
                                                  else "ran out of steps"))


def _forked(run, fn):
    """Return ``fn()`` computed in a forked child, and take back the child's trace state.

    The child's memory peak stays out of this process's ``ru_maxrss``. This
    process waits for the child, so the child's tracer state is this one's
    plus the calls and spans of ``fn``. The result goes through a file, read
    in one piece after the child has ended, so that this process's
    allocations do not depend on how the child's writes interleave with its
    reads: the fit's heap state, and with it its step time, depends on them
    (README.md, "Spread").
    """
    tmp = _scratch_dir(run)
    try:
        path = os.path.join(tmp, "result.pickle")
        pid = os.fork()
        if pid == 0:
            try:
                try:
                    msg = (True, fn(), run.tracer.state())
                except BaseException:
                    msg = (False, traceback.format_exc(), None)
                with open(path, "wb") as f:
                    pickle.dump(msg, f)
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        if not os.path.exists(path):
            raise RuntimeError("forked child died without a result")
        with open(path, "rb") as f:
            ok, value, state = pickle.load(f)
    finally:
        shutil.rmtree(tmp)
    if not ok:
        raise RuntimeError(f"forked child failed:\n{value}")
    run.tracer.adopt(state)
    return value


def _optimizer_clock(run):
    """Ops end at each step of the first optimizer to step; every step must be accepted."""
    first = []

    def hook(args, accepted):
        opt = args[0]
        if not first:
            first.append(opt)
        if not accepted:
            run.fail("AdamW rejected a step")
        if opt is first[0]:
            run.op_end()

    run.tracer.hooks["training.adamw"].append(hook)


# ---------------------------------------------------------------------------
# fit_cube
# ---------------------------------------------------------------------------

def fit_cube(run):
    from trifield import scenes, training

    rng = np.random.default_rng(run.seed)
    scene = scenes.make_scene("cube", {"half": 0.6, "density": 20.0})
    cams = scenes.camera_orbit(8, ORBIT_RADIUS, np.deg2rad(ELEVATION_DEG), height=VIEW_SIZE,
                               width=VIEW_SIZE, azimuth_offset=float(rng.uniform(0.0, np.pi / 4)))
    # rendered in a child so that peak_rss_mb is the fit's, not the oracle's
    views = _forked(run, lambda: [(cam, scenes.oracle_render(scene, cam, ORACLE_SAMPLES)) for cam in cams])
    # No validation probe (cube.cfg runs one every 100 steps): each probe re-rolls
    # the heap between two steady states whose steps differ by ~25%, which made
    # op_ms_p50 spread 0.26 over ten seeds. render_view covers the probe's render.
    cfg = training.FitConfig(iterations=10 ** 9, ray_batch=256, samples_per_ray=48, grid_resolution=GRID_D,
                             grid_channels=GRID_C, hidden=HIDDEN, val_every=10 ** 9, seed=run.seed)
    _capture_losses(run)
    _optimizer_clock(run)
    _drive_trainer(run, training.fit_scene, views, cfg)
    losses = run.losses.values()
    w = max(1, len(losses) // 4)
    first, last = float(np.mean(losses[:w])), float(np.mean(losses[-w:]))
    if not last < first:
        run.check_failed(f"loss did not fall: first {w} steps {first:.4f}, last {w} steps {last:.4f}")
    run.note(f"loss first {w} steps {first:.4f} -> last {w} steps {last:.4f}")


# ---------------------------------------------------------------------------
# render_view
# ---------------------------------------------------------------------------

def _reference_frame(tri_planes, heads, cam, n):
    """Independent numpy render: bilinear lookup, MLP heads, then oracle_integrate."""
    from trifield.render import generate_rays
    from trifield.scenes import oracle_integrate

    bundle = generate_rays(cam)
    edges = np.linspace(bundle.t_near, bundle.t_far, n + 1)
    ts = 0.5 * (edges[:-1] + edges[1:])
    d = tri_planes[0].shape[0]
    half = 0.5 * (d - 1)
    s_layers = [(w.data, b.data) for w, b in heads.s_layers]
    c_layers = [(w.data, b.data) for w, b in heads.c_layers]

    def mlp(x, layers):
        for i, (w, b) in enumerate(layers):
            x = x @ w + b
            if i + 1 < len(layers):
                x = np.maximum(x, 0.0)
        return x

    rgb, mask, depth = [], [], []
    for lo in range(0, len(bundle.origins), 1024):
        o, dr = bundle.origins[lo:lo + 1024], bundle.directions[lo:lo + 1024]
        r = len(o)
        pts = (o[:, None, :] + ts[None, :, None] * dr[:, None, :]).reshape(-1, 3)
        p = np.clip(pts, -1.0, 1.0)
        feats = []
        # planes xy, xz, yz indexed [v, u, c]
        for plane, (au, av) in zip(tri_planes, ((0, 1), (0, 2), (1, 2))):
            u, v = (p[:, au] + 1.0) * half, (p[:, av] + 1.0) * half
            u0 = np.clip(np.floor(u), 0, d - 2).astype(np.int64)
            v0 = np.clip(np.floor(v), 0, d - 2).astype(np.int64)
            fu, fv = u - u0, v - v0
            feats.append(plane[v0, u0] * ((1.0 - fu) * (1.0 - fv))[:, None]
                         + plane[v0, u0 + 1] * (fu * (1.0 - fv))[:, None]
                         + plane[v0 + 1, u0] * ((1.0 - fu) * fv)[:, None]
                         + plane[v0 + 1, u0 + 1] * (fu * fv)[:, None])
        x = np.concatenate([pts] + feats, axis=1)
        sigma = np.logaddexp(0.0, mlp(x, s_layers)[:, 0]).reshape(r, n)
        color = (1.0 / (1.0 + np.exp(-mlp(x, c_layers)))).reshape(r, n, 3)
        out = oracle_integrate(sigma, color, np.broadcast_to(ts, (r, n)), bundle.t_far)
        for acc, val in zip((rgb, mask, depth), out):
            acc.append(val)
    h, w = bundle.shape
    return np.concatenate(rgb).reshape(h, w, 3), np.concatenate(mask).reshape(h, w), np.concatenate(depth).reshape(h, w)


def _frame_error(out):
    if not (np.all(np.isfinite(out.image)) and np.all(np.isfinite(out.depth))):
        return "non-finite frame"
    if out.mask.min() < 0.0 or out.mask.max() > 1.0:
        return f"mask outside [0, 1]: [{out.mask.min()}, {out.mask.max()}]"
    return None


def render_view(run):
    from trifield import checkpoint, render, scenes, triplane

    rng = np.random.default_rng(run.seed)
    tmp = _scratch_dir(run)
    try:
        path = os.path.join(tmp, "view.ckpt")
        checkpoint.save_fit_checkpoint(path, triplane.random_triplane(rng, GRID_D, GRID_C),
                                       render.init_field_heads(rng, 3 * GRID_C, hidden=HIDDEN, depth=2))
        tri, heads = checkpoint.load_fit_checkpoint(path)
    finally:
        shutil.rmtree(tmp)
    az0 = float(rng.uniform(0.0, 360.0))
    kept = []

    def accept(args, out):
        if run.phase == "timed" and not kept:
            kept.append((args[2], out))
        return _frame_error(out)

    _op_boundary(run, "render.view", accept)
    k = 0
    try:
        while True:
            cam = scenes.orbit_camera(np.deg2rad(az0 + 37.0 * k), np.deg2rad(ELEVATION_DEG), ORBIT_RADIUS,
                                      height=VIEW_SIZE, width=VIEW_SIZE)
            render.render_view(tri, heads, cam, RENDER_SAMPLES)
            k += 1
    except BenchStop:
        pass
    cam, out = kept[0]
    ref = _reference_frame([p.data for p in tri.planes], heads, cam, RENDER_SAMPLES)
    err = max(float(np.abs(a - b).max()) for a, b in zip((out.image, out.mask, out.depth), ref))
    if not err <= REFERENCE_TOL:
        run.check_failed(f"frame differs from the numpy reference by {err:.3e} > {REFERENCE_TOL:g}")
    run.note(f"checked frame vs numpy reference: max abs diff {err:.3e}")


# ---------------------------------------------------------------------------
# denoiser_train
# ---------------------------------------------------------------------------

def _adapter_oa_error(den, rng, batch):
    """Max abs difference of the adapter's batched OA against the brute-force reference."""
    from trifield import attention
    from trifield.autodiff import Tensor

    d, f, dd = den.cfg.resolution, den.cfg.hidden, den.cfg.resolution ** 2
    p = den.params
    params = attention.AttentionParams(w_q=p["adapter0.oa.wq"], w_k=p["adapter0.oa.wk"],
                                       w_v=p["adapter0.oa.wv"], w_o=p["adapter0.oa.wo"], d_k=den.cfg.d_k)
    x = rng.standard_normal((batch * 3 * dd, f))
    got = attention.stacked_orthogonal_attention(Tensor(x), params, d, d // 2, batch=batch).data
    err = 0.0
    for e in range(batch):
        planes = [x[(3 * e + i) * dd:(3 * e + i + 1) * dd].reshape(d, d, f) for i in range(3)]
        ref = attention.orthogonal_attention_reference(planes, params, d // 2)
        for i in range(3):
            err = max(err, float(np.abs(got[(3 * e + i) * dd:(3 * e + i + 1) * dd] - ref[i].reshape(dd, f)).max()))
    return err


def denoiser_train(run):
    from trifield import diffusion, scenes

    dataset = scenes.make_toy_triplane_dataset(DATASET_SIZE, d=16, c=4, seed=run.seed)
    den = diffusion.Denoiser(diffusion.DenoiserConfig(use_adapters=True, adapter_attention=True, seed=run.seed))
    cfg = diffusion.DiffusionTrainConfig(steps=10 ** 9, batch=DENOISER_BATCH, lr=2e-3, timesteps=TIMESTEPS,
                                         seed=run.seed)
    _capture_losses(run)
    _optimizer_clock(run)
    _drive_trainer(run, diffusion.train_denoiser, dataset, cfg, denoiser=den)
    err = _adapter_oa_error(den, np.random.default_rng([run.seed, 1]), DENOISER_BATCH)
    if not err <= OA_TOL:
        run.check_failed(f"adapter OA differs from orthogonal_attention_reference by {err:.3e} > {OA_TOL:g}")
    run.note(f"adapter OA vs brute-force reference: max abs diff {err:.3e}")


# ---------------------------------------------------------------------------
# denoiser_sample
# ---------------------------------------------------------------------------

def _seeded_denoiser(rng):
    """Default denoiser with its zero-initialized projections filled, so no pass is trivially zero."""
    from trifield import diffusion

    den = diffusion.Denoiser(diffusion.DenoiserConfig(seed=int(rng.integers(2 ** 31))))
    for t in den.params.values():
        if t.data.ndim == 2 and not t.data.any():
            t.data = rng.normal(scale=0.5 / np.sqrt(t.data.shape[0]), size=t.data.shape)
    return den


def _finite(samples):
    return all(np.all(np.isfinite(p.data)) for s in samples for p in s.planes)


def denoiser_sample(run):
    from trifield import diffusion, scenes

    rng = np.random.default_rng(run.seed)
    tmp = _scratch_dir(run)
    try:
        path = os.path.join(tmp, "denoiser.ckpt")
        diffusion.save_denoiser(path, _seeded_denoiser(rng))
        den = diffusion.load_denoiser(path)
    finally:
        shutil.rmtree(tmp)
    dataset = scenes.make_toy_triplane_dataset(DATASET_SIZE, d=16, c=4, seed=run.seed)
    tokens = [dataset[i % DATASET_SIZE].tokens for i in range(SAMPLE_CHAINS)]
    sched = diffusion.make_schedule(TIMESTEPS)
    remainder = tokens[SAMPLE_CHAINS - SAMPLE_CHAINS % SAMPLE_CHUNK:]
    if not _finite(diffusion.ddpm_sample_many(den, remainder, diffusion.make_schedule(REMAINDER_STEPS), rng,
                                              chunk=SAMPLE_CHUNK)):
        run.check_failed("non-finite samples from the set-up chain")
    first_chunk, rerun = [], []

    def accept(args, out):
        digest = hashlib.blake2b(out.data.tobytes(), digest_size=16).digest()
        if run.phase == "checks":
            rerun.append(digest)
            if len(rerun) == len(first_chunk) < TIMESTEPS:
                raise BenchStop
        elif calls == 0 and len(first_chunk) < TIMESTEPS:
            first_chunk.append(digest)
        if not np.all(np.isfinite(out.data)):
            return "non-finite denoiser output"
        return None

    _op_boundary(run, "diffusion.denoiser", accept)
    calls = 0
    try:
        while True:
            samples = diffusion.ddpm_sample_many(den, tokens, sched, np.random.default_rng([run.seed, calls]),
                                                 chunk=SAMPLE_CHUNK)
            calls += 1
            if not _finite(samples):
                run.check_failed("non-finite samples")
    except BenchStop:
        pass
    try:
        samples = diffusion.ddpm_sample_many(den, tokens[:SAMPLE_CHUNK], sched, np.random.default_rng([run.seed, 0]),
                                             chunk=SAMPLE_CHUNK)
        if not _finite(samples):
            run.check_failed("non-finite samples in the rerun")
    except BenchStop:
        pass
    if rerun != first_chunk:
        same = sum(a == b for a, b in zip(rerun, first_chunk))
        run.check_failed(f"rerun of the first chunk differs: {same}/{len(first_chunk)} passes bit-identical")
    run.note(f"rerun of the first chunk: {len(first_chunk)} passes compared bit for bit; {calls} whole sampler calls")


WORKLOADS = {
    "fit_cube": fit_cube,
    "render_view": render_view,
    "denoiser_train": denoiser_train,
    "denoiser_sample": denoiser_sample,
}
