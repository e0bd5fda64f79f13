"""Command-line surface: gradient checks, scene fitting, any-view rendering,
diffusion training/sampling/ablation, and checkpoint evaluation.

Exit codes: 0 success, 1 acceptance or checkpoint failure, 2 config or usage
error. Every command is deterministic given (config, seed) and writes only
under --out.
"""

from __future__ import annotations

import argparse
import os
import sys


def _write_metrics(path, items):
    with open(path, "w", encoding="utf-8") as f:
        for key, value in items:
            f.write(f"{key}={value}\n")


def _fmt(x):
    return repr(float(x))


def _make_out(cfg):
    """Create --out and return it; a path that cannot be a directory is a config error."""
    from .config import ConfigError

    try:
        os.makedirs(cfg["out"], exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out {cfg['out']!r} cannot be a directory: {exc.strerror}") from None
    return cfg["out"]


def _load_checkpoint(load, path):
    """`load(path)`, or None after printing the failing field (the caller exits 1)."""
    from .checkpoint import CheckpointError

    try:
        return load(path)
    except (CheckpointError, OSError) as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _numerics_entries(rng, seed):
    from . import autodiff as ad

    entries = [(f"numerics.{name}", 1e-6, lambda f=f, x=x: ad.grad_check(f, x))
               for name, f, x in ad.primitive_suite(seed)]
    w1 = ad.Tensor(rng.normal(size=(8, 6)))
    b1 = ad.Tensor(rng.normal(size=(6,)))
    w2 = ad.Tensor(rng.normal(size=(6, 1)))
    b2 = ad.Tensor(rng.normal(size=(1,)))

    def mlp_head(x):
        h = ad.relu(ad.affine(ad.reshape(x, (1, 8)), w1, b1))
        return ad.reshape(ad.affine(h, w2, b2), ())

    x0 = ad.Tensor(rng.normal(size=(8,)) + 0.05, requires_grad=True)
    entries.append(("numerics.mlp_head", 1e-6, lambda: ad.grad_check(mlp_head, x0)))
    return entries


def _with_plane(tri, x):
    """`tri` with its xy plane replaced by the (D, D, C) tensor x."""
    from . import autodiff as ad
    from . import triplane as tp

    d, c = tri.resolution, tri.channels
    return tp.Triplane(ad.concat([ad.reshape(x, (1, d, d, c)), ad.narrow(tri.tensor, 0, 1, 2)]))


def _on_plane(tri, fn):
    """A check of fn's gradient at tri's xy plane."""
    from . import autodiff as ad

    return lambda: ad.grad_check(fn, ad.Tensor(tri.tensor.data[0].copy(), requires_grad=True))


def _attention_entries(rng):
    from . import attention as at
    from . import autodiff as ad
    from . import triplane as tp

    d, c = 4, 2
    tri = tp.random_triplane(rng, d, c, scale=0.8)
    probe = ad.Tensor(rng.normal(size=(d, d, c)))
    text = at.TextEmbedding(ad.Tensor(rng.normal(size=(3, 5))))
    pr_oa = at.attention_params(rng, c, d_k=3, zero_out=False)
    pr_ca = at.attention_params(rng, c, d_k=3, kv_dim=5, zero_out=False)
    pr_refine = at.refine_params(rng, c, d_k=3, d_model=5, depth=2)
    for block in pr_refine.blocks:  # non-trivial path through every sub-op
        block.ca.w_o.data = rng.normal(scale=0.3, size=block.ca.w_o.data.shape)
        block.oa.w_o.data = rng.normal(scale=0.3, size=block.oa.w_o.data.shape)
        block.mlp_w2.data = rng.normal(scale=0.3, size=block.mlp_w2.data.shape)

    def oa_loss(x):
        return ad.tsum(ad.mul(at.orthogonal_attention(_with_plane(tri, x), pr_oa, d // 2).planes[0], probe))

    def ca_loss(x):
        rows = at.cross_attention(tp.stack_planes([_with_plane(tri, x)]), text.tokens, pr_ca)
        return ad.tsum(ad.mul(tp.unstack_planes(rows, d, c)[0].planes[0], probe))

    def refine_loss(x):
        return ad.tsum(ad.mul(at.transformer_refine(_with_plane(tri, x), text, pr_refine).planes[0], probe))

    return [
        ("attention.orthogonal", 1e-6, _on_plane(tri, oa_loss)),
        ("attention.cross", 1e-6, _on_plane(tri, ca_loss)),
        ("attention.transformer_refine", 1e-5, _on_plane(tri, refine_loss)),
    ]


def _renderer_entries(rng):
    import numpy as np

    from . import autodiff as ad
    from . import render as rd
    from . import training as tr
    from . import triplane as tp
    from .scenes import look_at_origin

    d, c = 4, 2
    tri = tp.random_triplane(rng, d, c, scale=0.8)
    pts = rng.uniform(-0.85, 0.85, size=(5, 3)) + 0.0137  # off grid lines
    probe = ad.Tensor(rng.normal(size=(5, 3 * c)))
    heads = rd.init_field_heads(rng, 3 * c, hidden=8, depth=2)
    ts = np.sort(rng.uniform(0.2, 3.8, size=(3, 6)), axis=1)
    cols = ad.Tensor(rng.uniform(size=(3, 6, 3)))
    sig0 = ad.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    pos = np.array([2.5, 0.4, 0.8])
    cam = rd.Camera(pos, look_at_origin(pos), 1.1, 4, 4)
    probe_rgb = ad.Tensor(rng.normal(size=(5, 3)))

    def samp_loss(x):
        return ad.tsum(ad.mul(tp.sample_triplane(_with_plane(tri, x), pts), probe))

    def sigma_loss(x):
        sigma, _ = rd.field_eval_batch(_with_plane(tri, x), heads, pts)
        return ad.tsum(sigma)

    def head_w0_loss(x):
        (_, b0), *rest = heads.s_layers
        sigma, _ = rd.field_eval_batch(tri, rd.FieldHeads([(x, b0)] + rest, heads.c_layers), pts)
        return ad.tsum(sigma)

    def head_bias_loss(x):
        *rest, (w_last, _) = heads.c_layers
        _, color = rd.field_eval_batch(tri, rd.FieldHeads(heads.s_layers, rest + [(w_last, x)]), pts)
        return ad.tsum(ad.mul(color, probe_rgb))

    def integrate_loss(x):
        rgb, mask, depth = rd.integrate_rays(ad.softplus(x), cols, ts, 4.0)
        return ad.add(ad.tsum(rgb), ad.add(ad.tsum(mask), ad.tsum(ad.mul(depth, 0.1))))

    def render_loss_fn(x):
        bundle = rd.generate_rays(cam)
        ts = rd.sample_points_batch(bundle.t_near, bundle.t_far, len(bundle.origins), 8)
        rgb, mask, depth = rd.render_rays(_with_plane(tri, x), heads, bundle.origins, bundle.directions, ts,
                                          bundle.t_far)
        pred = rd.RenderOutput(rgb, mask, depth)
        gt = rd.RenderOutput(np.zeros((16, 3)), np.zeros(16), np.full(16, bundle.t_far))
        return tr.render_loss([pred], [gt])

    return [
        ("renderer.sample_triplane", 1e-6, _on_plane(tri, samp_loss)),
        ("renderer.field_eval_sigma", 1e-5, _on_plane(tri, sigma_loss)),
        ("renderer.field_eval_sigma_w0", 1e-5,
         lambda: ad.grad_check(head_w0_loss, ad.Tensor(heads.s_layers[0][0].data.copy()))),
        ("renderer.field_eval_color_bias", 1e-6,
         lambda: ad.grad_check(head_bias_loss, ad.Tensor(heads.c_layers[-1][1].data.copy()))),
        ("renderer.integrate_ray", 1e-6, lambda: ad.grad_check(integrate_loss, sig0)),
        ("renderer.render_loss_path", 1e-4, _on_plane(tri, render_loss_fn)),
    ]


def _gradcheck_entries(scope, seed):
    import numpy as np

    entries = []  # (name, threshold, fn() -> max_rel_error)
    rng = np.random.default_rng(seed)
    if scope in ("all", "numerics"):
        entries += _numerics_entries(rng, seed)
    if scope in ("all", "attention"):
        entries += _attention_entries(rng)
    if scope in ("all", "renderer"):
        entries += _renderer_entries(rng)
    return entries


def _rebind(old, new):
    """Point every name a loaded trifield module binds to `old` at `new`."""
    for name, mod in list(sys.modules.items()):
        if name == "trifield" or name.startswith("trifield."):
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)


def cmd_gradcheck(args):
    from . import autodiff as ad
    from .config import RunConfig

    RunConfig({"seed": args.seed})  # the seed domain every command shares
    if args.inject_fault:
        original = getattr(ad, args.inject_fault, None)
        code = getattr(original, "__code__", None)
        if code is None or not any(getattr(c, "co_name", None) == "bwd" for c in code.co_consts):
            # only a primitive, a function that builds its own `bwd` closure, has an adjoint to corrupt
            print(f"no such op to corrupt: {args.inject_fault}", file=sys.stderr)
            return 2

        def corrupted(*a, **k):
            out = original(*a, **k)
            clean = out._backward
            if clean is not None:
                out._backward = lambda g: tuple((p, pg * 1.01) for p, pg in clean(g))
            return out

    entries = _gradcheck_entries(args.scope, args.seed)  # imports the modules the entries call into
    failures = 0
    print(f"{'op':36s} {'max_rel_err':>12s} {'threshold':>10s} status")
    if args.inject_fault:
        _rebind(original, corrupted)
    try:
        for name, threshold, fn in entries:
            err = fn()
            ok = err < threshold
            failures += 0 if ok else 1
            print(f"{name:36s} {err:12.3e} {threshold:10.0e} {'pass' if ok else 'FAIL'}")
    finally:
        if args.inject_fault:
            _rebind(corrupted, original)
    print(f"{len(entries) - failures}/{len(entries)} passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# fit / render / eval
# ---------------------------------------------------------------------------

def _section(cls, cfg, prefix, **given):
    """A `cls` dataclass with each field read from the `prefix.<field>` key, but those `given`."""
    import dataclasses

    return cls(**{f.name: cfg[f"{prefix}.{f.name}"] for f in dataclasses.fields(cls) if f.name not in given}, **given)


def _checked_scene(cfg):
    """The config's scene, after rejecting values that break a rule tying keys together: a
    scene's parameters for its kind, or an elevation that puts a camera on the up axis."""
    import numpy as np

    from . import scenes as sc
    from .config import ConfigError

    kind, radius = cfg["scene.kind"], cfg["fit.orbit_radius"]
    names = {"sphere": ("radius", "density"), "cube": ("half", "density"), "two_blob": ("amplitude", "width")}
    try:
        scene = sc.make_scene(kind, {name: cfg[f"scene.{name}"] for name in names.get(kind, ())})
        sc.orbit_camera(0.0, np.deg2rad(cfg["fit.elevation_deg"]), radius)  # every fit view shares it
        for az in cfg["eval.azimuths_deg"] + (cfg["eval.unseen_azimuth_deg"],):
            sc.orbit_camera(np.deg2rad(az), np.deg2rad(cfg["eval.elevation_deg"]), radius)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return scene


def _load_config(args):
    from .config import RunConfig, parse_config

    cfg = parse_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.set("seed", args.seed)
    if args.out is not None:
        cfg.set("out", args.out)
    return cfg


def _azimuth_psnrs(cfg, scene, tri, heads, size, prefix):
    """PSNR against the oracle at every eval.azimuths_deg pose -> (metrics, mean)."""
    import numpy as np

    from . import scenes as sc
    from . import training as tr
    from .render import render_view

    elev = np.deg2rad(cfg["eval.elevation_deg"])
    metrics, psnrs = [], []
    for az_deg in cfg["eval.azimuths_deg"]:
        cam = sc.orbit_camera(np.deg2rad(az_deg), elev, cfg["fit.orbit_radius"], height=size, width=size)
        gt = sc.oracle_render(scene, cam, cfg["eval.oracle_samples"])
        pred = render_view(tri, heads, cam, cfg["render.samples_per_ray"])
        psnrs.append(tr.psnr(pred.image, gt.image))
        metrics.append((f"{prefix}.{az_deg:g}", _fmt(psnrs[-1])))
    mean = np.mean(psnrs)
    metrics.append((f"{prefix}.mean", _fmt(mean)))
    return metrics, mean


def cmd_fit(args):
    import numpy as np

    from . import scenes as sc
    from . import training as tr
    from .checkpoint import save_fit_checkpoint
    from .images import write_pgm, write_ppm
    from .render import default_bounds, render_view

    cfg = _load_config(args)
    scene = _checked_scene(cfg)
    out = _make_out(cfg)
    elev = np.deg2rad(cfg["fit.elevation_deg"])
    radius = cfg["fit.orbit_radius"]
    size = cfg["fit.image_size"]
    cams = sc.camera_orbit(cfg["fit.views"], radius, elev, height=size, width=size,
                           azimuth_offset=np.deg2rad(cfg["fit.azimuth_offset_deg"]))
    views = [(cam, sc.oracle_render(scene, cam, cfg["eval.oracle_samples"])) for cam in cams]

    fit_cfg, weights = _section(tr.FitConfig, cfg, "fit", seed=cfg["seed"]), _section(tr.LossWeights, cfg, "fit")
    logs = []
    result = tr.fit_scene(views, fit_cfg, weights, log=lambda s, l, v: logs.append((s, l, v)))

    metrics = [(f"loss.{s:05d}", _fmt(l)) for s, l, _ in logs]
    metrics += [(f"val.{s:05d}", _fmt(v)) for s, _, v in logs]
    metrics += [("best_val", _fmt(result.best_val)), ("steps", result.steps_run),
                ("diverged", int(result.diverged)),
                ("mean_sigma", _fmt(tr.mean_density(result.triplane, result.heads)))]

    metrics += _azimuth_psnrs(cfg, scene, result.triplane, result.heads, size, "psnr.holdout")[0]

    az_u = cfg["eval.unseen_azimuth_deg"]
    cam = sc.orbit_camera(np.deg2rad(az_u), np.deg2rad(cfg["eval.elevation_deg"]), radius, height=size, width=size)
    gt = sc.oracle_render(scene, cam, cfg["eval.oracle_samples"])
    pred = render_view(result.triplane, result.heads, cam, cfg["render.samples_per_ray"])
    metrics.append((f"psnr.unseen.{az_u:g}", _fmt(tr.psnr(pred.image, gt.image))))

    save_fit_checkpoint(os.path.join(out, "checkpoint.trifield"), result.triplane, result.heads)
    write_ppm(os.path.join(out, "preview_rgb.ppm"), pred.image)
    write_pgm(os.path.join(out, "preview_mask.pgm"), pred.mask)
    tn, tf = default_bounds(cam.position)
    write_pgm(os.path.join(out, "preview_depth.pgm"), (pred.depth - tn) / (tf - tn))
    _write_metrics(os.path.join(out, "metrics.txt"), metrics)
    print(f"wrote {out}/checkpoint.trifield and {out}/metrics.txt")
    return 1 if result.diverged else 0


def cmd_render(args):
    import numpy as np

    from . import scenes as sc
    from .checkpoint import load_fit_checkpoint
    from .config import SPEC, Real
    from .images import write_pgm, write_ppm
    from .render import default_bounds, render_view

    cfg = _load_config(args)
    _checked_scene(cfg)  # render reads no scene, yet refuses the values fit and eval refuse
    size = cfg["render.size"] if args.size is None else args.size
    problem = SPEC["render.size"][1].problem(size)
    if problem:
        print(f"usage error: --size {problem}, got {size}", file=sys.stderr)
        return 2
    if not np.isfinite(args.elevation):
        print(f"usage error: --elevation {args.elevation} is not a finite number of degrees", file=sys.stderr)
        return 2
    views = []  # every token parsed and every camera built before the first view is written
    for token in str(args.azimuth).split(","):
        try:
            az = Real().parse(token)
        except ValueError:
            print(f"usage error: --azimuth {token.strip()!r} is not a finite number of degrees", file=sys.stderr)
            return 2
        try:
            cam = sc.orbit_camera(np.deg2rad(az), np.deg2rad(args.elevation), cfg["fit.orbit_radius"],
                                  height=size, width=size)
        except ValueError as exc:
            print(f"usage error: --elevation {args.elevation:g}: {exc}", file=sys.stderr)
            return 2
        views.append((token.strip(), cam))
    loaded = _load_checkpoint(load_fit_checkpoint, args.checkpoint)
    if loaded is None:
        return 1
    tri, heads = loaded
    out = _make_out(cfg)
    for token, cam in views:
        view = render_view(tri, heads, cam, cfg["render.samples_per_ray"])
        tag = f"az{token}_el{args.elevation:g}"
        write_ppm(os.path.join(out, f"view_{tag}.ppm"), view.image)
        write_pgm(os.path.join(out, f"view_{tag}_mask.pgm"), view.mask)
        tn, tf = default_bounds(cam.position)
        write_pgm(os.path.join(out, f"view_{tag}_depth.pgm"), (view.depth - tn) / (tf - tn))
        print(f"wrote view_{tag}.ppm")
    return 0


def cmd_eval(args):
    from .checkpoint import load_fit_checkpoint

    cfg = _load_config(args)
    scene = _checked_scene(cfg)
    loaded = _load_checkpoint(load_fit_checkpoint, args.checkpoint)
    if loaded is None:
        return 1
    tri, heads = loaded
    out = _make_out(cfg)
    metrics, mean = _azimuth_psnrs(cfg, scene, tri, heads, cfg["render.size"], "psnr")
    _write_metrics(os.path.join(out, "eval_metrics.txt"), metrics)
    print(f"mean PSNR {mean:.2f} dB over {len(cfg['eval.azimuths_deg'])} views")
    return 0


# ---------------------------------------------------------------------------
# diffusion
# ---------------------------------------------------------------------------

def _triplane_previews(out_dir, stem, tri):
    import numpy as np

    from .images import write_pgm, write_ppm

    side = np.concatenate(np.clip(tri.tensor.data, 0.0, 1.0), axis=1)  # (D, 3D, C), planes side by side
    write_pgm(os.path.join(out_dir, f"{stem}_occ.pgm"), side[..., 0])
    write_ppm(os.path.join(out_dir, f"{stem}_rgb.ppm"), side[..., 1:4])


def _train_cfgs(cfg, use_oa):
    from . import diffusion as df

    train_cfg = _section(df.DiffusionTrainConfig, cfg, "diffusion", seed=cfg["seed"])
    model_cfg = df.DenoiserConfig(
        resolution=cfg["diffusion.grid_resolution"], channels=cfg["diffusion.grid_channels"],
        hidden=cfg["diffusion.hidden"], d_k=cfg["diffusion.d_k"], d_model=cfg["diffusion.d_model"],
        timesteps=cfg["diffusion.timesteps"], use_adapters=True, adapter_attention=use_oa, seed=cfg["seed"],
    )
    return train_cfg, model_cfg


def cmd_diffusion(args):
    import numpy as np

    from . import diffusion as df
    from . import scenes as sc
    from .config import ConfigError

    cfg = _load_config(args)
    try:  # constructor rules (beta_start <= beta_end) run before a checkpoint is read or a file written
        sched = df.make_schedule(cfg["diffusion.timesteps"], cfg["diffusion.beta_start"], cfg["diffusion.beta_end"])
        train_cfg, model_cfg = _train_cfgs(cfg, cfg["diffusion.use_oa"])
        dataset = sc.make_toy_triplane_dataset(
            cfg["diffusion.dataset_size"], d=cfg["diffusion.grid_resolution"],
            c=cfg["diffusion.grid_channels"], seed=cfg["diffusion.dataset_seed"],
        )
    except ValueError as exc:
        raise ConfigError(f"diffusion: {exc}") from None
    if args.mode == "sample" and not args.checkpoint:
        print("usage error: diffusion sample needs --checkpoint", file=sys.stderr)
        return 2
    denoiser = None
    if args.checkpoint and args.mode != "ablate":
        denoiser = _load_checkpoint(df.load_denoiser, args.checkpoint)
        if denoiser is None:
            return 1
        for field, key in (("resolution", "diffusion.grid_resolution"), ("channels", "diffusion.grid_channels"),
                           ("timesteps", "diffusion.timesteps"), ("hidden", "diffusion.hidden"),
                           ("d_k", "diffusion.d_k"), ("d_model", "diffusion.d_model"),
                           ("adapter_attention", "diffusion.use_oa")):
            have, want = getattr(denoiser.cfg, field), cfg[key]
            if have != want:
                print(f"checkpoint error: denoiser {field} {have} does not match {key} {want}", file=sys.stderr)
                return 1
    out = _make_out(cfg)

    if args.mode == "train":
        if denoiser is not None and train_cfg.freeze_backbone and not denoiser.cfg.use_adapters:
            denoiser = df.with_adapters(denoiser, seed=cfg["seed"])
        result = df.train_denoiser(dataset, train_cfg, model_cfg=model_cfg, denoiser=denoiser)
        df.save_denoiser(os.path.join(out, "denoiser.ckpt"), result.denoiser)
        metrics = [(f"loss.{i:05d}", _fmt(v)) for i, v in enumerate(result.history, start=1) if i % 100 == 0]
        metrics += [("loss.final", _fmt(np.mean(result.history[-20:]))), ("diverged", int(result.diverged))]
        _write_metrics(os.path.join(out, "metrics.txt"), metrics)
        print(f"final loss {np.mean(result.history[-20:]):.4f}")
        return 1 if result.diverged else 0

    toks = [dataset[i % len(dataset)].tokens for i in range(cfg["diffusion.samples"])]
    if args.mode == "sample":
        samples = df.ddpm_sample_many(denoiser, toks, sched, np.random.default_rng(cfg["seed"]),
                                      chunk=cfg["diffusion.sample_chunk"])
        consistency = [df.cross_plane_consistency(tri) for tri in samples]
        for i, tri in enumerate(samples):
            _triplane_previews(out, f"sample_{i:03d}", tri)
        mean = np.mean(consistency)
        metrics = [(f"consistency.{i:03d}", _fmt(v)) for i, v in enumerate(consistency)]
        metrics.append(("consistency.mean", _fmt(mean)))
        _write_metrics(os.path.join(out, "sample_metrics.txt"), metrics)
        print(f"mean cross-plane consistency {mean:.4f} over {len(samples)} samples")
        return 0

    scores = {}  # ablate: the same training and chains with OA on and off
    for label, use_oa in (("oa_on", True), ("oa_off", False)):
        train_cfg, model_cfg = _train_cfgs(cfg, use_oa)
        result = df.train_denoiser(dataset, train_cfg, model_cfg=model_cfg)
        samples = df.ddpm_sample_many(result.denoiser, toks, sched,
                                      np.random.default_rng(cfg["seed"]), chunk=cfg["diffusion.sample_chunk"])
        scores[label] = float(np.mean([df.cross_plane_consistency(t) for t in samples]))
    rel = (scores["oa_off"] - scores["oa_on"]) / scores["oa_off"] if scores["oa_off"] else 0.0
    print(f"{'config':10s} {'consistency':>12s}")
    print(f"{'oa_on':10s} {scores['oa_on']:12.5f}")
    print(f"{'oa_off':10s} {scores['oa_off']:12.5f}")
    print(f"relative improvement: {rel:.1%}")
    _write_metrics(os.path.join(out, "ablate_metrics.txt"), [
        ("consistency.oa_on", _fmt(scores["oa_on"])),
        ("consistency.oa_off", _fmt(scores["oa_off"])),
        ("relative_improvement", _fmt(rel)),
    ])
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="trifield", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("--scope", choices=("all", "numerics", "attention", "renderer"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", default=None, metavar="OP",
                   help="corrupt one op's adjoint to validate the harness")
    p.set_defaults(fn=cmd_gradcheck)

    for name, fn in (("fit", cmd_fit), ("render", cmd_render), ("eval", cmd_eval), ("diffusion", cmd_diffusion)):
        p = sub.add_parser(name)
        if name == "diffusion":
            p.add_argument("mode", choices=("train", "sample", "ablate"))
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        if name != "fit":
            p.add_argument("--checkpoint", required=name != "diffusion", default=None)
        if name == "render":
            p.add_argument("--azimuth", required=True, help="degrees; comma-separated list allowed")
            p.add_argument("--elevation", type=float, default=20.0, help="degrees")
            p.add_argument("--size", type=int, default=None)
        p.set_defaults(fn=fn)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    from .config import ConfigError

    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
