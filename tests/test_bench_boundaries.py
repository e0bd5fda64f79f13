"""Every hook of the benchmark's tracer still resolves against the program.

The benchmark (perfbench/) rebinds named functions and methods to trace them
and stops with BoundaryMissing when one is gone. This loads its tracing module
by path and resolves each boundary with the tracer's own resolver, without
installing the tracer, so a refactor that breaks the benchmark fails here.
"""

import importlib.util
import inspect
import os
import threading

import numpy as np
import pytest

from trifield import triplane as tp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_boundary_resolves(tracing):
    hooks = [(modname, attr) for modname, attr, _ in tracing.BOUNDARIES]
    for modname, attr in hooks + [("trifield.triplane", "clamp_count")]:
        _, _, fn = tracing._resolve(modname, attr)
        assert callable(fn), f"{modname}.{attr}"


def test_positional_arguments_the_tracer_reads(tracing):
    # Tracer._count reads the points at args[1] of sample_triplane, and the
    # stacked rows at args[0] and the resolution at args[2] of
    # stacked_orthogonal_attention; the checkpoint.load hook sizes the file
    # at args[0] of both checkpoint loaders; the workloads call oracle_render
    # with (scene, cam, n_fine) positionally; render.rays counts the rays at
    # args[2] of render_rays
    for modname, attr, position, name in (
        ("trifield.triplane", "sample_triplane", 1, "points"),
        ("trifield.attention", "stacked_orthogonal_attention", 0, "x"),
        ("trifield.attention", "stacked_orthogonal_attention", 2, "d"),
        ("trifield.checkpoint", "load_fit_checkpoint", 0, "path"),
        ("trifield.diffusion", "load_denoiser", 0, "path"),
        ("trifield.scenes", "oracle_render", 0, "scene"),
        ("trifield.scenes", "oracle_render", 1, "cam"),
        ("trifield.scenes", "oracle_render", 2, "n_fine"),
        ("trifield.render", "render_rays", 2, "origins"),
    ):
        fn = tracing._resolve(modname, attr)[2]
        assert list(inspect.signature(fn).parameters)[position] == name, f"{modname}.{attr}"


def test_one_oracle_render_call_per_view(monkeypatch):
    # scenes.oracle_ms is the scenes.oracle span's total over its call count,
    # so a view must be one call of the public name, however it is chunked
    from trifield import scenes as sc

    calls = []
    original = sc.oracle_render

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sc, "oracle_render", counted)
    cam = sc.orbit_camera(0.7, 0.35, 3.0, height=33, width=47)
    out = sc.oracle_render(sc.make_scene("cube"), cam, 512)
    assert len(calls) == 1
    assert out.image.shape == (33, 47, 3)


def test_tracer_reaches_render_view_chunks_on_worker_threads(tracing):
    # render_view runs its chunks on the calling thread and on pool threads; its
    # chunk function must look render_rays up at call time, so the tracer's
    # rebinding still sees every chunk, and the heads and the lookup inside it
    from trifield import render as rd
    from trifield import scenes as sc

    rng = np.random.default_rng(0)
    tri = tp.random_triplane(rng, 4, 2)
    heads = rd.init_field_heads(rng, 6, hidden=4, depth=2)
    cam = sc.orbit_camera(0.7, 0.35, 3.0, height=64, width=64)
    tracer = tracing.Tracer()
    threads = {span: set() for span in ("render.rays", "render.heads", "triplane.sample")}
    for span, seen in threads.items():
        tracer.hooks[span].append(lambda args, result, seen=seen: seen.add(threading.get_ident()))
    tracer.install()
    try:
        rd.render_view(tri, heads, cam, 8)
    finally:
        tracer.uninstall()
    chunks = -(-64 * 64 // rd.RENDER_CHUNK)
    assert chunks == 32
    assert tracer.calls["render.view"] == 1
    for span, seen in threads.items():
        assert tracer.calls[span] == chunks, span
        assert threading.get_ident() in seen, span  # the calling thread renders chunk 0
        if rd._find_openblas() is not None and len(os.sched_getaffinity(0)) > 1:
            assert len(seen) > 1, span


def test_tracer_reaches_fit_parts_on_the_worker_thread(tracing):
    # fit_scene runs part 1 of each step's batch on a worker thread; training
    # must look render_rays up at call time, so that the tracer's rebinding
    # still sees both parts (EXPECTED["fit_cube"] of perfbench/run.py)
    from trifield import render as rd
    from trifield import scenes as sc
    from trifield import training as tr
    from trifield.render import RenderOutput

    if rd._find_openblas() is None or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the fit runs its parts on one thread here")
    cams = sc.camera_orbit(2, 3.0, 0.3, height=8, width=8)
    views = [(cam, RenderOutput(np.zeros((8, 8, 3)), np.zeros((8, 8)), np.full((8, 8), 4.7))) for cam in cams]
    cfg = tr.FitConfig(iterations=1, ray_batch=16, samples_per_ray=4, grid_resolution=4, grid_channels=2, hidden=4,
                       val_every=10, val_rays=8)
    tracer = tracing.Tracer()
    spans = ("render.rays", "render.heads", "triplane.sample", "autodiff.backward")
    threads = {span: [] for span in spans}
    for span, seen in threads.items():
        tracer.hooks[span].append(lambda args, result, seen=seen: seen.append(threading.get_ident()))
    tracer.install()
    try:
        tr.fit_scene(views, cfg)
    finally:
        tracer.uninstall()
    for span, seen in threads.items():
        assert len(seen) >= 2, span
        assert set(seen) - {threading.get_ident()}, span


def test_triplane_lookup_is_a_traced_primitive(tracing):
    # the tracer books a primitive's backward under the span that built it, so
    # sample_triplane's one tape node must come from a primitive it recognises
    prims = {name for name, fn in vars(tp).items() if callable(fn) and tracing._is_primitive(fn, tp.__name__)}
    assert "triplane_lookup" in prims
    bwd_codes = [code for code in tp.triplane_lookup.__code__.co_consts if getattr(code, "co_name", None) == "bwd"]
    tri = tp.random_triplane(np.random.default_rng(0), 3, 2)
    tri.tensor.requires_grad = True
    out = tp.sample_triplane(tri, np.zeros((4, 3)))
    assert out._backward.__code__ in bwd_codes


def test_mlp_is_a_traced_primitive(tracing):
    # render.heads_bwd_ms books the heads' backward only if each head's one
    # tape node comes from a primitive the tracer recognises
    from trifield import autodiff as ad
    from trifield import render as rd

    prims = {name for name, fn in vars(ad).items() if callable(fn) and tracing._is_primitive(fn, ad.__name__)}
    assert "mlp" in prims
    bwd_codes = [code for code in ad.mlp.__code__.co_consts if getattr(code, "co_name", None) == "bwd"]
    rng = np.random.default_rng(0)
    tri = tp.random_triplane(rng, 3, 2)
    heads = rd.init_field_heads(rng, 6, hidden=4, depth=2)
    for t in heads.tensors():
        t.requires_grad = True
    sigma, color = rd.field_eval_batch(tri, heads, np.zeros((4, 3)))
    nodes = [node for out in (sigma, color) for node in ad.topo_order(out) if node._op == "mlp"]
    assert len(nodes) == 2
    for node in nodes:
        assert node._backward.__code__ in bwd_codes

    # diffusion.self_bwd_ms books the conv backward only if each conv's one
    # tape node comes from a primitive the tracer recognises
    from trifield import diffusion as df

    assert "conv3x3" in prims
    conv_codes = [code for code in ad.conv3x3.__code__.co_consts if getattr(code, "co_name", None) == "bwd"]
    den = df.Denoiser(df.DenoiserConfig(resolution=4, hidden=4, d_model=4))
    for t in den.parameters():
        t.requires_grad = True
    x = ad.Tensor(np.zeros((3 * 16, 4)), requires_grad=True)  # the stem conv keeps a closure too
    out = den._forward_stacked(x, [1], np.zeros((1, 3), dtype=np.int64), 1)
    convs = [node for node in ad.topo_order(out) if node._op == "conv3x3"]
    assert len(convs) == 13  # stem, 3 resblocks and 2 adapters of 2 convs each, up, head
    for node in convs:
        assert node._backward.__code__ in conv_codes


def test_planes_are_the_tensor_in_plane_order(tmp_path):
    # the benchmark reads p.data from `.planes` of a loaded random triplane
    # (_reference_frame) and of sampled triplanes (_finite)
    from trifield import checkpoint as ck
    from trifield import diffusion as df
    from trifield import render as rd

    rng = np.random.default_rng(0)
    d, c = 4, 2
    tri = tp.random_triplane(rng, d, c)
    path = str(tmp_path / "fit.ckpt")
    ck.save_fit_checkpoint(path, tri, rd.init_field_heads(rng, 3 * c, hidden=4))
    loaded, _ = ck.load_fit_checkpoint(path)
    payload = np.frombuffer(open(path, "rb").read()[14:14 + 4 * 3 * d * d * c], dtype="<f4").reshape(3, d, d, c)
    den = df.Denoiser(df.DenoiserConfig(resolution=d, channels=c, hidden=4, d_model=4))
    sampled = df.ddpm_sample_many(den, [np.zeros(3, dtype=np.int64)] * 2, df.make_schedule(2), rng)
    for t in [tri, loaded] + sampled:
        planes = t.planes
        assert len(planes) == 3
        for i, p in enumerate(planes):  # xy, xz, yz
            assert p.data.shape == (d, d, c)
            assert np.array_equal(p.data, t.tensor.data[i])
    for i, p in enumerate(loaded.planes):  # the TRPL payload holds the planes in the same order
        assert np.array_equal(p.data, payload[i])
