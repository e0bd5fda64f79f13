import math
import os
import sys

import numpy as np
import pytest

from trifield import cli
from trifield.config import DEFAULTS, SPEC, ConfigError, Int, Real, RunConfig, parse_config
from trifield.images import read_pgm, read_ppm
from trifield.scenes import make_toy_triplane_dataset


def run_cli(*argv):
    return cli.main(list(argv))


def write_config(path, lines):
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return str(path)


TINY_FIT = [
    "seed = 4",
    "scene.kind = vacuum",
    "fit.iterations = 250",
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
    "eval.unseen_azimuth_deg = 101.25",
    "render.samples_per_ray = 16",
    "render.size = 12",
]

TINY_DIFFUSION = [
    "seed = 6",
    "diffusion.steps = 25",
    "diffusion.batch = 2",
    "diffusion.timesteps = 12",
    "diffusion.grid_resolution = 8",
    "diffusion.hidden = 8",
    "diffusion.d_k = 4",
    "diffusion.d_model = 8",
    "diffusion.dataset_size = 4",
    "diffusion.samples = 2",
    "diffusion.sample_chunk = 2",
]


def test_every_config_key_has_documented_default():
    cfg = RunConfig()
    for key in DEFAULTS:
        assert cfg[key] is not None
        assert SPEC[key][1].problem(cfg[key]) is None, key


def test_spec_defaults_equal_the_library_defaults_they_feed():
    # each default is written once in the library and once in SPEC; the CLI builds its sections from SPEC
    import inspect

    from trifield import diffusion as df
    from trifield import training as tr

    cfg = RunConfig()
    assert cli._section(tr.FitConfig, cfg, "fit", seed=cfg["seed"]) == tr.FitConfig()
    assert cli._section(tr.LossWeights, cfg, "fit") == tr.LossWeights()
    assert cli._train_cfgs(cfg, cfg["diffusion.use_oa"]) == (df.DiffusionTrainConfig(), df.DenoiserConfig())
    schedule = inspect.signature(df.make_schedule).parameters
    for name in ("beta_start", "beta_end"):
        assert cfg[f"diffusion.{name}"] == schedule[name].default, name


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path / "bad.cfg", ["fit.iterations = 10", "fit.lambada = 1"])
    with pytest.raises(ConfigError, match="line 2.*fit.lambada"):
        parse_config(path)


def test_config_type_errors_name_line_and_key(tmp_path):
    path = write_config(tmp_path / "bad.cfg", ["fit.iterations = soon"])
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(path)


def test_config_parses_comments_and_bools(tmp_path):
    path = write_config(tmp_path / "ok.cfg", [
        "# a comment", "", "fit.stratified = false  # trailing", "seed = 9",
    ])
    cfg = parse_config(path)
    assert cfg["fit.stratified"] is False and cfg["seed"] == 9


def _config_at(tmp_path, case):
    """The --config path of each case: one that reads but breaks a rule, or one that cannot be read."""
    path = tmp_path / "bad.cfg"
    if case == "unknown key":
        write_config(path, ["nope = 1"])
    elif case == "directory":
        path.mkdir()
    elif case == "not utf-8":
        path.write_bytes(b"seed = 1\n# caf\xe9\n")
    return str(path)  # "missing": never created


@pytest.mark.parametrize("command", [["fit"], ["diffusion", "train"]], ids=["fit", "diffusion"])
@pytest.mark.parametrize("case", ["unknown key", "missing", "directory", "not utf-8"])
def test_cli_exit_2_on_config_error(tmp_path, capsys, case, command):
    path = _config_at(tmp_path, case)
    out = tmp_path / "o"
    assert run_cli(*command, "--config", path, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    if case != "unknown key":
        assert repr(path) in err
    assert not out.exists()


def test_config_parses_azimuth_list_once(tmp_path):
    assert RunConfig()["eval.azimuths_deg"] == (0.0, 90.0, 180.0, 270.0)
    cfg = parse_config(write_config(tmp_path / "ok.cfg", ["eval.azimuths_deg = 10, 22.5"]))
    assert cfg["eval.azimuths_deg"] == (10.0, 22.5)
    path = write_config(tmp_path / "bad.cfg", ["seed = 1", "eval.azimuths_deg = 0,abc"])
    with pytest.raises(ConfigError, match="line 2.*eval.azimuths_deg"):
        parse_config(path)


def test_fit_exit_2_on_bad_azimuth_list_before_fitting(tmp_path, capsys):
    cfgp = write_config(tmp_path / "fit.cfg", TINY_FIT + ["eval.azimuths_deg = 0,abc"])
    out = tmp_path / "run"
    assert run_cli("fit", "--config", cfgp, "--out", str(out)) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "checkpoint.trifield").exists()


def test_diffusion_sample_without_checkpoint_exits_2(tmp_path, capsys):
    cfgp = write_config(tmp_path / "d.cfg", TINY_DIFFUSION)
    assert run_cli("diffusion", "sample", "--config", cfgp, "--out", str(tmp_path / "s")) == 2
    assert "--checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["train", "sample"])
def test_diffusion_checkpoint_errors_exit_1(tmp_path, capsys, mode):
    cfgp = write_config(tmp_path / "d.cfg", TINY_DIFFUSION)
    missing = str(tmp_path / "missing.ckpt")
    assert run_cli("diffusion", mode, "--config", cfgp, "--checkpoint", missing, "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err.startswith("checkpoint error: ")
    short = tmp_path / "short.ckpt"
    short.write_bytes(b"DNZR\x01\x00")  # header cut after the version
    assert run_cli("diffusion", mode, "--config", cfgp, "--checkpoint", str(short), "--out", str(tmp_path / "o")) == 1
    assert "checkpoint error: header" in capsys.readouterr().err
    assert not (tmp_path / "o" / "denoiser.ckpt").exists()


def test_diffusion_sample_cut_checkpoint_exits_1(tmp_path, capsys):
    from trifield import diffusion as df

    cfgp = write_config(tmp_path / "d.cfg", TINY_DIFFUSION)
    whole = tmp_path / "whole.ckpt"
    df.save_denoiser(str(whole), df.Denoiser(df.DenoiserConfig(resolution=8, channels=4, hidden=8, timesteps=12)))
    data = whole.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in (41, 47, len(data) - 1):  # in the PRMS version/count, a name, the last payload
        cut.write_bytes(data[:n])
        assert run_cli("diffusion", "sample", "--config", cfgp, "--checkpoint", str(cut),
                       "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err.startswith("checkpoint error: ")


def test_gradcheck_numerics_passes(capsys):
    assert run_cli("gradcheck", "--scope", "numerics") == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_gradcheck_report_is_deterministic(capsys):
    run_cli("gradcheck", "--scope", "numerics", "--seed", "3")
    first = capsys.readouterr().out
    run_cli("gradcheck", "--scope", "numerics", "--seed", "3")
    second = capsys.readouterr().out
    assert first == second


def test_gradcheck_fault_injection_fails_and_names_op(capsys):
    assert run_cli("gradcheck", "--scope", "numerics", "--inject-fault", "sigmoid") == 1
    out = capsys.readouterr().out
    for line in out.splitlines():
        if "FAIL" in line:
            assert "sigmoid" in line
            break
    else:
        raise AssertionError("no failing row reported")
    # harness restored afterwards
    assert run_cli("gradcheck", "--scope", "numerics") == 0
    capsys.readouterr()


def test_gradcheck_fault_injection_in_the_mlp_node_fails(capsys):
    # numerics.mlp_head composes matmul, add_rowvec and relu; no other entry runs a 3x3 conv
    for op in ("mlp", "conv3x3"):
        assert run_cli("gradcheck", "--scope", "numerics", "--inject-fault", op) == 1
        failed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.endswith("FAIL")]
        assert failed == [f"numerics.{op}"]


SOFTPLUS_FAILS = ["renderer.field_eval_sigma", "renderer.field_eval_sigma_w0", "renderer.integrate_ray",
                  "renderer.render_loss_path"]


def _renderer_failures(capsys, *flags):
    code = run_cli("gradcheck", "--scope", "renderer", *flags)
    failed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.endswith("FAIL")]
    assert code == (1 if failed else 0)
    return failed


def test_inject_fault_reaches_modules_loaded_before_it(capsys):
    # render binds softplus by name, so corrupting only the autodiff module's
    # attribute would leave its calls clean once it is loaded
    import trifield.render  # noqa: F401

    assert _renderer_failures(capsys, "--inject-fault", "softplus") == SOFTPLUS_FAILS
    assert _renderer_failures(capsys) == []


def test_inject_fault_restores_modules_first_imported_during_the_run(capsys, monkeypatch):
    # a render module first imported under the fault binds the corrupted
    # softplus; left so, every later clean run would fail 3 of 6 entries
    import trifield
    import trifield.render
    from trifield import autodiff as ad

    monkeypatch.delattr(trifield, "render")
    monkeypatch.delitem(sys.modules, "trifield.render")
    assert _renderer_failures(capsys, "--inject-fault", "softplus") == SOFTPLUS_FAILS
    assert sys.modules["trifield.render"].softplus is ad.softplus
    assert _renderer_failures(capsys) == []
    assert _renderer_failures(capsys) == []


def test_fit_writes_outputs_and_vacuum_collapses(tmp_path):
    # the vacuum target drives mean density below 1e-3 within 500 steps
    cfgp = write_config(tmp_path / "fit.cfg",
                        [l if not l.startswith("fit.iterations") else "fit.iterations = 500"
                         for l in TINY_FIT])
    out = str(tmp_path / "run")
    assert run_cli("fit", "--config", cfgp, "--out", out) == 0
    assert os.path.exists(os.path.join(out, "checkpoint.trifield"))
    assert os.path.exists(os.path.join(out, "preview_rgb.ppm"))
    text = open(os.path.join(out, "metrics.txt")).read()
    metrics = dict(line.split("=", 1) for line in text.splitlines())
    assert float(metrics["mean_sigma"]) < 1e-3
    assert metrics["diverged"] == "0" and metrics["adamw_rejected"] == "0"


def test_fit_metrics_deterministic(tmp_path):
    cfgp = write_config(tmp_path / "fit.cfg", TINY_FIT)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli("fit", "--config", cfgp, "--out", out1) == 0
    assert run_cli("fit", "--config", cfgp, "--out", out2) == 0
    for name in ("metrics.txt", "preview_rgb.ppm", "preview_mask.pgm", "checkpoint.trifield"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_render_periodicity_and_canonical_views(tmp_path):
    cfgp = write_config(tmp_path / "fit.cfg", TINY_FIT)
    out = str(tmp_path / "run")
    assert run_cli("fit", "--config", cfgp, "--out", out) == 0
    ckpt = os.path.join(out, "checkpoint.trifield")

    rd = str(tmp_path / "renders")
    assert run_cli("render", "--config", cfgp, "--checkpoint", ckpt, "--out", rd,
                   "--azimuth", "0,90,180,270", "--elevation", "20", "--size", "8") == 0
    ppms = [f for f in os.listdir(rd) if f.endswith(".ppm")]
    assert len(ppms) == 4

    r2 = str(tmp_path / "r2")
    assert run_cli("render", "--config", cfgp, "--checkpoint", ckpt, "--out", r2,
                   "--azimuth", "0", "--elevation", "20", "--size", "8") == 0
    r3 = str(tmp_path / "r3")
    assert run_cli("render", "--config", cfgp, "--checkpoint", ckpt, "--out", r3,
                   "--azimuth", "360", "--elevation", "20", "--size", "8") == 0
    a = read_ppm(os.path.join(r2, "view_az0_el20.ppm"))
    b = read_ppm(os.path.join(r3, "view_az360_el20.ppm"))
    assert np.array_equal(a, b)


def test_render_bad_azimuth_exits_2_before_any_view(tmp_path, capsys):
    from trifield import checkpoint as ck
    from trifield import render as rd
    from trifield import triplane as tp

    rng = np.random.default_rng(0)
    ckpt = str(tmp_path / "fit.ckpt")
    ck.save_fit_checkpoint(ckpt, tp.random_triplane(rng, 4, 2), rd.init_field_heads(rng, 6, hidden=4))
    cfgp = write_config(tmp_path / "fit.cfg", TINY_FIT)
    out = tmp_path / "o"
    assert run_cli("render", "--config", cfgp, "--checkpoint", ckpt, "--azimuth", "0,abc",
                   "--size", "4", "--out", str(out)) == 2
    assert "usage error: --azimuth 'abc'" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)
    assert run_cli("render", "--config", cfgp, "--checkpoint", ckpt, "--azimuth", "0,45",
                   "--size", "4", "--out", str(out)) == 0
    assert sorted(f for f in os.listdir(out) if f.endswith(".ppm")) == ["view_az0_el20.ppm", "view_az45_el20.ppm"]


def test_render_bad_checkpoint_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert run_cli("render", "--checkpoint", str(bad), "--azimuth", "0",
                   "--out", str(tmp_path / "o")) == 1
    assert "magic" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["plane", "head"])
def test_render_non_finite_checkpoint_exits_1_before_any_view(tmp_path, capsys, where):
    import struct

    from trifield import checkpoint as ck
    from trifield import render as rd
    from trifield import triplane as tp

    rng = np.random.default_rng(0)
    heads = rd.init_field_heads(rng, 6, hidden=4)
    if where == "head":
        heads.s_layers[0][0].data[0, 0] = np.nan
    ckpt = tmp_path / "fit.ckpt"
    ck.save_fit_checkpoint(str(ckpt), tp.random_triplane(rng, 4, 2), heads)
    if where == "plane":
        raw = bytearray(ckpt.read_bytes())
        raw[14:18] = struct.pack("<f", np.nan)  # the first value of the xy plane
        ckpt.write_bytes(bytes(raw))
    out = tmp_path / "o"
    assert run_cli("render", "--config", write_config(tmp_path / "fit.cfg", TINY_FIT), "--checkpoint", str(ckpt),
                   "--azimuth", "0", "--size", "4", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("checkpoint error: payload: ")
    assert not out.exists() or not os.listdir(out)


def test_diffusion_sample_mismatched_header_exits_1(tmp_path, capsys):
    import struct

    from trifield import diffusion as df

    ckpt = tmp_path / "d.ckpt"
    df.save_denoiser(str(ckpt), df.Denoiser(df.DenoiserConfig(resolution=8, channels=1, hidden=8, timesteps=12)))
    raw = bytearray(ckpt.read_bytes())
    raw[10:14] = struct.pack("<I", 3)  # channels 1 -> 3
    ckpt.write_bytes(bytes(raw))
    out = tmp_path / "o"
    assert run_cli("diffusion", "sample", "--config", write_config(tmp_path / "d.cfg", TINY_DIFFUSION),
                   "--checkpoint", str(ckpt), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("checkpoint error: shape: array 'stem.w'")
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("field, have, want", [("resolution", 6, 8), ("channels", 3, 4)])
def test_diffusion_train_checkpoint_of_other_shape_exits_1(tmp_path, capsys, field, have, want):
    from trifield import diffusion as df

    sizes = {"resolution": 8, "channels": 4, field: have}
    ckpt = tmp_path / "other.ckpt"
    df.save_denoiser(str(ckpt), df.Denoiser(df.DenoiserConfig(**sizes, hidden=8, d_model=8, timesteps=12)))
    out = tmp_path / "o"
    assert run_cli("diffusion", "train", "--config", write_config(tmp_path / "d.cfg", TINY_DIFFUSION),
                   "--checkpoint", str(ckpt), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: ")
    assert f"{field} {have}" in err and f"diffusion.grid_{field} {want}" in err
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("mode", ["train", "sample"])
def test_diffusion_checkpoint_of_other_timesteps_exits_1(tmp_path, capsys, mode):
    # a denoiser trained at 20 steps and sampled at 1000 exited 0, its samples blown up (consistency 89.7)
    from trifield import diffusion as df

    ckpt = tmp_path / "t12.ckpt"
    df.save_denoiser(str(ckpt), df.Denoiser(df.DenoiserConfig(resolution=8, channels=4, hidden=8, d_model=8,
                                                              timesteps=12)))
    lines = [line for line in TINY_DIFFUSION if not line.startswith("diffusion.timesteps")]
    cfgp = write_config(tmp_path / "d.cfg", lines + ["diffusion.timesteps = 1000"])
    out = tmp_path / "o"
    assert run_cli("diffusion", mode, "--config", cfgp, "--checkpoint", str(ckpt), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == "checkpoint error: denoiser timesteps 12 does not match diffusion.timesteps 1000\n"
    assert not out.exists()


@pytest.mark.parametrize("field, have, key, want", [
    ("hidden", 16, "diffusion.hidden", 8),
    ("d_k", 2, "diffusion.d_k", 4),
    ("d_model", 16, "diffusion.d_model", 8),
    ("adapter_attention", False, "diffusion.use_oa", True),
])
def test_diffusion_checkpoint_of_other_architecture_exits_1(tmp_path, capsys, field, have, key, want):
    # the loaded denoiser's own architecture used to win silently over the config's
    from trifield import diffusion as df

    arch = dict(resolution=8, channels=4, hidden=8, d_k=4, d_model=8, timesteps=12, adapter_attention=True)
    arch[field] = have
    ckpt = tmp_path / "other.ckpt"
    df.save_denoiser(str(ckpt), df.Denoiser(df.DenoiserConfig(**arch)))
    out = tmp_path / "o"
    assert run_cli("diffusion", "sample", "--config", write_config(tmp_path / "d.cfg", TINY_DIFFUSION),
                   "--checkpoint", str(ckpt), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"checkpoint error: denoiser {field} {have} does not match {key} {want}\n"
    assert not out.exists()


class Reached(Exception):
    """A work function was called: every check before it had passed."""


@pytest.fixture
def run_before_work(tmp_path, monkeypatch, capsys):
    """A runner of one command in a fresh directory, with every work function patched to raise Reached.

    run(command, lines, flags, out) -> (exit code or Reached, stderr, names created in the directory).
    `lines` replace the same keys of the command's tiny config; `out` None passes no --out flag.
    """
    import tempfile

    from trifield import checkpoint as ck
    from trifield import diffusion as df
    from trifield import render as rd
    from trifield import scenes as sc
    from trifield import training as tr
    from trifield import triplane as tp

    def reached(*args, **kwargs):
        raise Reached

    for owner, name in ((tr, "fit_scene"), (sc, "oracle_render"), (rd, "render_view"),
                        (sc, "make_toy_triplane_dataset"), (df, "train_denoiser"), (df, "ddpm_sample_many")):
        monkeypatch.setattr(owner, name, reached)
    rng = np.random.default_rng(0)
    ckpt = str(tmp_path / "fit.ckpt")
    ck.save_fit_checkpoint(ckpt, tp.random_triplane(rng, 4, 2), rd.init_field_heads(rng, 6, hidden=4))
    argv = {"fit": ["fit"], "render": ["render", "--checkpoint", ckpt, "--azimuth", "0"],
            "eval": ["eval", "--checkpoint", ckpt], "train": ["diffusion", "train"], "ablate": ["diffusion", "ablate"]}

    def run(command, lines=(), flags=(), out="o"):
        here = tempfile.mkdtemp(dir=tmp_path)
        keys = {line.split(" = ")[0] for line in lines}
        base = TINY_DIFFUSION if command in ("train", "ablate") else TINY_FIT
        cfgp = write_config(here + ".cfg", [l for l in base if l.split(" = ")[0] not in keys] + list(lines))
        monkeypatch.chdir(here)
        try:
            code = run_cli(*argv[command], "--config", cfgp, *(["--out", out] if out is not None else []), *flags)
        except Reached:
            code = Reached
        return code, capsys.readouterr().err, os.listdir(here)

    return run


def _text(value):
    """`value` as a config file writes it."""
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return repr(value) if isinstance(value, float) else str(value)


def _first_outside(domain):
    """The value just past each finite bound of a numeric domain; the empty text for any other."""
    if isinstance(domain, Int):
        return [domain.least - 1] + ([] if domain.most is None else [domain.most + 1])
    if isinstance(domain, Real):
        low = math.nextafter(domain.low, -math.inf) if domain.low_in else domain.low
        return [v for v in (low, domain.high) if math.isfinite(v)]
    return [""]


def _inside(domain, raw):
    """Whether `raw` reads as a value within the domain's stated bounds."""
    try:
        value = domain.parse(raw)
    except ValueError:
        return False
    if isinstance(domain, Int):
        below_most = domain.most is None or value <= domain.most
        return value >= domain.least and below_most and not (domain.even and value % 2)
    if isinstance(domain, Real):
        return (value >= domain.low if domain.low_in else value > domain.low) and value < domain.high
    return domain.problem(value) is None


# cases the hand-written lists checked beyond the generic ones
EXTRA = {"fit.orbit_radius": [1.0], "scene.radius": [1.5], "eval.oracle_samples": [100],
         "diffusion.grid_resolution": [2, 4]}
# a scene parameter is read only by its kind
SCENE_KIND = {"scene.radius": "sphere", "scene.density": "sphere", "scene.half": "cube",
              "scene.amplitude": "two_blob", "scene.width": "two_blob"}


@pytest.mark.parametrize("key", list(SPEC))
def test_every_key_outside_its_domain_exits_2_before_any_work(run_before_work, key):
    # each case exits 2 having created nothing, or reaches work with a value inside the key's domain
    default, domain = SPEC[key]
    section = key.split(".")[0]
    commands = {"diffusion": ("train", "ablate"), "seed": ("fit", "render", "eval", "train", "ablate"),
                "out": ("fit", "render", "eval", "train", "ablate")}.get(section, ("fit", "render", "eval"))
    context = [f"scene.kind = {SCENE_KIND[key]}"] if key in SCENE_KIND else []
    out = None if key == "out" else "o"
    for command in commands:  # the harness reaches work at all
        assert run_before_work(command, context + [f"{key} = {_text(default)}"], out=out)[0] is Reached, command
    large = 10**20 if isinstance(domain, Int) else 1e300
    for value in [0, -1, "nan", large, *_first_outside(domain), *EXTRA.get(key, [])]:
        raw = _text(value)
        inside = _inside(domain, raw)
        for command in commands:
            code, err, made = run_before_work(command, context + [f"{key} = {raw}"], out=out)
            case = (command, raw, err)
            if code is Reached:
                assert inside, case
            else:
                assert code == 2 and not made and err.startswith("config error: "), case
                assert inside or key in err, case


@pytest.mark.parametrize("line, says", [
    ("diffusion.sample_chunk = 0", "diffusion.sample_chunk must be >= 1"),
    ("diffusion.batch = 0", "diffusion.batch must be >= 1"),
    ("diffusion.grid_resolution = 5", "resolution must be an even integer >= 6, got 5"),
    ("diffusion.samples = 0", "diffusion.samples must be >= 1"),
    ("diffusion.dataset_size = 0", "diffusion.dataset_size must be >= 1"),
    ("diffusion.steps = 0", "diffusion.steps must be >= 1"),
    ("diffusion.dataset_seed = -1", "diffusion.dataset_seed must be >= 0"),
    ("diffusion.lr = -1", "diffusion.lr must be > 0, got -1.0"),
    ("diffusion.grid_channels = 3", "diffusion.grid_channels must be >= 4, got 3"),
    ("diffusion.grid_resolution = 4", "diffusion.grid_resolution must be an even integer >= 6, got 4"),
])
def test_bad_diffusion_values_exit_2_before_any_work(run_before_work, line, says):
    # the wording of errors that ended in a traceback or a nan metric once; the sweep above owns the domains
    code, err, made = run_before_work("ablate", [line])
    assert code == 2 and not made
    assert err.startswith("config error: ") and says in err


@pytest.mark.parametrize("command, lines, flags, says", [
    ("fit", ["fit.views = 1"], [], "config error: fit.views must be >= 2"),
    ("fit", ["scene.kind = sphere", "scene.radius = 1.5"], [], "config error: sphere radius must be in (0, 1)"),
    ("fit", ["fit.orbit_radius = 1.0"], [], "config error: fit.orbit_radius must be in (1.73205, 1e+06)"),
    ("fit", ["fit.val_every = 0"], [], "config error: fit.val_every must be >= 1"),
    ("fit", ["fit.hidden = 0"], [], "config error: fit.hidden must be >= 1"),
    ("fit", ["fit.n_freqs = -1"], [], "config error: fit.n_freqs must be >= 0"),
    ("fit", ["fit.lambda_depth = -1.0"], [], "config error: fit.lambda_depth must be >= 0"),
    ("eval", ["fit.orbit_radius = nan"], [], "config error: line 18: key 'fit.orbit_radius' expects a finite"),
    ("render", ["render.samples_per_ray = 0"], [], "config error: render.samples_per_ray must be >= 1"),
    ("eval", ["eval.oracle_samples = 100"], [], "config error: eval.oracle_samples must be >= 512"),
    ("render", [], ["--elevation", "nan"], "usage error: --elevation nan is not a finite number"),
    ("render", [], ["--elevation", "90"], "usage error: --elevation 90: camera on the world up axis"),
    ("render", [], ["--size", "-4"], "usage error: --size must be >= 1, got -4"),
    ("render", [], ["--size", "0"], "usage error: --size must be >= 1, got 0"),
    ("fit", [], ["--seed", "-1"], "config error: seed must be >= 0, got -1"),
    ("fit", ["fit.iterations = 0"], [], "config error: fit.iterations must be >= 1, got 0"),
    ("fit", ["fit.lr_planes = -1"], [], "config error: fit.lr_planes must be > 0, got -1.0"),
    ("fit", ["fit.lr_heads = 0"], [], "config error: fit.lr_heads must be > 0, got 0.0"),
])
def test_bad_fit_render_eval_values_exit_2_before_any_work(run_before_work, command, lines, flags, says):
    # the wording of errors for config values and flags that once ended in a traceback (fit.views = 1 only
    # after the oracle views were rendered, fit.val_every = 0 after the first step), or for --size 0, which
    # rendered silently at render.size; the sweep above owns the config domains
    code, err, made = run_before_work(command, lines, flags)
    assert code == 2 and not made
    assert err.startswith(says)


@pytest.mark.parametrize("size", [SPEC["render.size"][1].most + 1, 10**20])
def test_render_size_above_render_size_domain_exits_2_before_any_work(run_before_work, size):
    # 10**20 ended in numpy's "Maximum allowed size exceeded" traceback after --out was made
    code, err, made = run_before_work("render", flags=["--size", str(size)])
    assert code == 2 and not made
    assert err == f"usage error: --size must be <= {SPEC['render.size'][1].most}, got {size}\n"


def test_far_orbit_exits_2_before_any_work(run_before_work):
    # at 1e16 the r +- sqrt(3) sample bins collapsed in float64, and integrate_rays raised after --out was made
    code, err, made = run_before_work("fit", ["fit.orbit_radius = 1e16"])
    assert code == 2 and not made
    assert err == "config error: fit.orbit_radius must be in (1.73205, 1e+06), got 1e+16\n"


@pytest.mark.parametrize("command", ["fit", "render", "eval", "train", "ablate"])
def test_unusable_out_exits_2(run_before_work, tmp_path, monkeypatch, command):
    # both ended in a traceback from os.makedirs after every other check had passed
    from trifield import scenes as sc

    monkeypatch.setattr(sc, "make_toy_triplane_dataset", make_toy_triplane_dataset)  # diffusion builds it first
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    for out, says in (("", "config error: out must be non-empty, got ''"),
                      (str(taken), f"config error: out {str(taken)!r} cannot be a directory: ")):
        code, err, made = run_before_work(command, out=out)
        assert code == 2 and not made and err.startswith(says), (out, err)
    assert taken.read_text() == "a file\n"


def test_gradcheck_negative_seed_exits_2(capsys):
    # numpy's generator refused it with a traceback
    assert run_cli("gradcheck", "--scope", "numerics", "--seed", "-1") == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("op", ["grad_check", "DTYPE", "affine", "no_such_name"])
def test_gradcheck_inject_fault_takes_only_primitives(capsys, op):
    # grad_check and DTYPE ended in an AttributeError and a TypeError traceback at the parent
    assert run_cli("gradcheck", "--scope", "numerics", "--inject-fault", op) == 2
    assert capsys.readouterr().err == f"no such op to corrupt: {op}\n"


@pytest.mark.parametrize("mode", ["train", "sample"])
def test_diffusion_flipped_resolution_byte_exits_1(tmp_path, capsys, mode):
    from trifield import diffusion as df

    ckpt = tmp_path / "d16.ckpt"
    df.save_denoiser(str(ckpt), df.Denoiser(df.DenoiserConfig(resolution=16, channels=4, hidden=8, d_model=8,
                                                              timesteps=12)))
    raw = bytearray(ckpt.read_bytes())
    raw[7] ^= 0xFF  # resolution 16 -> 65296; no parameter shape depends on it
    ckpt.write_bytes(bytes(raw))
    assert df.load_denoiser(str(ckpt)).cfg.resolution == 65296
    lines = [line for line in TINY_DIFFUSION if not line.startswith("diffusion.grid_resolution")]
    cfgp = write_config(tmp_path / "d.cfg", lines + ["diffusion.grid_resolution = 16"])
    out = tmp_path / "o"
    assert run_cli("diffusion", mode, "--config", cfgp, "--checkpoint", str(ckpt), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: ")
    assert "resolution 65296" in err and "diffusion.grid_resolution 16" in err
    assert not out.exists() or not os.listdir(out)


def test_eval_reports_psnr(tmp_path, capsys):
    cfgp = write_config(tmp_path / "fit.cfg", TINY_FIT)
    out = str(tmp_path / "run")
    assert run_cli("fit", "--config", cfgp, "--out", out) == 0
    ev = str(tmp_path / "ev")
    assert run_cli("eval", "--config", cfgp, "--checkpoint",
                   os.path.join(out, "checkpoint.trifield"), "--out", ev) == 0
    text = open(os.path.join(ev, "eval_metrics.txt")).read()
    assert "psnr.mean=" in text


def test_diffusion_train_and_sample_deterministic(tmp_path):
    cfgp = write_config(tmp_path / "d.cfg", TINY_DIFFUSION)
    out = str(tmp_path / "train")
    assert run_cli("diffusion", "train", "--config", cfgp, "--out", out) == 0
    ckpt = os.path.join(out, "denoiser.ckpt")
    assert os.path.exists(ckpt)

    s1, s2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert run_cli("diffusion", "sample", "--config", cfgp, "--checkpoint", ckpt, "--out", s1) == 0
    assert run_cli("diffusion", "sample", "--config", cfgp, "--checkpoint", ckpt, "--out", s2) == 0
    for name in sorted(os.listdir(s1)):
        a = open(os.path.join(s1, name), "rb").read()
        b = open(os.path.join(s2, name), "rb").read()
        assert a == b, name
    occ = read_pgm(os.path.join(s1, "sample_000_occ.pgm"))
    assert occ.shape == (8, 24)  # three side-by-side planes


def test_diffusion_memorization_metrical(tmp_path):
    lines = TINY_DIFFUSION + ["diffusion.dataset_size = 1", "diffusion.steps = 120"]
    cfgp = write_config(tmp_path / "m.cfg", lines)
    out = str(tmp_path / "m")
    assert run_cli("diffusion", "train", "--config", cfgp, "--out", out) == 0
    text = open(os.path.join(out, "metrics.txt")).read()
    metrics = dict(line.split("=", 1) for line in text.splitlines())
    assert float(metrics["loss.final"]) < 3.5  # sanity: moving toward memorization
    assert metrics["adamw_rejected"] == "0"


def test_diffusion_ablate_emits_comparison(tmp_path, capsys):
    cfgp = write_config(tmp_path / "d.cfg", TINY_DIFFUSION)
    out = str(tmp_path / "ab")
    assert run_cli("diffusion", "ablate", "--config", cfgp, "--out", out) == 0
    text = open(os.path.join(out, "ablate_metrics.txt")).read()
    metrics = dict(line.split("=", 1) for line in text.splitlines())
    assert set(metrics) == {"consistency.oa_on", "consistency.oa_off", "relative_improvement"}
    float(metrics["relative_improvement"])  # parses
    table = capsys.readouterr().out
    assert "oa_on" in table and "oa_off" in table


def test_outputs_stay_under_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgp = write_config(tmp_path / "d.cfg", TINY_DIFFUSION)
    out = str(tmp_path / "only_here")
    assert run_cli("diffusion", "train", "--config", cfgp, "--out", out) == 0
    entries = {p for p in os.listdir(tmp_path)} - {"d.cfg", "only_here"}
    assert not entries
