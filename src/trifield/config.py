"""Line-oriented key=value run configuration with strict unknown-key rejection.

Every key has a documented default below; files may set any subset. Values are
parsed to the default's type; a tuple default takes a comma-separated list of
numbers. '#' starts a comment; blank lines are ignored.
"""

from __future__ import annotations

import math


class ConfigError(ValueError):
    pass


# key -> default; dotted prefixes group module sections
DEFAULTS = {
    "seed": 0,
    "out": "out",

    "scene.kind": "cube",            # cube | sphere | two_blob | vacuum
    "scene.radius": 0.5,             # sphere
    "scene.density": 20.0,           # sphere / cube
    "scene.half": 0.6,               # cube
    "scene.amplitude": 6.0,          # two_blob
    "scene.width": 0.15,             # two_blob

    "fit.iterations": 3000,
    "fit.lr_planes": 5e-3,
    "fit.lr_heads": 5e-4,
    "fit.ray_batch": 256,
    "fit.samples_per_ray": 48,
    "fit.grid_resolution": 32,
    "fit.grid_channels": 16,
    "fit.hidden": 32,
    "fit.mlp_depth": 2,
    "fit.n_freqs": 0,
    "fit.val_every": 100,
    "fit.val_rays": 512,
    "fit.stratified": True,
    "fit.views": 8,
    "fit.image_size": 64,
    "fit.orbit_radius": 3.0,
    "fit.elevation_deg": 20.0,
    "fit.azimuth_offset_deg": 22.5,
    "fit.lambda_mask": 0.5,
    "fit.lambda_depth": 1.0,

    "render.samples_per_ray": 96,
    "render.size": 64,

    "eval.azimuths_deg": (0.0, 90.0, 180.0, 270.0),
    "eval.unseen_azimuth_deg": 137.0,
    "eval.elevation_deg": 20.0,
    "eval.oracle_samples": 1024,

    "diffusion.steps": 800,
    "diffusion.batch": 4,
    "diffusion.lr": 2e-3,
    "diffusion.timesteps": 100,
    "diffusion.beta_start": 1e-4,
    "diffusion.beta_end": 0.02,
    "diffusion.grid_resolution": 16,
    "diffusion.grid_channels": 4,
    "diffusion.hidden": 16,
    "diffusion.d_k": 4,
    "diffusion.d_model": 16,
    "diffusion.dataset_size": 32,
    "diffusion.dataset_seed": 11,
    "diffusion.use_oa": True,
    "diffusion.freeze_backbone": False,
    "diffusion.samples": 8,
    "diffusion.sample_chunk": 8,
}


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _parse_value(raw, default, key, line_no):
    raw = raw.strip()
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"line {line_no}: key {key!r} expects a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"line {line_no}: key {key!r} expects an integer, got {raw!r}") from None
    if isinstance(default, float):
        try:
            return _finite(raw)
        except ValueError:
            raise ConfigError(f"line {line_no}: key {key!r} expects a finite number, got {raw!r}") from None
    if isinstance(default, tuple):
        try:
            return tuple(_finite(a) for a in raw.split(","))
        except ValueError:
            raise ConfigError(
                f"line {line_no}: key {key!r} expects a comma-separated list of finite numbers, got {raw!r}"
            ) from None
    return raw


class RunConfig:
    def __init__(self, values=None):
        self.values = dict(DEFAULTS)
        self.values.update(values or {})

    def __getitem__(self, key):
        return self.values[key]

    def set(self, key, value):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        self.values[key] = value


def parse_config(path):
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {line_no}: expected 'key = value', got {body!r}")
            key, raw = body.split("=", 1)
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            values[key] = _parse_value(raw, DEFAULTS[key], key, line_no)
    return RunConfig(values)
