"""Line-oriented key=value run configuration with strict unknown-key rejection.

Every key has a default and a domain in SPEC; files may set any subset. Each
value is parsed by its key's domain and must lie inside it. Rules that tie keys
together (a scene's parameters for its kind, a camera's elevation, beta_start <=
beta_end) stay in the constructors that use them. '#' starts a comment.
"""

from __future__ import annotations

import math


class ConfigError(ValueError):
    pass


class Text:
    """A non-empty string, or one of `options` when given. Each domain reads a file's text with
    `parse` (ValueError if it cannot) and names the rule a value breaks with `problem`."""

    parse = staticmethod(str)

    def __init__(self, *options):
        self.options = options

    def problem(self, value):
        if self.options and value not in self.options:
            return f"must be one of {', '.join(self.options)}"
        return "must be non-empty" if value == "" else None


class Flag(Text):
    expects = "a boolean"

    def parse(self, raw):
        if raw.lower() not in ("true", "1", "yes", "on", "false", "0", "no", "off"):
            raise ValueError(raw)
        return raw.lower() in ("true", "1", "yes", "on")


class Reals(Text):
    expects = "a comma-separated list of finite numbers"

    def parse(self, raw):
        return tuple(Real().parse(a) for a in raw.split(","))


class Int(Text):
    """An integer >= `least`, and <= `most` when given; only an even one, when `even`."""

    expects = "an integer"
    parse = staticmethod(int)

    def __init__(self, least, most=None, even=False):
        self.least, self.most, self.even = least, most, even

    def problem(self, value):
        if value < self.least or (self.even and value % 2):
            return f"must be {'an even integer ' if self.even else ''}>= {self.least}"
        if self.most is not None and value > self.most:
            return f"must be <= {self.most}"
        return None


class Real(Text):
    """A finite float in (low, high), or in [low, high) when `low_in`."""

    expects = "a finite number"

    def __init__(self, low=-math.inf, high=math.inf, low_in=False):
        self.low, self.high, self.low_in = low, high, low_in

    def parse(self, raw):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(raw)
        return value

    def problem(self, value):
        if (value >= self.low if self.low_in else value > self.low) and value < self.high:
            return None
        if self.high == math.inf:
            return f"must be {'>=' if self.low_in else '>'} {self.low:g}"
        return f"must be in {'[' if self.low_in else '('}{self.low:g}, {self.high:g})"


# key -> (default, domain); dotted prefixes group module sections. A key that sizes
# an array has a `most` far above any value configs/ and the tests use, so that a
# mistyped size exits 2 rather than reaching numpy's array size limit mid-run.
SPEC = {
    "seed": (0, Int(0)),             # numpy's generators take no negative seed
    "out": ("out", Text()),

    "scene.kind": ("cube", Text("cube", "sphere", "two_blob", "vacuum")),
    "scene.radius": (0.5, Real()),             # sphere
    "scene.density": (20.0, Real()),           # sphere / cube
    "scene.half": (0.6, Real()),               # cube
    "scene.amplitude": (6.0, Real()),          # two_blob
    "scene.width": (0.15, Real()),             # two_blob

    "fit.iterations": (3000, Int(1)),
    "fit.lr_planes": (5e-3, Real(0.0)),
    "fit.lr_heads": (5e-4, Real(0.0)),
    "fit.ray_batch": (256, Int(1, 1 << 16)),
    "fit.samples_per_ray": (48, Int(1, 4096)),
    "fit.grid_resolution": (32, Int(1, 1024)),
    "fit.grid_channels": (16, Int(1, 1024)),
    "fit.hidden": (32, Int(1, 4096)),
    "fit.mlp_depth": (2, Int(1, 64)),
    "fit.val_every": (100, Int(1)),
    "fit.val_rays": (512, Int(1)),              # capped at the supervision rays
    "fit.stratified": (True, Flag()),
    "fit.views": (8, Int(2, 1024)),
    "fit.image_size": (64, Int(1, 4096)),
    # the camera must sit outside the world cube; far out, the r +- sqrt(3) sample
    # bins lose float64 resolution (at 1e16 they collapse and integration fails)
    "fit.orbit_radius": (3.0, Real(math.sqrt(3.0), 1e6)),
    "fit.elevation_deg": (20.0, Real()),
    "fit.azimuth_offset_deg": (22.5, Real()),
    "fit.lambda_mask": (0.5, Real(0.0, low_in=True)),
    "fit.lambda_depth": (1.0, Real(0.0, low_in=True)),

    "render.samples_per_ray": (96, Int(1, 4096)),
    "render.size": (64, Int(1, 4096)),

    "eval.azimuths_deg": ((0.0, 90.0, 180.0, 270.0), Reals()),
    "eval.unseen_azimuth_deg": (137.0, Real()),
    "eval.elevation_deg": (20.0, Real()),
    "eval.oracle_samples": (1024, Int(512, 1 << 16)),

    "diffusion.steps": (800, Int(1)),
    "diffusion.batch": (4, Int(1, 1024)),
    "diffusion.lr": (2e-3, Real(0.0)),
    # the schedule holds a few floats per timestep and is built before any work
    "diffusion.timesteps": (100, Int(1, 100_000)),
    "diffusion.beta_start": (1e-4, Real(0.0, 1.0)),
    "diffusion.beta_end": (0.02, Real(0.0, 1.0)),
    # the toy dataset draws box sides from [3, d - 2]; the denoiser halves d once
    "diffusion.grid_resolution": (16, Int(6, 256, even=True)),
    "diffusion.grid_channels": (4, Int(4, 256)),    # occupancy + rgb
    "diffusion.hidden": (16, Int(2, 1024, even=True)),  # split into sin/cos timestep features
    "diffusion.d_k": (4, Int(1, 1024)),
    "diffusion.d_model": (16, Int(1, 1024)),
    "diffusion.dataset_size": (32, Int(1, 1 << 16)),
    "diffusion.dataset_seed": (11, Int(0)),
    "diffusion.use_oa": (True, Flag()),
    "diffusion.freeze_backbone": (False, Flag()),
    "diffusion.samples": (8, Int(1, 1 << 16)),
    "diffusion.sample_chunk": (8, Int(1)),     # capped at diffusion.samples
}
DEFAULTS = {key: default for key, (default, _) in SPEC.items()}


class RunConfig:
    def __init__(self, values=None):
        self.values = dict(DEFAULTS)
        for key, value in (values or {}).items():
            self.set(key, value)

    def __getitem__(self, key):
        return self.values[key]

    def set(self, key, value):
        """Set `key`, or raise ConfigError if it is unknown or `value` lies outside its domain."""
        if key not in SPEC:
            raise ConfigError(f"unknown config key {key!r}")
        problem = SPEC[key][1].problem(value)
        if problem:
            raise ConfigError(f"{key} {problem}, got {value!r}")
        self.values[key] = value


def parse_config(path):
    """The RunConfig a file sets; ConfigError if it cannot be read as UTF-8 text or breaks a rule."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = list(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc.reason}") from None
    values = {}
    for line_no, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in SPEC:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        domain = SPEC[key][1]
        try:
            values[key] = domain.parse(raw)
        except ValueError:
            raise ConfigError(f"line {line_no}: key {key!r} expects {domain.expects}, got {raw!r}") from None
    return RunConfig(values)
