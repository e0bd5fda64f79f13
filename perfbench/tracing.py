"""Outside-in tracing of trifield: spans at layer boundaries, per-op autodiff profile.

Everything here wraps the program's public calls from the benchmark's own
files; no file of the program is edited. A boundary is rebound at every
trifield module that binds it (``trifield.render.sample_triplane`` as well as
``trifield.triplane.sample_triplane``), so calls through either name are seen.
A boundary that no longer resolves raises ``BoundaryMissing`` instead of
silently reporting zero.

Spans are kept in memory as ``[name, start, end, parent, op, child_time]``
and written out once at the end. A span's self time is its duration minus
the time covered by its children. Backward time is attributed by wrapping
each backward closure with the innermost span open when its node was built.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (module, attribute, span name). Class methods are written "Class.method".
BOUNDARIES = (
    ("trifield.autodiff", "Tensor.backward", "autodiff.backward"),
    ("trifield.triplane", "sample_triplane", "triplane.sample"),
    ("trifield.render", "render_view", "render.view"),
    ("trifield.render", "render_rays", "render.rays"),
    ("trifield.render", "field_eval_batch", "render.heads"),
    ("trifield.render", "integrate_rays", "render.integrate"),
    ("trifield.attention", "stacked_orthogonal_attention", "attention.oa"),
    ("trifield.diffusion", "Denoiser._forward_stacked", "diffusion.denoiser"),
    ("trifield.diffusion", "Denoiser._text_attention", "diffusion.text"),
    ("trifield.training", "AdamW.step", "training.adamw"),
    ("trifield.scenes", "oracle_render", "scenes.oracle"),
    ("trifield.scenes", "make_toy_triplane_dataset", "scenes.dataset"),
    ("trifield.checkpoint", "load_fit_checkpoint", "checkpoint.load"),
    ("trifield.diffusion", "load_denoiser", "checkpoint.load"),
)

# layer that owns backward closures built while a span of this name is innermost
BWD_OWNER = {
    "triplane.sample": "triplane.sample_bwd_ms",
    "render.heads": "render.heads_bwd_ms",
    "render.integrate": "render.integrate_bwd_ms",
    "attention.oa": "attention.oa_bwd_ms",
    "diffusion.denoiser": "diffusion.self_bwd_ms",
    "diffusion.text": "diffusion.text_bwd_ms",
}


class BoundaryMissing(RuntimeError):
    """A traced boundary no longer exists or was never reached."""


def import_program():
    """Import the modules that own a boundary and return every trifield module then loaded.

    Those are all the modules that can bind a boundary before the workload runs;
    a module imported later binds the wrapper that its source module then holds.
    """
    for modname in sorted({modname for modname, _, _ in BOUNDARIES}):
        importlib.import_module(modname)
    return [m for name, m in sorted(sys.modules.items()) if name == "trifield" or name.startswith("trifield.")]


def _resolve(modname, attr):
    mod = importlib.import_module(modname)
    owner = mod
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise BoundaryMissing(f"{modname}.{attr}: {part!r} not found")
    fn = getattr(owner, parts[-1], None)
    if fn is None:
        raise BoundaryMissing(f"{modname}.{attr} not found")
    return owner, parts[-1], fn


def _binding_sites(mods, fn):
    """Every (namespace, name) in the program whose value is `fn`."""
    return [(m, name) for m in mods for name, val in list(vars(m).items()) if val is fn]


def _is_primitive(fn, modname):
    """A primitive builds its own backward closure, an inner function named `bwd`."""
    code = getattr(fn, "__code__", None)
    if code is None or getattr(fn, "__module__", None) != modname:
        return False
    return any(getattr(c, "co_name", None) == "bwd" for c in code.co_consts)


class OpStats:
    __slots__ = ("calls", "fwd", "bwd", "out_bytes")

    def __init__(self):
        self.calls = 0
        self.fwd = 0.0
        self.bwd = 0.0
        self.out_bytes = 0


class Tracer:
    """Boundary wrappers plus, while `active`, span and autodiff recording.

    Boundary wrappers stay installed for the whole run: they count calls and
    run the workload's after-call hooks (op clock, output checks). Spans and
    the autodiff profile are recorded only while `active`; the autodiff
    primitive wrappers are installed only then, so an inactive op runs the
    program's own primitives.
    """

    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)  # boundary calls, counted in every mode
        self.hooks = defaultdict(list)  # span name -> [fn(args, result)]
        self.spans = []
        self.stack = []  # indices of open spans
        self.op = 0
        self.acc = defaultdict(float)  # per-op layer accumulators, reset by take()
        self.ops = defaultdict(OpStats)
        self._restore = []
        self._prim_sites = []  # (namespace, name, original, wrapper)
        self._prims_on = False

    # ----------------------------------------------------------------- install
    def install(self):
        mods = import_program()
        self._tensor_cls = importlib.import_module("trifield.autodiff").Tensor
        self._clamp_count = _resolve("trifield.triplane", "clamp_count")[2]
        seen = set()
        for modname, attr, span in BOUNDARIES:
            owner, name, fn = _resolve(modname, attr)
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            wrapped = self._boundary(span, fn)
            if "." in attr:
                sites = [(owner, name)]
            else:
                sites = _binding_sites(mods, fn)
            for ns, nm in sites:
                self._restore.append((ns, nm, fn))
                setattr(ns, nm, wrapped)
        prims = {}
        for m in mods:
            for name, val in vars(m).items():
                if callable(val) and _is_primitive(val, m.__name__):
                    prims[id(val)] = val
        if not prims:
            raise BoundaryMissing("no autodiff primitives found (functions building a `bwd` closure)")
        for fn in prims.values():
            wrapped = self._primitive(fn)
            for ns, nm in _binding_sites(mods, fn):
                self._prim_sites.append((ns, nm, fn, wrapped))

    def uninstall(self):
        self.set_primitives(False)
        for ns, nm, fn in reversed(self._restore):
            setattr(ns, nm, fn)
        self._restore.clear()

    def set_active(self, on):
        self.active = on
        self.set_primitives(on)

    def set_primitives(self, on):
        if on == self._prims_on:
            return
        for ns, nm, fn, wrapped in self._prim_sites:
            setattr(ns, nm, wrapped if on else fn)
        self._prims_on = on

    # ---------------------------------------------------------------- wrappers
    def _boundary(self, span, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[span] += 1
            if not tracer.active:
                result = fn(*args, **kwargs)
            else:
                clamped = tracer._clamp_count() if span == "triplane.sample" else 0
                idx = tracer._open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                tracer._count(span, args, result, clamped)
            for hook in tracer.hooks[span]:
                hook(args, result)
            return result

        return wrapper

    def _primitive(self, fn):
        tracer = self
        tensor_cls = self._tensor_cls

        def wrapper(*args, **kwargs):
            t0 = perf()
            out = fn(*args, **kwargs)
            dt = perf() - t0
            if not isinstance(out, tensor_cls):
                return out
            st = tracer.ops[out._op]
            st.calls += 1
            st.fwd += dt
            nbytes = out.data.nbytes
            st.out_bytes += nbytes
            acc = tracer.acc
            acc["autodiff.nodes"] += 1
            owner = tracer.spans[tracer.stack[-1]][0] if tracer.stack else None
            if owner is None:
                acc["training.loss_ms"] += dt * 1e3
            bwd = out._backward
            if bwd is not None:
                acc["autodiff.closures"] += 1
                acc["autodiff.tape_bytes"] += nbytes
                key = BWD_OWNER.get(owner)

                def timed(g):
                    t = perf()
                    try:
                        return bwd(g)
                    finally:
                        d = perf() - t
                        st.bwd += d
                        if key is not None:
                            tracer.acc[key] += d * 1e3

                out._backward = timed
            return out

        return wrapper

    # ------------------------------------------------------------------- spans
    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf(), None, parent, self.op, 0.0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        rec = self.spans[idx]
        rec[2] = perf()
        self.stack.pop()
        dur = rec[2] - rec[1]
        if rec[3] >= 0:
            self.spans[rec[3]][5] += dur
        self.acc[f"{rec[0]}.total_ms"] += dur * 1e3
        self.acc[f"{rec[0]}.self_ms"] += (dur - rec[5]) * 1e3

    def _count(self, span, args, result, clamped_before):
        """Work counts measured at the boundary where the work happens."""
        acc = self.acc
        if span == "triplane.sample":
            pts = getattr(args[1], "data", args[1])
            acc["triplane.points"] += pts.shape[0] if pts.ndim == 2 else 1
            acc["triplane.clamped"] += self._clamp_count() - clamped_before
        elif span == "render.rays":
            acc["render.rays"] += len(args[2])
        elif span == "render.integrate":
            acc["render.weight_sum_max"] = max(acc["render.weight_sum_max"], float(result[1].data.max()))
        elif span == "attention.oa":
            n, d = args[0].data.shape[0], args[2]
            acc["attention.oa_key_rows"] += n * 2 * max(2 * d - 1, 1)
        elif span == "training.adamw":
            acc["training.adamw_steps"] += 1
            acc["training.adamw_accepted"] += bool(result)

    def state(self):
        """Everything recorded so far, to hand from a forked child back to its parent."""
        return self.calls, self.acc, self.ops, self.spans

    def adopt(self, state):
        """Take over the state of a forked child that started from this tracer."""
        self.calls, self.acc, self.ops, self.spans = state

    def take(self):
        """Return and reset the per-op accumulators."""
        out, self.acc = self.acc, defaultdict(float)
        return out

    def dump_spans(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, op, _ in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")
