"""In-memory spans around the public functions of the qpkdv layers.

The tracer replaces each traced function in every ``qpkdv`` module binding
that *is* the original, so names imported with ``from .spectral import ...``
are traced as well as the defining module.  Spans are kept in memory while the
benchmark runs and written out once at the end.  Self time is a span's
duration minus the durations of the traced child spans it covers; calls are
strictly nested (one thread), so the subtraction is exact.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

# (metric prefix, module, attribute); spectral.compose and
# spectral.invert_torus_diffeo are split by their ``kind`` argument.
TRACED = [
    ("opalg.compose", "opalg", "compose"),
    ("opalg.neumann_inverse", "opalg", "neumann_inverse"),
    ("opalg.decay_norm", "opalg", "decay_norm"),
    ("opalg.apply", "opalg", "apply"),
    ("spectral.compose", "spectral", "compose"),
    ("spectral.invert_torus_diffeo", "spectral", "invert_torus_diffeo"),
    ("spectral.synthesize", "spectral", "synthesize"),
    ("spectral.analyze", "spectral", "analyze"),
    ("nonlin.parse_nonlinearity", "nonlin", "parse_nonlinearity"),
    ("nonlin.structure_flags", "nonlin", "structure_flags"),
    ("nonlin.residual", "nonlin", "residual"),
    ("nonlin.linearized_coefficients", "nonlin", "linearized_coefficients"),
    ("regularize.regularize_at", "regularize", "regularize_at"),
    ("regularize.step1_space_diffeo", "regularize", "step1_space_diffeo"),
    ("regularize.step2_time_reparam", "regularize", "step2_time_reparam"),
    ("regularize.step3_descent_zero", "regularize", "step3_descent_zero"),
    ("regularize.step4_translation", "regularize", "step4_translation"),
    ("regularize.step5_pseudo_diff", "regularize", "step5_pseudo_diff"),
    ("kamreduce.reduce", "kamreduce", "reduce"),
    ("kamreduce.kam_step", "kamreduce", "kam_step"),
    ("kamreduce.solve_homological", "kamreduce", "solve_homological"),
    ("solver.nash_moser", "solver", "nash_moser"),
    ("solver.right_inverse", "solver", "right_inverse"),
    ("solver.diag_inverse", "solver", "diag_inverse"),
    ("solver.galerkin_newton", "solver", "galerkin_newton"),
    ("dynamics.integrate_linear", "dynamics", "integrate_linear"),
    ("dynamics.stability_report", "dynamics", "stability_report"),
]
CLASSMETHODS = [("dynamics.FrozenChain.at_time", "dynamics", "FrozenChain", "at_time")]
SPLIT_BY_KIND = {"spectral.compose", "spectral.invert_torus_diffeo"}

# span prefixes that carry .calls/.self_s/.total_s metrics; the dense oracle
# runs outside the timed region and is reported on its own
LAYERS = [
    name
    for prefix, _, _ in TRACED if prefix != "solver.galerkin_newton"
    for name in ((f"{prefix}_space", f"{prefix}_time") if prefix in SPLIT_BY_KIND
                 else (prefix,))
] + [prefix for prefix, *_ in CLASSMETHODS]


def _nonzero_offsets(blocks: np.ndarray, nu: int) -> int:
    return int(blocks.reshape(blocks.shape[:nu] + (-1,)).any(axis=-1).sum())


def _compose_extra(args, kwargs, result) -> dict:
    A, B = args[0], args[1]
    nu = A.trunc.nu
    offsets = int(np.prod(A.blocks.shape[:nu]))
    m = A.blocks.shape[-1]
    nnz_a = _nonzero_offsets(A.blocks, nu)
    return {
        "dropped_mass": float(result.dropped_mass),
        "nonzero_offsets": nnz_a + _nonzero_offsets(B.blocks, nu),
        "offsets": 2 * offsets,
        # the direct kernel multiplies each nonzero A-offset block with every
        # B-offset block: 8 m^3 real flops per complex m x m product
        "flops": 8.0 * m**3 * nnz_a * offsets,
    }


EXTRAS = {
    "opalg.compose": _compose_extra,
    "kamreduce.solve_homological": lambda a, k, r: {"rejected": not r.ok},
    "solver.nash_moser": lambda a, k, r: {"iterates": len(r.iterates),
                                          "excluded": bool(r.excluded_lambda)},
    "dynamics.integrate_linear": lambda a, k, r: {"steps": len(r[0]) - 1},
}


class Tracer:
    """Span recorder; ``op`` tags every span with the operation that caused it."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, op, self_s, extra]
        self._stack: list = []  # [span index, child seconds]
        self.op = None

    def wrap(self, prefix: str, fn):
        split = prefix in SPLIT_BY_KIND
        extra_fn = EXTRAS.get(prefix)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if split:
                kind = args[0] if args else kwargs["kind"]
                name = f"{prefix}_{kind}"
            else:
                name = prefix
            idx = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append([idx, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _, child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += t1 - t0
                tracer.spans[idx] = [name, t0, t1, parent, tracer.op,
                                     t1 - t0 - child, None]
            if extra_fn is not None:
                tracer.spans[idx][6] = extra_fn(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every qpkdv binding of the traced functions; restore on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qpkdv" or n.startswith("qpkdv."))]
        undo = []
        try:
            for prefix, modname, attr in TRACED:
                orig = getattr(sys.modules[f"qpkdv.{modname}"], attr)
                wrapped = self.wrap(prefix, orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            undo.append((mod, key, val))
                            setattr(mod, key, wrapped)
            for prefix, modname, clsname, attr in CLASSMETHODS:
                cls = getattr(sys.modules[f"qpkdv.{modname}"], clsname)
                raw = cls.__dict__[attr]
                undo.append((cls, attr, raw))
                setattr(cls, attr, classmethod(self.wrap(prefix, raw.__func__)))
            yield self
        finally:
            for obj, key, val in reversed(undo):
                setattr(obj, key, val)


def layer_metrics(tracer: Tracer, op_walls: list) -> dict:
    """Per-layer metrics from the spans of the timed operations.

    Spans tagged with an integer op index belong to the timed region;
    ``op_walls`` holds the wall seconds of those traced operations.  The dense
    oracle runs outside it, under the tag ``"oracle"``.  A ratio whose base is
    empty on this workload reads 0.
    """
    spans = [s for s in tracer.spans if isinstance(s[4], int)]
    out = {}
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)
    for name in LAYERS:
        rows = by_name.get(name, [])
        out[f"{name}.calls"] = len(rows)
        out[f"{name}.self_s"] = sum(s[5] for s in rows)
        out[f"{name}.total_s"] = sum(s[2] - s[1] for s in rows)

    comp = by_name.get("opalg.compose", [])
    ex = [s[6] for s in comp if s[6]]  # a call that raised has no extras
    out["opalg.compose.dropped_mass_max"] = max((e["dropped_mass"] for e in ex), default=0.0)
    offsets = sum(e["offsets"] for e in ex)
    out["opalg.compose.nonzero_offset_share"] = (
        sum(e["nonzero_offsets"] for e in ex) / offsets if offsets else 0.0)
    self_s = out["opalg.compose.self_s"]
    out["opalg.compose.eff_gflops"] = (
        sum(e["flops"] for e in ex) / self_s / 1e9 if self_s > 0 else 0.0)

    neumann = {i for i, s in enumerate(tracer.spans) if s[0] == "opalg.neumann_inverse"}
    n_calls = out["opalg.neumann_inverse.calls"]
    children = sum(1 for s in comp if s[3] in neumann)
    out["opalg.neumann_inverse.terms"] = children / n_calls if n_calls else 0.0

    reduces = {i for i, s in enumerate(tracer.spans) if s[0] == "kamreduce.reduce"}
    steps = sum(1 for s in by_name.get("kamreduce.kam_step", []) if s[3] in reduces)
    n_red = out["kamreduce.reduce.calls"]
    out["kamreduce.reduce.steps"] = steps / n_red if n_red else 0.0
    out["kamreduce.solve_homological.rejected"] = sum(
        1 for s in by_name.get("kamreduce.solve_homological", [])
        if s[6] and s[6]["rejected"])

    nm = by_name.get("solver.nash_moser", [])
    returned = [s for s in nm if s[6]]
    out["solver.nash_moser.iterates"] = (
        statistics.mean(s[6]["iterates"] for s in returned) if returned else 0.0)

    excluded = sum(s[2] - s[1] for s in returned if s[6]["excluded"])
    out["scan.excluded_work_share"] = excluded / sum(op_walls) if op_walls else 0.0

    oracle = [s for s in tracer.spans
              if s[4] == "oracle" and s[0] == "solver.galerkin_newton"]
    dense = sum(s[2] - s[1] for s in oracle)
    out["solver.galerkin_newton.total_s"] = dense
    spectral_per_solve = out["solver.nash_moser.total_s"] / len(nm) if nm else 0.0
    out["solver.dense_over_spectral"] = (
        dense / spectral_per_solve if oracle and spectral_per_solve > 0 else 0.0)

    integ = by_name.get("dynamics.integrate_linear", [])
    steps = sum(s[6]["steps"] for s in integ if s[6])
    out["dynamics.integrate_linear.step_us"] = (
        out["dynamics.integrate_linear.total_s"] / steps * 1e6 if steps else 0.0)
    return out
