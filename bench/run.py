"""qpkdv benchmark: fixed workloads run through the library's public API.

Run from the repository root:

    python3 bench/run.py --workload solve-nu1-n16 --seed 1 --seconds 30 --trace 0

Workloads (closed loop: one process, one operation at a time):

  solve-nu1-n16     criterion-7 Nash-Moser solve at Truncation(1, 16, 16):
                    few large operator blocks, opalg.compose dominates
  solve-nu2-n4      nu = 2 solve at Truncation(2, 4, 4): many small blocks,
                    spectral runs on 2-D phi grids
  scan-nu1-n8       cantor_measure at each cell of a 41-point lambda grid,
                    two epsilons, Truncation(1, 8, 8): 82 short solves where
                    per-point fixed costs and the divisor screen dominate
  stability-nu1-n8  dynamics.stability_report(T=100) on the solved and
                    reduced criterion-9 problem; touches no operator algebra

The seed draws the stability initial states and shifts the scan's lambda
grid by less than one grid spacing; the two solve problems are fixed.

Operation times are reported at a reference machine speed (``op_ref_s``):
each operation's wall time is scaled by how long a fixed numpy probe, which
never calls qpkdv, took during and around it (a timer signal runs the probe
every half second).  On a shared VM the speed of a core drifts by up to 1.5x
over seconds to minutes; the scaling takes that drift out of run-to-run
comparisons.  Raw wall medians stay in the result file.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, measured
by wrapping the public functions of each layer (see tracer.py).  Every
operation is checked with the tolerances of the acceptance tests.  A result
file with run metadata, sample counts and (traced) the spans is written to
``bench/out/``.  ``--smoke`` shrinks every workload to a size that finishes
in seconds.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# set-up is measured this many times per run: in this process and in fresh
# interpreters that repeat the same set-up and stop before the timed region
SETUP_SAMPLES = 4

# a calibration sample is taken before the first operation, every
# CALIB_EVERY_S of wall time (also inside an operation), and after the last
# operation; op_ref_s is wall time scaled to a machine on which one
# calibration sample takes CALIB_REF_S (about its median on the 2-vCPU VM
# where the bounds were set)
CALIB_EVERY_S = 0.5
CALIB_REF_S = 0.002

SOLVE_TOL = 1e-10       # criterion 7: final residual
ORACLE_GAP_TOL = 1e-8   # criterion 7: gap to galerkin_newton
MIN_FRACTION = 0.5      # criterion 8: accepted fraction at every epsilon
DRIFT_TOL = 1e-8        # criterion 9
RATIO_RANGE = (0.9, 1.1)
ENDPOINT_TOL = 1e-4

CRIT_TEXT = "cos(phi_1) * sin(x) + z0^2 * z3"

WORKLOADS = {
    "solve-nu1-n16": {
        "kind": "solve", "text": "30 * cos(phi_1) * sin(x) + z0^2 * z3",
        "nu": 1, "lam": 1.25, "n": 16, "smoke_n": 6},
    "solve-nu2-n4": {
        "kind": "solve",
        "text": "10 * cos(phi_1) * sin(x) + 10 * cos(phi_2) * sin(x) + z0^2 * z3",
        "nu": 2, "lam": 0.8, "n": 4, "smoke_n": 3},
    "scan-nu1-n8": {
        "kind": "scan", "text": CRIT_TEXT, "n": 8, "smoke_n": 6,
        "points": 41, "smoke_points": 4, "epsilons": (1e-3, 1e-5), "a": 0.5},
    "stability-nu1-n8": {
        "kind": "stability", "text": CRIT_TEXT, "lam": 1.25, "n": 8,
        "smoke_n": 6, "T": 100.0, "smoke_T": 1.0, "dt": 0.01, "s": 2.0},
}


def load_library():
    """Import numpy and qpkdv from this checkout's ``src`` (never elsewhere)."""
    if not (SRC / "qpkdv" / "__init__.py").is_file():
        raise SystemExit(f"bench: no qpkdv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy as np
    import qpkdv
    from qpkdv import dynamics, kamreduce, nonlin, regularize, solver, spectral

    if Path(qpkdv.__file__).resolve().parent != (SRC / "qpkdv").resolve():
        raise SystemExit(f"bench: imported qpkdv from {qpkdv.__file__}, not {SRC}")
    return SimpleNamespace(np=np, dyn=dynamics, km=kamreduce, nonlin=nonlin,
                           reg=regularize, sv=solver, sp=spectral)


class Calibration:
    """Machine-speed probe: a fixed loop of small complex numpy products and
    exponentials, the same kind of calls the library makes, that never touches
    qpkdv.  One sample is the median of three timings of the loop.

    While ``ticking``, a timer signal takes a sample every ``CALIB_EVERY_S``,
    also in the middle of an operation; ``in_handler`` adds up the seconds
    spent there, so that they can be taken out of the operation's time.
    """

    STEPS = 100

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.M = rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))
        self.j3 = 1j * np.arange(-8.0, 9.0) ** 3
        self.samples = []  # (perf_counter when taken, seconds)
        self.in_handler = 0.0

    def _loop(self):
        np = self.np
        g = np.ones(17, dtype=complex)
        for n in range(self.STEPS):
            ph = np.exp(self.j3 * (n * 1e-3))
            g = g + 1e-3 * ((self.M * (ph[None, :] / ph[:, None])) @ g)
            g = g / np.sqrt(np.vdot(g, g).real)
        return g

    def sample(self) -> None:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._loop()
            times.append(time.perf_counter() - t0)
        self.samples.append((time.perf_counter(), statistics.median(times)))

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.sample()
        self.in_handler += time.perf_counter() - t0

    @contextmanager
    def ticking(self):
        self.sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIB_EVERY_S, CALIB_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.sample()

    def around(self, t0, t1) -> float:
        """Mean sample over [t0, t1] together with the last sample before it
        and the first after it."""
        times = [t for t, _ in self.samples]
        lo = max(bisect.bisect_left(times, t0) - 1, 0)
        hi = bisect.bisect_right(times, t1) + 1
        return statistics.fmean(s for _, s in self.samples[lo:hi])


class Solve:
    """One converged Nash-Moser solve per operation; the oracle gap is checked
    once per run, after the timed region."""

    ops_per_round = 1
    points_per_op = 1

    def __init__(self, lib, w, smoke, seed):
        sp, sv, nonlin = lib.sp, lib.sv, lib.nonlin
        self.lib = lib
        n = w["smoke_n"] if smoke else w["n"]
        self.trunc = sp.Truncation(w["nu"], n, n)
        self.freq = sp.Frequency.default(w["nu"], lam=w["lam"])
        self.spec = nonlin.parse_nonlinearity(w["text"], "raw_f", epsilon=1e-3)
        self.config = sv.SolverConfig(trunc=self.trunc)
        # warm-up: finishes the lazy lambdify of the parsed nonlinearity
        nonlin.residual(self.spec, self.freq, sp.FourierField.zeros(self.trunc))
        self.solutions = []

    def op(self, i):
        rep = self.lib.sv.nash_moser(self.spec, self.freq, self.config)
        res = rep.iterates[-1]["res"]
        self.solutions.append(rep.solution)
        ok = rep.converged and res < SOLVE_TOL
        return 1, 0 if ok else 1, {"residual": res, "iterates": len(rep.iterates)}

    def check_round(self, ops):
        return {}

    def verify(self, tracer):
        """Failures found by the dense oracle (one per solve that misses it)."""
        sp = self.lib.sp
        if tracer is not None:
            tracer.op = "oracle"
        t0 = time.perf_counter()
        oracle = self.lib.sv.galerkin_newton(self.spec, self.freq, self.trunc)
        oracle_s = time.perf_counter() - t0
        gaps = [sp.sobolev_norm(u - oracle, self.trunc.s0) for u in self.solutions]
        return sum(g >= ORACLE_GAP_TOL for g in gaps), {
            "oracle_s": oracle_s, "oracle_gap_max": max(gaps, default=0.0)}


class Scan:
    """One cantor_measure call per lambda cell, both epsilons; a round is one
    pass over the whole grid, so every round covers the same points.  Each
    (epsilon, lambda) point counts as one attempted operation."""

    def __init__(self, lib, w, smoke, seed):
        np, sp = lib.np, lib.sp
        self.lib, self.w = lib, w
        n = w["smoke_n"] if smoke else w["n"]
        self.trunc = sp.Truncation(1, n, n)
        k = w["smoke_points"] if smoke else w["points"]
        # one point per cell of width 1/k on [0.5, 1.5], all at the same
        # seeded offset inside their cell
        shift = np.random.default_rng(seed).random()
        self.grid = 0.5 + (np.arange(k) + shift) / k
        self.ops_per_round = k
        self.points_per_op = len(w["epsilons"])
        # warm-up: parse and evaluate once so sympy's lazy imports are done
        spec = lib.nonlin.parse_nonlinearity(w["text"], "raw_f", epsilon=1e-3)
        lib.nonlin.residual(spec, sp.Frequency.default(1), sp.FourierField.zeros(self.trunc))

    def op(self, i):
        rep = self.lib.sv.cantor_measure(
            self.w["text"], "raw_f", (1.0,), list(self.w["epsilons"]), self.grid[i:i + 1],
            a=self.w["a"], trunc=self.trunc, workers=1)
        rows = [rep.records[eps][0] for eps in self.w["epsilons"]]
        accepted = [bool(r["accepted"]) for r in rows]
        excluded = sum(r["excluded"] for r in rows)
        failed = len(rows) - sum(accepted) - excluded
        return len(rows), failed, {"lambda": float(self.grid[i]), "accepted": sum(accepted),
                                   "excluded": excluded, "accepted_by_eps": accepted}

    def check_round(self, ops):
        """f(1e-5) >= f(1e-3) >= 0.5 over one pass; a pass that breaks the
        trend fails all its points."""
        eps = self.w["epsilons"]
        fractions = {e: sum(o.get("accepted_by_eps", [False] * len(eps))[j] for o in ops)
                     / len(ops) for j, e in enumerate(eps)}
        f = [fractions[e] for e in sorted(eps, reverse=True)]
        if not (all(b >= a for a, b in zip(f, f[1:])) and min(f) >= MIN_FRACTION):
            for o in ops:
                o["failed"] = o["attempted"]
        return {str(e): v for e, v in fractions.items()}

    def verify(self, tracer):
        return 0, {}


class Stability:
    """One stability_report per operation, from a fresh seeded initial state;
    the solve and reduction that produce its input are set-up."""

    ops_per_round = 1
    points_per_op = 1

    def __init__(self, lib, w, smoke, seed):
        np, sp, sv, km = lib.np, lib.sp, lib.sv, lib.km
        self.lib, self.w = lib, w
        n = w["smoke_n"] if smoke else w["n"]
        self.T = w["smoke_T"] if smoke else w["T"]
        trunc = sp.Truncation(1, n, n)
        self.freq = sp.Frequency.default(1, lam=w["lam"])
        spec = lib.nonlin.parse_nonlinearity(w["text"], "raw_f", epsilon=1e-3)
        solve = sv.nash_moser(spec, self.freq, sv.SolverConfig(trunc=trunc))
        if not solve.converged:
            raise RuntimeError("stability set-up: the solve did not converge")
        self.rg = lib.reg.regularize_at(spec, self.freq, solve.solution)
        self.red = km.reduce(self.rg, self.freq, km.IterationSchedule(
            gamma=0.01, smallness_threshold=1e6))
        self.n_x = n
        self.rng = np.random.default_rng(seed)

    def op(self, i):
        dyn = self.lib.dyn
        h0 = dyn.random_phase_state(self.n_x, self.rng, decay=3.0)
        rep = dyn.stability_report(self.rg, self.red, self.freq, h0, T=self.T,
                                   s=self.w["s"], dt=self.w["dt"])
        ok = (rep["v_drift"] < DRIFT_TOL
              and RATIO_RANGE[0] <= rep["ratio_max"] <= RATIO_RANGE[1]
              and rep["endpoint_discrepancy"] < ENDPOINT_TOL)
        return 1, 0 if ok else 1, {k: rep[k] for k in
                                   ("v_drift", "ratio_max", "endpoint_discrepancy")}

    def check_round(self, ops):
        return {}

    def verify(self, tracer):
        return 0, {}


KINDS = {"solve": Solve, "scan": Scan, "stability": Stability}


def run_ops(work, calib, seconds, tracer=None):
    """Closed loop for ``seconds`` in whole rounds, one operation at a time:
    another round starts only while the median round so far still fits;
    always at least one.  Each operation's ``ref_s`` is its wall time scaled
    by the calibration samples taken during and around it."""
    ops, round_walls, checks, spans = [], [], [], []
    begin = time.perf_counter()
    with calib.ticking():
        while True:
            r0 = time.perf_counter()
            first = len(ops)
            for i in range(work.ops_per_round):
                if tracer is not None:
                    tracer.op = len(ops)
                h0 = calib.in_handler
                t0 = time.perf_counter()
                try:
                    attempted, failed, info = work.op(i)
                except Exception:  # one failed operation must not end the run
                    traceback.print_exc()
                    attempted = failed = work.points_per_op
                    info = {"error": traceback.format_exc(limit=1)}
                t1 = time.perf_counter()
                spans.append((t0, t1))
                ops.append({"wall_s": t1 - t0 - (calib.in_handler - h0),
                            "attempted": attempted, "failed": failed, **info})
            checks.append(work.check_round(ops[first:]))
            round_walls.append(time.perf_counter() - r0)
            if time.perf_counter() - begin + statistics.median(round_walls) > seconds:
                break
    for o, (t0, t1) in zip(ops, spans):
        o["calib_s"] = calib.around(t0, t1)
        o["ref_s"] = o["wall_s"] * CALIB_REF_S / o["calib_s"]
    return ops, checks


def summary(values) -> dict:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it (none below eleven samples)."""
    values = list(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n >= 11:
        p = math.floor(100.0 * (1.0 - 10.0 / n))
        out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return out


def process_age() -> float:
    """Seconds since this process was started, from /proc on Linux; elsewhere
    since this module began to run."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return (time.clock_gettime(time.CLOCK_BOOTTIME)
                - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T_START


def setup_in_child(args) -> float:
    """Set-up time of a fresh interpreter, from just before it is spawned to
    the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["ready"] - t0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def metadata(lib, seed) -> dict:
    np = lib.np
    import scipy
    import sympy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
            for k, v in deps.items() if k in ("blas", "lapack")}
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to a size that runs in seconds")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    lib = load_library()
    w = WORKLOADS[args.workload]
    work = KINDS[w["kind"]](lib, w, args.smoke, args.seed)
    setup_s = process_age()
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    calib = Calibration(lib.np)
    begin = time.perf_counter()
    result = {"workload": args.workload, "smoke": args.smoke, "seconds": args.seconds,
              "trace": args.trace, "meta": metadata(lib, args.seed)}
    if args.trace:
        import tracer as tr

        plain, _ = run_ops(work, calib, args.seconds / 2)
        t = tr.Tracer()
        with t.installed():
            traced, checks = run_ops(work, calib, args.seconds / 2, tracer=t)
            oracle_failed, check = work.verify(t)
        ops = plain + traced
        metrics = tr.layer_metrics(t, [o["wall_s"] for o in traced])
        metrics["trace_overhead"] = (statistics.median(o["ref_s"] for o in traced)
                                     / statistics.median(o["ref_s"] for o in plain))
        timed = [s for s in t.spans if isinstance(s[4], int)]
        result["bypass"] = {
            "opalg.compose+spectral.compose_*": sum(
                s[0] == "opalg.compose" or s[0].startswith("spectral.compose_")
                for s in timed),
            "dynamics.*": sum(s[0].startswith("dynamics.") for s in timed),
        }
        result["summaries"] = {"plain_op_ref_s": summary(o["ref_s"] for o in plain),
                               "traced_op_ref_s": summary(o["ref_s"] for o in traced)}
        result["spans"] = {"fields": ["name", "start", "end", "parent", "op",
                                      "self_s", "extra"], "rows": t.spans}
        declared = spec["per_layer"]
    else:
        setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        ops, checks = run_ops(work, calib, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        oracle_failed, check = work.verify(None)
        metrics = {"setup_s": statistics.median(setups),
                   "op_ref_s": statistics.median(o["ref_s"] for o in ops),
                   "peak_rss_mb": peak_rss_mb}
        result["summaries"] = {"setup_s": summary(setups),
                               "op_ref_s": summary(o["ref_s"] for o in ops),
                               "op_wall_s": summary(o["wall_s"] for o in ops)}
        declared = spec["end_to_end"]
    result["summaries"]["calib_s"] = summary(s for _, s in calib.samples)
    result["calib_samples"] = [(t - begin, s) for t, s in calib.samples]

    attempted = sum(o["attempted"] for o in ops)
    failed = min(attempted, sum(o["failed"] for o in ops) + oracle_failed)
    accepted = sum(o.get("accepted", o["attempted"] - o["failed"]) for o in ops)
    metrics["accepted_share"] = accepted / attempted
    metrics["ok_share"] = 1.0 - failed / attempted
    result["ops"] = ops
    result["check"] = {**check, "rounds": checks}
    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                   for m in declared}
    result["metrics"] = out_metrics

    OUT.mkdir(exist_ok=True)
    tag = "smoke-" if args.smoke else ""
    path = OUT / f"{tag}{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str))

    for name, m in out_metrics.items():
        print(f"{name:45s} {m['value']:>14.6g} {m['unit']}")
    for name, s in result["summaries"].items():
        print(f"{name}: " + ", ".join(f"{k}={v:.6g}" for k, v in s.items()))
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
