"""End-to-end and per-layer benchmark of the sscavi pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload study-default --seed 1 --seconds 20 --trace 0

It imports the package from ``./src`` (never from an installed copy), pins
BLAS to one thread before numpy loads, runs whole rounds of the workload's
operations until ``--seconds`` of measured time have passed, checks every
output against the independent oracles in ``oracle.py`` and prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds on the same inputs and reports the
per-layer metrics of ``tracer.py``. See README.md for the workloads.
"""

import os

# Before numpy is imported anywhere: one BLAS thread. On a small shared
# machine extra BLAS threads make the small dense solves slower and noisier.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from oracle import Problem, radii  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "out", "perfbench")
MASK64 = (1 << 64) - 1

SETUP_PROBES = 3
# Oracle radii agree with the package's to ~1e-7 relative (p = 400); 1e-5
# leaves room for central-difference error without hiding a wrong Jacobian.
RADIUS_RTOL = 1e-5
# ELBO and step norms recomputed from X and y agree to rounding.
VALUE_RTOL = 1e-9
# Fixed-point equations at a sequential run stopped at tol = 1e-8.
FIXED_POINT_ATOL = 1e-6

END_TO_END = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class CheckFailed(Exception):
    """A program output disagrees with an oracle or a required property."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(a, b, rtol=VALUE_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def load_program():
    """Import sscavi from ./src, ahead of any installed copy."""
    sys.path.insert(0, SRC)
    import sscavi
    from sscavi import engines, harness, model, stability, svgplot, synth

    return dict(
        sscavi=sscavi, engines=engines, harness=harness, model=model,
        stability=stability, svgplot=svgplot, synth=synth,
    )


def environment(m):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "sscavi_backend": getattr(m["sscavi"], "BACKEND", "none"),
        "machine": platform.machine(),
    }


def read_csv_rows(path):
    """Data rows of a CSV file written by the program, header skipped."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


class OpTimer:
    """Times each call of one program function (a workload's op)."""

    def __init__(self, fn):
        self.fn = fn
        self.times = []

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        result = self.fn(*args, **kwargs)
        self.times.append(time.perf_counter() - start)
        return result


class StudyWorkload:
    """Rounds of ``spectral-study``; an op is one replicate."""

    def __init__(self, m, seed, tiny, name):
        self.m, self.seed, self.name = m, seed, name
        self.out = os.path.join(OUT, name)
        harness = m["harness"]
        self.timer = OpTimer(harness.spectral_replicate)
        harness.spectral_replicate = self.timer
        if name == "study-default":
            # The CLI defaults: both panels, 10 grid points x 50 replicates;
            # the first grid point is (n, p, s) = (100, 10, 10).
            self.grid = dict(replications=2 if tiny else 50)
            self.first_point, grid_points = (100, 10, 10), 10
            self.min_rounds = 1 if tiny else 2
        else:
            n, p, s = (80, 40, 20) if tiny else (800, 400, 200)
            self.grid = dict(
                n=(n,), p=(p,), s=(s,), panel="right",
                replications=2 if tiny else 4,
                explicit_grids=frozenset({"n", "p", "s"}),
            )
            self.first_point, grid_points = (n, p, s), 1
            self.min_rounds = 1 if tiny else 10
        self.ops_per_round = grid_points * self.grid["replications"]
        self.first_csv = None

    def master_seed(self, k):
        if self.name == "study-default":
            return self.seed  # the same headline study every round
        return (self.seed * 1_000_003 + k * self.grid["replications"]) & MASK64

    def config(self, k):
        return self.m["harness"].StudyConfig(
            out_dir=self.out, mode="spectral_study", master_seed=self.master_seed(k), **self.grid
        )

    def warm_up(self):
        cfg = self.config(0)
        seed = self.m["synth"].replicate_seed(cfg.master_seed, 0)
        self.timer.fn(*self.first_point, seed, cfg.hyper, cfg.run, cfg.amplitude)

    def run_round(self, k):
        self.timer.times = []
        rows = self.m["harness"].cmd_spectral_study(self.config(k))
        return list(self.timer.times), rows

    def check_round(self, k, rows):
        path = os.path.join(self.out, "rho.csv")
        written = read_csv_rows(path)
        require(len(written) == self.ops_per_round == len(rows),
                f"rho.csv has {len(written)} rows, expected {self.ops_per_round}")
        for row, text in zip(rows, written):
            require(all(str(v) == t if isinstance(v, str) else
                        (t == ("true" if v else "false")) if isinstance(v, bool) else
                        same_float(float(v), float(t)) for v, t in zip(row, text)),
                    f"rho.csv row {text} does not read back to {row}")
        for row in rows:
            panel, n, p, s, rep, seed, rho_seq, _, rho_par, _, converged, assumption1 = row
            if converged:
                require(rho_seq < 1.0, f"converged replicate {row[:6]} has rho_seq {rho_seq} >= 1")
            if assumption1:
                require(converged and rho_seq < 1.0, f"Assumption 1 holds but rho_seq {rho_seq} at {row[:6]}")
            if self.name == "study-default" and (n, p, s) == (100, 50, 50):
                require(rho_par > 1.0, f"rho_par {rho_par} <= 1 at (100, 50, 50), {row[:6]}")
        if self.name == "study-default":
            with open(path, "rb") as fh:
                data = fh.read()
            if self.first_csv is None:
                self.first_csv = data
            require(data == self.first_csv, "rho.csv differs between reruns of the same study")

    def check_run(self, first_rows):
        """Oracle radii for one sampled converged replicate per grid point."""
        rng = np.random.default_rng(self.seed)
        picks = []
        for point in dict.fromkeys(tuple(r[:4]) for r in first_rows):
            pool = [r for r in first_rows if tuple(r[:4]) == point and r[10]]
            require(pool, f"no replicate converged at {point}")
            picks.append(pool[rng.integers(len(pool))])
        cfg = self.config(0)
        synth = self.m["synth"]
        for panel, n, p, s, rep, seed, rho_seq, _, rho_par, *_ in picks:
            ds = synth.make_dataset(synth.GenSpec(
                n=n, p=p, s=s, amplitude=cfg.amplitude, sigma2=cfg.hyper.sigma2, seed=seed))
            hyper = cfg.hyper
            oracle_seq, oracle_par = radii(Problem(ds.X, ds.y, hyper.pi, hyper.tau, hyper.sigma2))
            require(close(rho_seq, oracle_seq, RADIUS_RTOL) and close(rho_par, oracle_par, RADIUS_RTOL),
                    f"radii ({rho_seq}, {rho_par}) at {(n, p, s, seed)} differ from the oracle's "
                    f"({oracle_seq}, {oracle_par})")


class TrajectoryWorkload:
    """Rounds of ``run-example`` with one scheme; an op is one trajectory."""

    def __init__(self, m, seed, tiny, name):
        self.m, self.seed, self.name = m, seed, name
        self.variant = "sequential" if name == "traj-seq" else "parallel"
        self.out = os.path.join(OUT, name)
        self.shape = (200, 50, 25) if tiny else (2000, 1000, 100)
        self.ops_per_round = 4
        self.min_rounds = 1 if tiny else 10

    def data_seed(self, k, i):
        # Both trajectory workloads use the same datasets for the same --seed.
        return ((self.seed << 20) + k * self.ops_per_round + i) & MASK64

    def config(self, k, i):
        n, p, s = self.shape
        m = self.m
        return m["harness"].StudyConfig(
            out_dir=os.path.join(self.out, f"op{i}"), mode="run_example", n=(n,), p=(p,), s=(s,),
            scheme=m["engines"].Scheme(self.variant), master_seed=self.data_seed(k, i),
        )

    def warm_up(self):
        self.m["harness"].cmd_run_example(self.config(0, 0))

    def run_round(self, k):
        times, traces = [], []
        for i in range(self.ops_per_round):
            start = time.perf_counter()
            traces.append(self.m["harness"].cmd_run_example(self.config(k, i)))
            times.append(time.perf_counter() - start)
        return times, traces

    def check_round(self, k, traces):
        for i, trace in enumerate(traces):
            self.check_op(self.config(k, i), trace)

    def check_run(self, first_traces):
        pass

    def check_op(self, cfg, trace):
        rows = read_csv_rows(os.path.join(cfg.out_dir, "trace.csv"))
        require(len(rows) == len(trace.iterations), "trace.csv length differs from the trace")
        for row, it, e, step in zip(rows, trace.iterations, trace.elbo, trace.step_sup_norm):
            require(int(row[0]) == it and same_float(float(row[1]), e) and same_float(float(row[2]), step),
                    f"trace.csv row {row} does not read back to the trace")
        require(rows[-1][3] == trace.status, "trace.csv status differs from the trace")
        final = trace.final_state
        means = read_csv_rows(os.path.join(cfg.out_dir, "means.csv"))
        require(len(means) == final.mu.size and all(
            same_float(float(r[2]), mu) and same_float(float(r[3]), al)
            for r, mu, al in zip(means, final.mu, final.alpha)), "means.csv does not read back")

        synth, hyper = self.m["synth"], cfg.hyper
        n, p, s = self.shape
        ds = synth.make_dataset(synth.GenSpec(
            n=n, p=p, s=s, amplitude=cfg.amplitude, sigma2=hyper.sigma2, seed=cfg.master_seed))
        prob = Problem(ds.X, ds.y, hyper.pi, hyper.tau, hyper.sigma2)
        mu0 = prob.diagls_init()
        require(close(trace.elbo[0], prob.elbo(mu0)), "initial ELBO differs from the oracle's")
        if self.variant == "sequential":
            elbo = np.asarray(trace.elbo)
            require(trace.status == "converged", f"sequential run ended {trace.status}")
            require(np.all(np.diff(elbo) >= -VALUE_RTOL * np.maximum(1.0, np.abs(elbo[1:]))),
                    "sequential ELBO decreased")
            residual = prob.fixed_point_residual(final.mu)
            require(residual <= FIXED_POINT_ATOL, f"final means miss the fixed-point equations by {residual}")
            require(close(trace.elbo[-1], prob.elbo(final.mu)), "final ELBO differs from the oracle's")
        else:
            mu1 = prob.par_sweep(mu0)
            require(close(trace.step_sup_norm[1], float(np.max(np.abs(mu1 - mu0)))),
                    "first parallel sweep differs from the Jacobi update")
            if np.all(np.isfinite(mu1)):
                require(close(trace.elbo[1], prob.elbo(mu1)), "ELBO after the first parallel sweep differs")
            if trace.status == "diverged":
                mu = final.mu
                require(not np.all(np.isfinite(mu)) or np.max(np.abs(mu)) > cfg.run.divergence_threshold,
                        "'diverged' status without a non-finite or oversized iterate")


WORKLOADS = {
    "study-default": StudyWorkload,
    "traj-seq": TrajectoryWorkload,
    "traj-par": TrajectoryWorkload,
    "stability-wide": StudyWorkload,
}


def tail_percentile(min_ops):
    """Highest of p99/p90/p75 with at least 10 ops beyond it at the run's
    guaranteed op count; p50 when there are too few ops for a tail."""
    for q in (99, 90, 75):
        if min_ops * (100 - q) / 100 >= 10:
            return q
    return 50


def setup_probe_times(args):
    """Launch the set-up alone in fresh processes; seconds from launch to a
    process ready for its first timed op (imports and one warm-up op)."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.time()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError("set-up probe failed")
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def run_rounds(workload, seconds, tracer, results):
    """Whole rounds until ``seconds`` of measured time and the minimum round
    count. Untraced: round k has its own inputs. Traced: untraced and traced
    rounds alternate on round 0's inputs, in whole pairs. A round that raises
    counts all its ops as failed."""
    k, measured = 0, 0.0
    while measured < seconds or k < workload.min_rounds or (tracer and k % 2):
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            times, payload = workload.run_round(0 if tracer else k)
        except Exception:
            traceback.print_exc()
            results["failed"] += workload.ops_per_round
            times, payload = None, None
        finally:
            wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        results["attempted"] += workload.ops_per_round
        measured += wall
        if times is not None:
            (results["traced_walls"] if traced else results["walls"]).append(wall)
            if not traced:
                results["op_times"].extend(times)
            if results["first"] is None:
                # Before any check allocates: the program's peak, not the oracles'.
                results["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            workload.check_round(0 if tracer else k, payload)
            if results["first"] is None:
                results["first"] = payload
        k += 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not os.path.isfile(os.path.join(SRC, "sscavi", "__init__.py")):
        print("perfbench: ./src/sscavi not found; run from the repository root", file=sys.stderr)
        return 2
    if not args.setup_probe:
        setup_times = setup_probe_times(args)

    m = load_program()
    workload = WORKLOADS[args.workload](m, args.seed, args.size == "tiny", args.workload)
    workload.warm_up()
    if args.setup_probe:
        print(time.time())
        return 0

    print("perfbench env: " + json.dumps(environment(m), sort_keys=True))
    tracer = Tracer(m) if args.trace else None
    results = dict(walls=[], traced_walls=[], op_times=[], attempted=0, failed=0, first=None)
    try:
        run_rounds(workload, args.seconds, tracer, results)
        if results["first"] is None:
            print("perfbench: every round failed", file=sys.stderr)
            return 1
        workload.check_run(results["first"])
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps(dict(correct=False, attempted=results["attempted"],
                              failed=results["failed"], metrics={})))
        return 1

    if tracer is None:
        ops = results["op_times"]
        q = tail_percentile(workload.min_rounds * workload.ops_per_round)
        values = {
            "wall_s": statistics.median(results["walls"]),
            "latency_p50_ms": 1e3 * statistics.median(ops),
            "latency_tail_ms": 1e3 * float(np.percentile(ops, q)),
            "peak_rss_mb": results["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
        print(f"perfbench: {args.workload}: {len(ops)} ops, latency_tail_ms is p{q}, "
              f"round walls {results['walls']}, set-up probes {setup_times}")
    else:
        rounds = len(results["traced_walls"])
        untraced = statistics.median(results["walls"])
        traced = statistics.median(results["traced_walls"])
        values = {name: tracer.totals.get(name, 0.0) / rounds for name in METRICS}
        values["trace.overhead_s"] = traced - untraced
        units = METRICS
        print(f"perfbench: {args.workload}: {rounds} traced rounds (median {traced} s) and "
              f"{len(results['walls'])} untraced (median {untraced} s) on the same inputs; "
              f"per-layer values are per traced round")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps(dict(correct=True, attempted=results["attempted"],
                          failed=results["failed"], metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
