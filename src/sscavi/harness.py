"""Study drivers and file I/O behind the command-line interface.

Every command is a pure function of its :class:`StudyConfig`: reruns with the
same master seed reproduce byte-identical CSVs. Floats are serialized with 17
significant digits for lossless round trips; SVG plots are conveniences and
everything quantitative lives in the CSVs.

A study is a point list, a replicate function and a header: :func:`_study`
runs every replicate of every grid point in canonical order, and its plots
and summaries are views of the rows it returns. Every command computes its
rows first and makes its output directory only when it writes them
(:func:`_write_tables`), so a command that fails or is rejected leaves none.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import engines, stability, svgplot, verify
from .model import Hyperparams, precompute
from .synth import SEED_BOUND, GenSpec, gen_design, make_dataset, replicate_seed

# the spectral-study panels StudyConfig accepts: the left grid over p = s, the right over s
PANELS = ("left", "right", "both")
DEFAULT_LEFT_P_GRID = (10, 20, 30, 40, 50)
DEFAULT_RIGHT_S_GRID = (5, 15, 25, 35, 45)


class ConfigError(ValueError):
    """Invalid study configuration; maps to CLI exit status 2."""


@contextmanager
def _rejected_as_config_error():
    """Report a ValueError from drawing or precomputing user-specified data as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class StudyConfig:
    """Everything a study command needs; grids are lists even when singleton."""

    out_dir: str
    mode: str = "run_example"
    n: Sequence[int] = (200,)
    p: Sequence[int] = (50,)
    s: Sequence[int] = (25,)
    amplitude: float = 1.0
    replications: int = 50
    hyper: Hyperparams = Hyperparams(pi=0.5, tau=1.0, sigma2=1.0)
    run: engines.RunConfig = engines.RunConfig(max_iter=500)
    scheme: engines.Scheme = engines.Scheme()
    master_seed: int = 0
    panel: str = "both"
    explicit_grids: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        for name in ("n", "p", "s"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ConfigError(f"{name} grid must be nonempty")
            if any(int(v) < 0 for v in grid):
                raise ConfigError(f"{name} grid must be nonnegative")
        if not 0 <= self.master_seed < SEED_BOUND:
            raise ConfigError("seed must lie in [0, 2^64)")
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if self.panel not in PANELS:
            raise ConfigError(f"unknown panel {self.panel!r}")


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path: str, header: Optional[Sequence[str]], rows) -> None:
    """Write ``rows`` under a one-line ``header``, or under none when it is None."""
    with open(path, "w", newline="\n") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_value(v) for v in row) + "\n")


def _write_tables(cfg: StudyConfig, tables) -> List[str]:
    """Make ``cfg.out_dir`` and write each ``(name, header, rows)`` table in
    it; returns the paths written. The only place a command makes its
    directory, so it is called once the command's rows are computed."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    for name, header, rows in tables:
        write_csv(os.path.join(cfg.out_dir, name), header, rows)
    return [os.path.join(cfg.out_dir, name) for name, _, _ in tables]


def _study(cfg: StudyConfig, points, replicate):
    """Each point's rows: ``replicate(point, r, seed)`` for the points in order
    and r = 0, ..., replications - 1, where replicate r draws from
    ``replicate_seed(cfg.master_seed, r)`` at every point. Writes nothing."""
    seeds = [replicate_seed(cfg.master_seed, r) for r in range(cfg.replications)]
    return [[replicate(point, r, seed) for r, seed in enumerate(seeds)] for point in points]


def _single(cfg: StudyConfig, name: str) -> int:
    grid = getattr(cfg, name)
    if len(grid) != 1:
        raise ConfigError(f"{name} must be a single value for {cfg.mode}")
    return int(grid[0])


def _single_dataset(cfg: StudyConfig):
    """The one dataset that gen-data and run-example draw from ``cfg``."""
    with _rejected_as_config_error():
        return make_dataset(GenSpec(
            n=_single(cfg, "n"), p=_single(cfg, "p"), s=_single(cfg, "s"),
            amplitude=cfg.amplitude, sigma2=cfg.hyper.sigma2, seed=cfg.master_seed,
        ))


def cmd_gen_data(cfg: StudyConfig) -> List[str]:
    """Write one synthetic dataset as interchange CSVs (X, y, beta)."""
    ds = _single_dataset(cfg)
    return _write_tables(cfg, [
        ("X.csv", None, ds.X), ("y.csv", None, ds.y[:, None]),
        ("beta.csv", None, ds.beta_true[:, None]),
    ])


def cmd_run_example(cfg: StudyConfig):
    """Run one trajectory and dump its trace, final means, and two plots."""
    ds = _single_dataset(cfg)
    with _rejected_as_config_error():
        pre = precompute(ds, cfg.hyper)
    trace = engines.run(pre, cfg.scheme, cfg.run)

    status_col = ["running"] * len(trace.iterations)
    status_col[-1] = trace.status
    final = trace.final_state
    _write_tables(cfg, [
        ("trace.csv", ["iter", "elbo", "step_sup_norm", "status"],
         zip(trace.iterations, trace.elbo, trace.step_sup_norm, status_col)),
        ("means.csv", ["j", "beta_true", "mu", "alpha"],
         ((j, ds.beta_true[j], final.mu[j], final.alpha[j]) for j in range(ds.p))),
    ])
    svgplot.line_plot(
        os.path.join(cfg.out_dir, "elbo.svg"),
        trace.iterations,
        trace.elbo,
        title=f"{cfg.scheme.variant} trajectory (status: {trace.status})",
        xlabel="iteration",
        ylabel="ELBO",
    )
    idx = np.arange(ds.p)
    svgplot.scatter_plot(
        os.path.join(cfg.out_dir, "means.svg"),
        [
            (idx, final.mu, "variational mean"),
            (idx, ds.beta_true, "true coefficient"),
        ],
        title="final variational means vs truth",
        xlabel="coordinate",
        ylabel="value",
    )
    return trace


def _panel_points(cfg: StudyConfig):
    """Expand the panel selection into (panel, n, p, s) grid points."""
    if cfg.panel == "both" and cfg.explicit_grids:
        raise ConfigError("custom n/p/s grids require --panel left or right")

    def given(name, default):
        return _single(cfg, name) if name in cfg.explicit_grids else default

    if cfg.panel == "left" and "s" in cfg.explicit_grids:
        raise ConfigError("the left panel sets s = p, so it takes no s")
    points = []
    if cfg.panel in ("left", "both"):
        n = given("n", 100)
        p_grid = cfg.p if "p" in cfg.explicit_grids else DEFAULT_LEFT_P_GRID
        points += [("left", n, int(p), int(p)) for p in p_grid]
    if cfg.panel in ("right", "both"):
        n, p = given("n", 200), given("p", 50)
        s_grid = cfg.s if "s" in cfg.explicit_grids else DEFAULT_RIGHT_S_GRID
        points += [("right", n, p, int(s)) for s in s_grid]
    return points


def spectral_replicate(n, p, s, seed, hyper, run_cfg, amplitude=1.0):
    """One spectral-study replicate: fixed point by the sequential engine,
    then both spectral radii and the contraction check. Non-convergence is
    reported through the flag, never raised; a shape, amplitude or
    hyperparameters the model rejects raise ConfigError."""
    with _rejected_as_config_error():
        ds = make_dataset(
            GenSpec(n=n, p=p, s=s, amplitude=amplitude, sigma2=hyper.sigma2, seed=seed)
        )
        pre = precompute(ds, hyper)
    try:
        state = engines.fixed_point(pre, run_cfg)
    except engines.FixedPointError:
        return dict(seq_converged=False, rho_seq=float("nan"), rho_par=float("nan"),
                    assumption1_satisfied=False, core_singular=False, alpha_min=float("nan"))
    report = stability.analyze_stability(state.mu, pre)
    return dict(
        seq_converged=True,
        rho_seq=report.rho_seq,
        rho_par=report.rho_par,
        assumption1_satisfied=report.assumption1.satisfied,
        core_singular="core_not_positive_definite" in report.assumption1.flags,
        alpha_min=float(np.min(state.alpha)),
    )


def cmd_spectral_study(cfg: StudyConfig):
    """Replicated spectral radii over the panel grids; CSV plus box plots.

    A replicate's row is :func:`spectral_replicate`'s dict of scalars with
    its point, index, seed and log radii added; ``rho.csv`` holds the columns
    of ``header``. Each grid point's two boxes are the ``log_rho_seq`` and
    ``log_rho_par`` of its rows whose ``seq_converged`` is true, and the two
    notes count over all rows."""
    points = _panel_points(cfg)
    # reject a bad grid point before the first replicate runs
    with _rejected_as_config_error():
        for _, n, p, s in points:
            GenSpec(n=n, p=p, s=s, amplitude=cfg.amplitude, sigma2=cfg.hyper.sigma2)
    header = [
        "panel", "n", "p", "s", "replicate", "seed",
        "rho_seq", "log_rho_seq", "rho_par", "log_rho_par",
        "seq_converged", "assumption1_satisfied",
    ]

    def replicate(point, r, seed):
        # a module global looked up per call: the benchmark swaps in a timed one
        row = spectral_replicate(*point[1:], seed, cfg.hyper, cfg.run, cfg.amplitude)
        row.update(zip(header[:6], (*point, r, seed)))
        for scheme in ("seq", "par"):
            rho = row[f"rho_{scheme}"]
            row[f"log_rho_{scheme}"] = math.log(rho) if rho > 0 else float("nan")
        return row

    by_point = _study(cfg, points, replicate)
    groups = []
    for (panel, n, p, s), point_rows in zip(points, by_point):
        tag = f"p={p}" if panel == "left" else f"s={s}"
        for scheme, color in (("seq", 1), ("par", 0)):
            logs = [row[f"log_rho_{scheme}"] for row in point_rows if row["seq_converged"]]
            groups.append((f"{panel} {tag} {scheme}", logs, color))
    every = [row for point_rows in by_point for row in point_rows]
    rows = [tuple(row[name] for name in header) for row in every]
    _write_tables(cfg, [("rho.csv", header, rows)])
    svgplot.box_plot(
        os.path.join(cfg.out_dir, "rho_boxplot.svg"),
        groups,
        title="log spectral radius by scheme and grid point",
        xlabel="grid point",
        ylabel="log rho",
    )
    n_failed = sum(not row["seq_converged"] for row in every)
    n_singular = sum(row["core_singular"] for row in every)
    if n_failed:
        print(f"note: {n_failed} replicate(s) did not converge and are excluded from boxplots")
    if n_singular:
        print(
            f"note: {n_singular} replicate(s) flagged core_not_positive_definite: the scaled "
            "Gram core could not be factored, so assumption1_satisfied reads false"
        )
    return rows


def cmd_verify(cfg: StudyConfig) -> int:
    """Run the oracle suite, write verify.csv, and return the exit status."""
    results = verify.run_checks(seed=cfg.master_seed, progress=lambda m: print(f"verify: {m}"))
    _write_tables(cfg, [("verify.csv", ["name", "metric", "threshold", "pass"], results)])
    failed = [r.name for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  metric={r.metric:.3g}")
    if failed:
        print(f"FAILED checks: {', '.join(failed)}")
        return 1
    return 0


def cmd_wigner_check(cfg: StudyConfig):
    """Replicated :func:`stability.wigner_stat`, the saturated parallel radius,
    over the (n, p) pairs, n-major; each pair's summary quantiles are read
    from its rows."""
    points = [(int(n), int(p)) for n in cfg.n for p in cfg.p]
    for n, p in points:
        if not 2 <= p <= n:
            raise ConfigError(f"wigner-check needs 2 <= p <= n, got n={n}, p={p}")
    tau = cfg.hyper.tau

    def replicate(point, r, seed):
        X = gen_design(GenSpec(n=point[0], p=point[1], s=0, seed=seed))
        stat = stability.wigner_stat(X, tau)
        return (*point, tau, seed, stat.norm, stat.ratio)

    by_point = _study(cfg, points, replicate)
    summaries = [
        (n, p, tau, *np.percentile([ratio for *_, ratio in point_rows], [0, 25, 50, 75, 100]))
        for (n, p), point_rows in zip(points, by_point)
    ]
    rows = [row for point_rows in by_point for row in point_rows]
    _write_tables(cfg, [
        ("wigner.csv", ["n", "p", "tau", "seed", "norm", "ratio"], rows),
        ("wigner_summary.csv", ["n", "p", "tau", "ratio_min", "ratio_q25", "ratio_median",
                                "ratio_q75", "ratio_max"], summaries),
    ])
    return rows


def parse_config_file(path: str) -> dict:
    """key = value per line of UTF-8; '#' starts a comment; keys use flag names.

    A key may appear once: after ``-`` becomes ``_``, a second line for the
    same key is invalid configuration rather than a silent replacement.
    """
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                key = key.strip().lower().replace("-", "_")
                if key in values:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
                values[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values
