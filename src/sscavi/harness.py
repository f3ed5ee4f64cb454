"""Study drivers and file I/O behind the command-line interface.

Every command is a pure function of its :class:`StudyConfig`: reruns with the
same master seed reproduce byte-identical CSVs. Floats are serialized with 17
significant digits for lossless round trips; SVG plots are conveniences and
everything quantitative lives in the CSVs.
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

__all__ = [
    "StudyConfig",
    "ConfigError",
    "cmd_gen_data",
    "cmd_run_example",
    "cmd_spectral_study",
    "cmd_verify",
    "cmd_wigner_check",
    "parse_config_file",
    "write_csv",
]

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


def _ensure_out(cfg: StudyConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


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
    out = _ensure_out(cfg)
    paths = []
    columns = {"X.csv": ds.X, "y.csv": ds.y[:, None], "beta.csv": ds.beta_true[:, None]}
    for name, arr in columns.items():
        paths.append(os.path.join(out, name))
        write_csv(paths[-1], None, arr)
    return paths


def cmd_run_example(cfg: StudyConfig):
    """Run one trajectory and dump its trace, final means, and two plots."""
    ds = _single_dataset(cfg)
    with _rejected_as_config_error():
        pre = precompute(ds, cfg.hyper)
    out = _ensure_out(cfg)
    trace = engines.run(ds, cfg.hyper, cfg.scheme, cfg.run, pre=pre)

    status_col = ["running"] * len(trace.iterations)
    status_col[-1] = trace.status
    write_csv(
        os.path.join(out, "trace.csv"),
        ["iter", "elbo", "step_sup_norm", "status"],
        zip(trace.iterations, trace.elbo, trace.step_sup_norm, status_col),
    )
    final = trace.final_state
    write_csv(
        os.path.join(out, "means.csv"),
        ["j", "beta_true", "mu", "alpha"],
        (
            (j, ds.beta_true[j], final.mu[j], final.alpha[j])
            for j in range(ds.p)
        ),
    )
    svgplot.line_plot(
        os.path.join(out, "elbo.svg"),
        trace.iterations,
        trace.elbo,
        title=f"{cfg.scheme.variant} trajectory (status: {trace.status})",
        xlabel="iteration",
        ylabel="ELBO",
    )
    idx = np.arange(ds.p)
    svgplot.scatter_plot(
        os.path.join(out, "means.svg"),
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
        state = engines.fixed_point(ds, hyper, run_cfg, pre=pre)
    except engines.FixedPointError:
        return dict(seq_converged=False, rho_seq=float("nan"), rho_par=float("nan"),
                    assumption1_satisfied=False, core_singular=False, alpha_min=float("nan"))
    report = stability.analyze_stability(state.mu, pre, hyper)
    return dict(
        seq_converged=True,
        rho_seq=report.rho_seq,
        rho_par=report.rho_par,
        assumption1_satisfied=report.assumption1.satisfied,
        core_singular="core_not_positive_definite" in report.assumption1.flags,
        alpha_min=float(np.min(state.alpha)),
    )


def cmd_spectral_study(cfg: StudyConfig):
    """Replicated spectral radii over the panel grids; CSV plus box plots."""
    points = _panel_points(cfg)
    # reject a bad grid point before the first replicate runs
    with _rejected_as_config_error():
        for _, n, p, s in points:
            GenSpec(n=n, p=p, s=s, amplitude=cfg.amplitude, sigma2=cfg.hyper.sigma2)
    out = _ensure_out(cfg)
    rows = []
    groups = []
    n_singular = 0
    for panel, n, p, s in points:
        # log radii of the converged replicates, for this grid point's boxes
        log_seq, log_par = [], []
        for r in range(cfg.replications):
            seed = replicate_seed(cfg.master_seed, r)
            res = spectral_replicate(n, p, s, seed, cfg.hyper, cfg.run, cfg.amplitude)
            n_singular += res["core_singular"]
            log_rho_seq = math.log(res["rho_seq"]) if res["rho_seq"] > 0 else float("nan")
            log_rho_par = math.log(res["rho_par"]) if res["rho_par"] > 0 else float("nan")
            rows.append(
                (
                    panel, n, p, s, r, seed,
                    res["rho_seq"], log_rho_seq, res["rho_par"], log_rho_par,
                    res["seq_converged"],
                    res["assumption1_satisfied"],
                )
            )
            if res["seq_converged"]:
                log_seq.append(log_rho_seq)
                log_par.append(log_rho_par)
        tag = f"p={p}" if panel == "left" else f"s={s}"
        groups += [(f"{panel} {tag} seq", log_seq, 1), (f"{panel} {tag} par", log_par, 0)]
    header = [
        "panel", "n", "p", "s", "replicate", "seed",
        "rho_seq", "log_rho_seq", "rho_par", "log_rho_par",
        "seq_converged", "assumption1_satisfied",
    ]
    write_csv(os.path.join(out, "rho.csv"), header, rows)
    svgplot.box_plot(
        os.path.join(out, "rho_boxplot.svg"),
        groups,
        title="log spectral radius by scheme and grid point",
        xlabel="grid point",
        ylabel="log rho",
    )
    n_failed = sum(not converged for *_, converged, _ in rows)
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
    out = _ensure_out(cfg)
    results = verify.run_checks(seed=cfg.master_seed, progress=lambda m: print(f"verify: {m}"))
    write_csv(
        os.path.join(out, "verify.csv"),
        ["name", "metric", "threshold", "pass"],
        results,
    )
    failed = [r.name for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  metric={r.metric:.3g}")
    if failed:
        print(f"FAILED checks: {', '.join(failed)}")
        return 1
    return 0


def cmd_wigner_check(cfg: StudyConfig):
    """Replicated normalized-Gram spectral norms over the (n, p) grid."""
    points = [(int(n), int(p)) for n in cfg.n for p in cfg.p]
    for n, p in points:
        if not 2 <= p <= n:
            raise ConfigError(f"wigner-check needs 2 <= p <= n, got n={n}, p={p}")
    out = _ensure_out(cfg)
    tau = cfg.hyper.tau
    rows = []
    summaries = []
    for n, p in points:
        ratios = []
        for r in range(cfg.replications):
            seed = replicate_seed(cfg.master_seed, r)
            X = gen_design(GenSpec(n=n, p=p, s=0, seed=seed))
            stat = stability.wigner_stat(X, tau)
            rows.append((n, p, tau, seed, stat.norm, stat.ratio))
            ratios.append(stat.ratio)
        qs = np.percentile(ratios, [0, 25, 50, 75, 100])
        summaries.append((n, p, tau, *qs))
    write_csv(
        os.path.join(out, "wigner.csv"),
        ["n", "p", "tau", "seed", "norm", "ratio"],
        rows,
    )
    write_csv(
        os.path.join(out, "wigner_summary.csv"),
        ["n", "p", "tau", "ratio_min", "ratio_q25", "ratio_median", "ratio_q75", "ratio_max"],
        summaries,
    )
    return rows


def parse_config_file(path: str) -> dict:
    """key = value per line; '#' starts a comment; keys use flag names."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                values[key.strip().lower().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values
