"""One-sweep update maps for both CAVI schemes and the iteration driver.

The sequential scheme reuses freshly updated coordinates within a sweep
(Gauss-Seidel ordering); the parallel scheme updates every coordinate from the
previous iterate (Jacobi ordering). Both sweeps freeze the inclusion
probabilities at their entry values (the mu-block map), so a sequential sweep
is one lower-triangular solve with T = D + L diag(alpha). The per-coordinate
map, which refreshes each probability right after its own mean, shares the
fixed points but is not shipped; :func:`sscavi.verify.coordinate_seq_sweep` is
its reference. Both schemes become linear splitting iterations for the ridge
system when the inclusion probabilities are pinned to one.

The two maps share their fixed points; :func:`sweep_residuals` is the one
place either map's residual at a point is computed.

The sequential sweep is a forward substitution by blocks of ``_BLOCK`` = 256
coordinates on the stored Gram triangle: every block after the first
subtracts one GEMV over the means already solved, and each block solves its
own diagonal block of T with ``dtrsv``, so no p x p array is written per
sweep above 256 coordinates. Up to 256 coordinates there is one block, whose
``dtrsv`` gets the whole T and right-hand side, so the sweep is one
whole-system solve bit for bit. Timed at fixed points with one OpenBLAS
thread on a 2-vCPU x86_64 machine (``BENCH_12.json``), blocks of 64 or 128
were 12-18% faster than 256 at p = 400 and 1000, but blocks of 64 were
slower than one solve at p = 200 (0.079 against 0.063 ms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg.blas import dsymv, dtrsv

from .model import (
    Dataset,
    Hyperparams,
    Precomputed,
    VariationalState,
    elbo as _elbo,
    inclusion_prob,
    precompute,
)

__all__ = [
    "Scheme",
    "RunConfig",
    "RunTrace",
    "FixedPointError",
    "seq_sweep",
    "seq_sweep_system",
    "par_sweep",
    "sweep_residuals",
    "run",
    "fixed_point",
]

SEQUENTIAL = "sequential"
PARALLEL = "parallel"
# the initial means RunConfig accepts: all zeros, or the diagonal least-squares xty / d
INITS = ("zero", "diagls")
# coordinates per block of the sequential sweep's forward substitution (module docstring)
_BLOCK = 256


@dataclass(frozen=True)
class Scheme:
    """Update order: the frozen-probability Gauss-Seidel sweep or the Jacobi sweep."""

    variant: str = SEQUENTIAL

    def __post_init__(self):
        if self.variant not in (SEQUENTIAL, PARALLEL):
            raise ValueError(f"variant must be {SEQUENTIAL!r} or {PARALLEL!r}")


@dataclass(frozen=True)
class RunConfig:
    max_iter: int = 1000
    tol: float = 1e-8
    divergence_threshold: float = 1e8
    init: str = "diagls"  # one of INITS

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not (0.0 < self.tol < self.divergence_threshold):
            raise ValueError("need 0 < tol < divergence_threshold")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class RunTrace:
    """Terminal status, iteration count and final state of one iteration.

    :func:`run` also records the per-iteration ELBO and step norms:
    ``elbo[k]``/``step_sup_norm[k]`` belong to iteration ``iterations[k]``;
    index 0 records the initial state (its step norm is NaN). The trace of a
    :class:`FixedPointError` leaves these lists empty.
    """

    status: str  # "converged" | "max_iter" | "diverged"
    n_iter: int
    final_state: VariationalState
    iterations: list = field(default_factory=list)
    elbo: list = field(default_factory=list)
    step_sup_norm: list = field(default_factory=list)


class FixedPointError(RuntimeError):
    """Sequential iteration failed to reach a fixed point.

    ``trace`` carries the status, iteration count and final state of the
    sequential run; its per-iteration lists are empty, since
    :func:`fixed_point` records no ELBO or step history.
    """

    def __init__(self, message: str, trace: RunTrace):
        super().__init__(message)
        self.trace = trace


def _resolve_alpha(mu, pre, hyper, alpha_override):
    if alpha_override is not None:
        return np.ascontiguousarray(alpha_override, dtype=np.float64)
    return inclusion_prob(mu, pre.a, hyper)


def seq_sweep_system(alpha, pre: Precomputed, block: slice) -> np.ndarray:
    """The diagonal ``block`` of the sequential sweep's system T = D + L diag(alpha).

    L is the strict lower Gram triangle, so T is lower triangular;
    ``slice(None)`` gives the whole p x p system.
    """
    sweep_sys = pre.xtx_lower[block, block] * alpha[block]
    np.fill_diagonal(sweep_sys, pre.d[block])
    return sweep_sys


def seq_sweep(mu, pre: Precomputed, hyper: Hyperparams, alpha_override=None) -> np.ndarray:
    """One sequential sweep starting from ``mu``.

    The probabilities stay frozen at their entry values, so the sweep is one
    Gauss-Seidel step: it solves the lower-triangular system
    ``(D + L diag(alpha)) mu' = xty - L^T (alpha * mu)``, L the strict lower
    Gram triangle, by blocks of ``_BLOCK`` coordinates: block k subtracts
    ``L[k, :k] (alpha * mu')[:k]`` (one GEMV on the means already solved;
    the first block has none), builds only its own diagonal block of the
    system and solves it with ``dtrsv``. No p x p array is written above
    ``_BLOCK`` coordinates; up to that, the one block is the whole system.
    ``alpha_override`` pins the probabilities explicitly (e.g.
    all ones for the ridge degeneracy). Non-finite inputs give non-finite
    outputs rather than an exception, so :func:`run` can report them as
    divergence.
    """
    mu = np.ascontiguousarray(mu, dtype=np.float64)
    alpha = _resolve_alpha(mu, pre, hyper, alpha_override)
    rhs = pre.xty - pre.xtx_lower.T @ (alpha * mu)
    low = pre.xtx_lower
    for start in range(0, pre.p, _BLOCK):
        block = slice(start, start + _BLOCK)
        # rhs[:start] already holds the new means; the first block has none, and
        # skipping its empty GEMV saves about 4 us of a 15 us sweep at p = 50
        if start:
            rhs[block] -= low[block, :start] @ (alpha[:start] * rhs[:start])
        # the block's transpose is a Fortran-ordered upper triangle: solve it transposed, no copy
        rhs[block] = dtrsv(seq_sweep_system(alpha, pre, block).T, rhs[block], lower=0, trans=1)
    return rhs


def par_sweep(
    mu, pre: Precomputed, hyper: Hyperparams, alpha_override=None
) -> np.ndarray:
    """One parallel sweep starting from ``mu``: D^{-1}(xty - (L + L^T)(alpha * mu))."""
    mu = np.ascontiguousarray(mu, dtype=np.float64)
    alpha = _resolve_alpha(mu, pre, hyper, alpha_override)
    # the stored triangle, read as the upper triangle of its Fortran-ordered transpose
    coupled = dsymv(1.0, pre.xtx_lower.T, alpha * mu, lower=0)
    return (pre.xty - coupled) / pre.d


def sweep_residuals(mu, alpha, pre: Precomputed, hyper: Hyperparams):
    """Sup-norm residuals ``(seq, par)`` of both sweeps at ``mu``, with ``alpha`` frozen."""
    seq = seq_sweep(mu, pre, hyper, alpha_override=alpha)
    par = par_sweep(mu, pre, hyper, alpha_override=alpha)
    return float(np.max(np.abs(seq - mu))), float(np.max(np.abs(par - mu)))


def _initial_mu(cfg: RunConfig, pre: Precomputed) -> np.ndarray:
    if cfg.init == "zero":
        return np.zeros(pre.p)
    return pre.xty / pre.d


def _iterate(mu, alpha, sweep, alpha_of, cfg: RunConfig, record=None):
    """Iterate ``mu <- sweep(mu, alpha)`` under the one stop rule of both drivers.

    ``alpha`` is the inclusion probability of the entry iterate and
    ``alpha_of`` recomputes it once per new iterate, so each sweep reuses the
    probabilities the previous step evaluated. The iteration has converged
    when the sup norm of the mean update falls below ``cfg.tol``, has diverged
    on a non-finite iterate or one whose sup norm exceeds
    ``cfg.divergence_threshold``, and otherwise stops at ``cfg.max_iter``.
    ``record(t, mu, alpha, step, finite)``, when given, sees every iterate.
    Returns ``(status, n_iter, mu, alpha)``.
    """
    for t in range(1, cfg.max_iter + 1):
        mu_new = sweep(mu, alpha)
        finite = bool(np.all(np.isfinite(mu_new)))
        step = float(np.max(np.abs(mu_new - mu))) if finite else float("nan")
        mu = mu_new
        alpha = alpha_of(mu)
        if record is not None:
            record(t, mu, alpha, step, finite)
        if not finite or np.max(np.abs(mu)) > cfg.divergence_threshold:
            return "diverged", t, mu, alpha
        if step < cfg.tol:
            return "converged", t, mu, alpha
    return "max_iter", cfg.max_iter, mu, alpha


def run(
    dataset: Dataset,
    hyper: Hyperparams,
    scheme: Scheme = Scheme(),
    cfg: RunConfig = RunConfig(),
    pre: Optional[Precomputed] = None,
    pin_alpha: bool = False,
) -> RunTrace:
    """Iterate the selected sweep until convergence, divergence, or max_iter.

    The stop rule is :func:`_iterate`'s; divergence is a normal return rather
    than an exception. The ELBO is evaluated at the initial state and after
    every sweep. ``pin_alpha`` freezes every inclusion probability at one,
    reducing both schemes to classical linear splitting iterations for the
    ridge system.
    """
    if pre is None:
        pre = precompute(dataset, hyper)
    alpha_override = np.ones(pre.p) if pin_alpha else None

    def alpha_of(mu):
        return _resolve_alpha(mu, pre, hyper, alpha_override)

    def sweep(mu, alpha):
        if scheme.variant == PARALLEL:
            return par_sweep(mu, pre, hyper, alpha_override=alpha)
        return seq_sweep(mu, pre, hyper, alpha_override=alpha)

    iterations, elbos, steps = [], [], []

    def record(t, mu, alpha, step, finite):
        iterations.append(t)
        elbos.append(
            _elbo(VariationalState(mu, alpha), dataset, hyper, pre) if finite else float("nan")
        )
        steps.append(step)

    mu = _initial_mu(cfg, pre)
    alpha = alpha_of(mu)
    record(0, mu, alpha, float("nan"), True)
    status, n_iter, mu, alpha = _iterate(mu, alpha, sweep, alpha_of, cfg, record)
    return RunTrace(status, n_iter, VariationalState(mu, alpha), iterations, elbos, steps)


def fixed_point(
    dataset: Dataset,
    hyper: Hyperparams,
    cfg: RunConfig = RunConfig(),
    pre: Optional[Precomputed] = None,
) -> VariationalState:
    """Converge the sequential scheme and certify the result as a fixed point.

    The frozen-probability sequential sweep runs under :func:`_iterate`'s stop
    rule with no ELBO and no per-iteration state or trace. Both schemes share
    their fixed points, so the returned state must leave each one-sweep map
    nearly invariant: residuals below ``10 * cfg.tol`` in sup norm, checked
    once at the converged iterate by :func:`sweep_residuals`. Failure to
    converge, or a residual that misses the target, raises
    :class:`FixedPointError`; its trace carries the status, the iteration
    count and the final iterate of the sequential run, and empty
    per-iteration lists.
    """
    if pre is None:
        pre = precompute(dataset, hyper)

    def alpha_of(mu):
        return inclusion_prob(mu, pre.a, hyper)

    def sweep(mu, alpha):
        return seq_sweep(mu, pre, hyper, alpha_override=alpha)

    mu = _initial_mu(cfg, pre)
    status, n_iter, mu, alpha = _iterate(mu, alpha_of(mu), sweep, alpha_of, cfg)
    trace = RunTrace(status, n_iter, VariationalState(mu, alpha))
    if status != "converged":
        raise FixedPointError(f"sequential iteration did not converge (status {status})", trace)

    target = 10.0 * cfg.tol
    seq_res, par_res = sweep_residuals(mu, alpha, pre, hyper)
    if not (seq_res < target and par_res < target):
        raise FixedPointError(
            f"fixed-point residuals (sequential {seq_res:.3g}, parallel {par_res:.3g}) "
            f"missed the target {target:.3g}",
            trace,
        )
    return VariationalState(mu, alpha)
