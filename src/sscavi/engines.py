"""One-sweep update maps for both CAVI schemes and the iteration driver.

The sequential scheme reuses freshly updated coordinates within a sweep
(Gauss-Seidel ordering); the parallel scheme updates every coordinate from the
previous iterate (Jacobi ordering). Both sweeps take the inclusion
probabilities alpha from the caller and hold them frozen (the mu-block map),
so a sequential sweep is one lower-triangular solve with T = D + L diag(alpha);
the drivers evaluate alpha at each entry iterate. Both drivers take the
:class:`Precomputed` of one ``precompute`` call and nothing else of the
problem; :func:`run`'s ELBO reads the data and the prior from it too. The
per-coordinate map, which refreshes each probability right after its own
mean, shares the fixed points but is not shipped;
:func:`sscavi.verify.coordinate_seq_sweep` is its reference. Both schemes
become linear splitting iterations for the ridge system when the inclusion
probabilities are pinned to one.

The two maps share their fixed points; :func:`sweep_residuals` is the one
place either map's residual at a point is computed.

The sequential sweep is a forward substitution by blocks of ``_BLOCK`` = 256
coordinates on the stored Gram triangle. Its right-hand side
xty - L^T (alpha * mu) is one ``dtrmv`` that reads only the triangle; every
block after the first subtracts one GEMV over the means already solved, and
each block solves its own diagonal block of T with ``dtrsv``, so no p x p
array is written per sweep above 256 coordinates. Up to 256 coordinates
there is one block: T is built from the whole stored triangle, unsliced, and
one ``dtrsv`` on the whole right-hand side returns the sweep, a
whole-system solve bit for bit. Timed at fixed points with
one OpenBLAS thread on a 2-vCPU x86_64 machine (``BENCH_12.json``), blocks
of 64 or 128 were 12-18% faster than 256 at p = 400 and 1000, but blocks of
64 were slower than one solve at p = 200 (0.079 against 0.063 ms).

At the default study's sizes the iteration is bound by per-call overhead,
not by BLAS (``BENCH_23.json``), so the one-block path forms T without
slicing the stored triangle, alpha reads the prior log-odds ``precompute``
stores, and the stop rule's step is one reduction whose finiteness certifies
the iterate; the divergence threshold reads |mu| in a second reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np
from scipy.linalg.blas import dsymv, dtrmv, dtrsv

from .model import Precomputed, VariationalState, elbo as _elbo, inclusion_prob

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
    divergence_threshold: ClassVar[float] = 1e8
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
    ``elbo[k]``/``step_sup_norm[k]`` belong to iteration k, and index 0
    records the initial state (its step norm is NaN). The trace of a
    :class:`FixedPointError` leaves these lists empty.
    """

    status: str  # "converged" | "max_iter" | "diverged"
    n_iter: int
    final_state: VariationalState
    elbo: list = field(default_factory=list)
    step_sup_norm: list = field(default_factory=list)

    @property
    def iterations(self) -> list:
        """The iteration of each recorded entry: 0, 1, ..., len(elbo) - 1."""
        return list(range(len(self.elbo)))


class FixedPointError(RuntimeError):
    """Sequential iteration failed to reach a fixed point.

    ``trace`` carries the status, iteration count and final state of the
    sequential run; its per-iteration lists are empty, since
    :func:`fixed_point` records no ELBO or step history.
    """

    def __init__(self, message: str, trace: RunTrace):
        super().__init__(message)
        self.trace = trace


def seq_sweep_system(alpha, pre: Precomputed, block: Optional[slice] = None) -> np.ndarray:
    """The sequential sweep's system T = D + L diag(alpha), or its diagonal ``block``.

    L is the strict lower Gram triangle, so T is lower triangular. With no
    ``block``, T is built from the whole stored triangle without slicing it.
    The diagonal is one strided write into the fresh C-ordered product.
    """
    low, d = pre.xtx_lower, pre.d
    if block is not None:
        low, alpha, d = low[block, block], alpha[block], d[block]
    sweep_sys = low * alpha
    sweep_sys.reshape(-1)[:: d.shape[0] + 1] = d
    return sweep_sys


def seq_sweep(mu, alpha, pre: Precomputed) -> np.ndarray:
    """One sequential sweep starting from ``mu``, with the probabilities frozen at ``alpha``.

    The sweep is one Gauss-Seidel step: it solves the lower-triangular system
    ``(D + L diag(alpha)) mu' = xty - L^T (alpha * mu)``, L the strict lower
    Gram triangle, whose right-hand side is one ``dtrmv`` on the stored
    triangle. Up to ``_BLOCK`` coordinates the system is one block, solved
    whole by one ``dtrsv``. Above that it is solved by blocks of ``_BLOCK``
    coordinates: block k subtracts ``L[k, :k] (alpha * mu')[:k]`` (one GEMV
    on the means already solved; the first block has none), builds only its
    own diagonal block of the system and solves it with ``dtrsv``, so no
    p x p array is written.
    Non-finite inputs give non-finite outputs rather than an exception, so
    :func:`run` can report them as divergence.
    """
    mu = np.ascontiguousarray(mu, dtype=np.float64)
    low = pre.xtx_lower
    # L^T, read as the upper triangle of the Fortran-ordered transpose
    rhs = pre.xty - dtrmv(low.T, alpha * mu)
    # every transposed system below is a Fortran-ordered upper triangle: solved transposed, no copy
    if pre.p <= _BLOCK:
        # one block; the loop's slices and write-back would add ~2 us to a 12 us sweep at p = 50
        return dtrsv(seq_sweep_system(alpha, pre).T, rhs, lower=0, trans=1)
    for start in range(0, pre.p, _BLOCK):
        block = slice(start, start + _BLOCK)
        if start:
            rhs[block] -= low[block, :start] @ (alpha[:start] * rhs[:start])
        rhs[block] = dtrsv(seq_sweep_system(alpha, pre, block).T, rhs[block], lower=0, trans=1)
    return rhs


def par_sweep(mu, alpha, pre: Precomputed) -> np.ndarray:
    """One parallel sweep starting from ``mu``: D^{-1}(xty - (L + L^T)(alpha * mu))."""
    mu = np.ascontiguousarray(mu, dtype=np.float64)
    # the stored triangle, read as the upper triangle of its Fortran-ordered transpose
    coupled = dsymv(1.0, pre.xtx_lower.T, alpha * mu, lower=0)
    return (pre.xty - coupled) / pre.d


def sweep_residuals(mu, alpha, pre: Precomputed):
    """Sup-norm residuals of both sweeps at ``mu``, with ``alpha`` frozen.

    Returns ``(seq, par, swept)``: the two residuals and the sequential sweep
    S(mu) they were measured from, which the sequential Jacobian reuses.
    """
    swept = seq_sweep(mu, alpha, pre)
    par = par_sweep(mu, alpha, pre)
    return float(np.max(np.abs(swept - mu))), float(np.max(np.abs(par - mu))), swept


def _iterate(sweep, pre: Precomputed, cfg: RunConfig, record=None):
    """Iterate ``mu <- sweep(mu, alpha, pre)`` from ``cfg.init`` under both drivers' stop rule.

    ``alpha`` is the inclusion probability of the entry iterate, evaluated once
    per iterate from the stored prior log-odds, so each sweep reuses the
    probabilities the previous step evaluated. The iteration has converged
    when the sup norm of the mean update falls below ``cfg.tol``, has diverged
    on a non-finite iterate or one whose sup norm exceeds
    ``cfg.divergence_threshold``, and otherwise stops at ``cfg.max_iter``.
    The step is one reduction: a finite step certifies a finite iterate, and
    only a step that is not finite asks whether the iterate is.
    ``record(t, mu, alpha, step, finite)``, when given, sees the initial
    state (t = 0, step NaN) and every iterate.
    Returns ``(status, n_iter, mu, alpha)``.
    """
    mu = np.zeros(pre.p) if cfg.init == "zero" else pre.xty / pre.d
    alpha = inclusion_prob(mu, pre.a, pre.prior_logit)
    if record is not None:
        record(0, mu, alpha, math.nan, True)
    for t in range(1, cfg.max_iter + 1):
        mu_new = sweep(mu, alpha, pre)
        step = float(np.abs(mu_new - mu).max())
        finite = math.isfinite(step) or bool(np.isfinite(mu_new).all())
        if not finite:
            step = math.nan
        mu = mu_new
        alpha = inclusion_prob(mu, pre.a, pre.prior_logit)
        if record is not None:
            record(t, mu, alpha, step, finite)
        if not finite or np.abs(mu).max() > cfg.divergence_threshold:
            return "diverged", t, mu, alpha
        if step < cfg.tol:
            return "converged", t, mu, alpha
    return "max_iter", cfg.max_iter, mu, alpha


def run(pre: Precomputed, scheme: Scheme = Scheme(), cfg: RunConfig = RunConfig()) -> RunTrace:
    """Iterate the selected sweep until convergence, divergence, or max_iter.

    The stop rule is :func:`_iterate`'s; divergence is a normal return rather
    than an exception. The ELBO is evaluated at the initial state and after
    every sweep.
    """
    sweep = par_sweep if scheme.variant == PARALLEL else seq_sweep
    elbos, steps = [], []

    def record(t, mu, alpha, step, finite):
        elbos.append(_elbo(VariationalState(mu, alpha), pre) if finite else float("nan"))
        steps.append(step)

    status, n_iter, mu, alpha = _iterate(sweep, pre, cfg, record)
    return RunTrace(status, n_iter, VariationalState(mu, alpha), elbos, steps)


def fixed_point(pre: Precomputed, cfg: RunConfig = RunConfig()) -> VariationalState:
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
    status, n_iter, mu, alpha = _iterate(seq_sweep, pre, cfg)
    trace = RunTrace(status, n_iter, VariationalState(mu, alpha))
    if status != "converged":
        raise FixedPointError(f"sequential iteration did not converge (status {status})", trace)

    target = 10.0 * cfg.tol
    seq_res, par_res, _ = sweep_residuals(mu, alpha, pre)
    if not (seq_res < target and par_res < target):
        raise FixedPointError(
            f"fixed-point residuals (sequential {seq_res:.3g}, parallel {par_res:.3g}) "
            f"missed the target {target:.3g}",
            trace,
        )
    return VariationalState(mu, alpha)
