"""Local stability operators for the two update maps.

Analytic Jacobians of the one-sweep maps mu -> sweep(mu, alpha(mu)), stated
once as :func:`sscavi.verify.sweep_map`, spectral radii, the quadratic-form
contraction check (Assumption 1), and the Wigner statistic that drives
parallel instability under Gaussian designs. Every analysis at a mean takes
``(mu_star, pre)``: the maps depend on the hyperparameters only through
:class:`Precomputed`, and alpha(mu) is evaluated from the stored prior
log-odds ``pre.prior_logit``. A mean that is not finite or not of shape
(p,) raises ``ValueError``. The parallel radius is the
radius of the scaled coupling R (L + L^T) R (:func:`_coupling_radius`), and
the Wigner statistic is that radius with every probability saturated, the
ridge-Jacobi radius, near the Marchenko-Pastur edge gamma + 2 sqrt(gamma),
gamma = p/n, for Gaussian designs. The
parallel radius and the contraction check run on symmetric operators; only
the sequential radius needs a nonsymmetric eigensolver. Each radius needs
only the eigenvalue of largest modulus. From ``_KRYLOV_MIN_P`` = 100
coordinates up it comes from ARPACK (``scipy.sparse.linalg``: k = 1,
which = "LM", v0 = ones, tol = 1e-13, ncv = 20, at most 100 restarts):
Arnoldi (``eigs``) for the sequential radius, Lanczos (``eigsh``) for the
parallel one. Below that size, and whenever ARPACK raises ``ArpackError``
(no convergence, or a zero Krylov vector for a zero operator), the dense
solver of the same matrix gives the radius: ``eigvals`` or ``eigvalsh``.
The sequential radius runs Arnoldi on the Jacobian operator v -> J_seq v
(two ``dtrmv`` on the stored Gram triangle and one ``dtrsv`` on the sweep
system), so no dense J_seq is formed from ``_KRYLOV_MIN_P`` up;
:func:`jacobian_seq` is that operator's dense form, the matrix of the dense
path and of the oracles. :func:`_krylov_radius` is the one place this
dispatch happens; :func:`spectral_radius` is a dense oracle outside it.
The crossover, measured with one BLAS thread as the median time of both
radii together while Arnoldi still ran on a dense J_seq: dense 2.0 ms
against ARPACK 2.1 ms at p = 75, and 4.2 ms against 2.2 ms at p = 100
(Arnoldi alone wins from p = 75, Lanczos alone from about p = 150). A
dense eigensolver that fails raises ``LinAlgError``.
The contraction check takes its two top eigenvalues the same way, each
path on the same operator: delta_quad on K K^T with K = Lc^{-1} B C, the
scaled core factored once as C = Lc Lc^T, and the coupling norm on Ls^T Ls. Its
smallest eigenvalue is bounded by Weyl's inequality and solved for only
when that bound is not enough (:func:`check_assumption1`). The independent
oracles for these operators live in :mod:`sscavi.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, cholesky, eigvalsh, solve_triangular
from scipy.linalg.blas import dsymv, dtrmm, dtrmv, dtrsm, dtrsv

from . import engines
from .model import (
    Dataset,
    Hyperparams,
    Precomputed,
    inclusion_prob,
    inclusion_prob_grad,
    precompute,
)

__all__ = [
    "Assumption1Result",
    "StabilityReport",
    "WignerStat",
    "jacobian_seq",
    "jacobian_par",
    "spectral_radius",
    "check_assumption1",
    "analyze_stability",
    "wigner_stat",
]

# below this, the squared coupling norm is treated as exactly zero (decoupled design)
_COUPLING_EPS = 1e-14
_ALPHA_CLAMP = 1e-12
_RESIDUAL_TOL = 1e-6
# ARPACK radii from this size up, the dense eigensolvers below it (module docstring)
_KRYLOV_MIN_P = 100


def _linearization(mu_star, pre: Precomputed):
    """The checked mean mu, alpha(mu), its mean-derivative alpha' and w = alpha + alpha' * mu.

    A mean that is not of shape (p,) or not finite raises ``ValueError``.
    diag(w) is the derivative of alpha(mu) * mu, the vector through which the
    entry iterate reaches both sweeps' right-hand sides: the one statement of
    w for both Jacobians and the parallel radius.
    """
    mu = np.asarray(mu_star, dtype=np.float64)
    if mu.shape != (pre.p,):
        raise ValueError(f"mu_star must have shape ({pre.p},), got {mu.shape}")
    if not np.all(np.isfinite(mu)):
        raise ValueError("mu_star must be finite")
    alpha = inclusion_prob(mu, pre.a, pre.prior_logit)
    grad = inclusion_prob_grad(mu, pre.a, alpha)
    return mu, alpha, grad, alpha + grad * mu


def _seq_jacobian_apply(alpha, w, g, pre: Precomputed):
    """The sequential Jacobian as the map v -> J v, from the sweep's linearization.

    This is the package's one sequential map, :func:`engines.seq_sweep`: the
    sweep S(mu) solves T S = xty - L^T (alpha * mu) with T = D + L diag(alpha)
    (:func:`engines.seq_sweep_system`) and alpha = alpha(mu) frozen at the
    entry iterate, so rho_seq is the radius of this map. Differentiating
    that system gives J v = -T^{-1} [L^T (w * v) + L (g * v)], with
    w = alpha + alpha' * mu and g = alpha' * S(mu), exact at any mean, not
    only at fixed points (where S(mu) = mu). T is formed once. A vector v
    costs two ``dtrmv`` on the stored triangle and one ``dtrsv``; a p x k
    block goes through the level-3 forms ``dtrmm`` and ``dtrsm``, so the
    dense Jacobian is one application to the identity. With one OpenBLAS
    thread on a 2-vCPU x86_64 machine, a column loop over the identity took
    0.33 ms at p = 50 against 0.06 ms for the block, and a p x 1 block took
    0.22 ms per Arnoldi step at p = 400 against 0.07 ms for the vector.
    """
    # both triangles read through Fortran-ordered transposes (upper), so nothing is copied
    upper = pre.xtx_lower.T
    system = engines.seq_sweep_system(alpha, pre).T

    def apply(v):
        if v.ndim == 1:
            coupled = dtrmv(upper, w * v)
            coupled += dtrmv(upper, g * v, trans=1)
            return -dtrsv(system, coupled, lower=0, trans=1)
        coupled = dtrmm(1.0, upper, w[:, None] * v)
        coupled += dtrmm(1.0, upper, g[:, None] * v, trans_a=1)
        return dtrsm(-1.0, system, coupled, lower=0, trans_a=1)

    return apply


def jacobian_seq(mu_star, pre: Precomputed) -> np.ndarray:
    """Analytic Jacobian of the frozen-probability sequential sweep at ``mu_star``.

    The dense form of :func:`_seq_jacobian_apply`, the one statement of this
    Jacobian: that map applied to the identity. The dense path of
    :func:`_krylov_radius` in :func:`analyze_stability` takes rho_seq from
    the same dense form, and :mod:`sscavi.verify` and the tests hold the
    Arnoldi radius and the finite-difference Jacobian to this matrix.
    """
    mu_star, alpha, grad, w = _linearization(mu_star, pre)
    swept = engines.seq_sweep(mu_star, alpha, pre)
    return _seq_jacobian_apply(alpha, w, grad * swept, pre)(np.eye(pre.p))


def jacobian_par(mu_star, pre: Precomputed) -> np.ndarray:
    """Analytic Jacobian of the parallel one-sweep map at ``mu_star``.

    Closed form: -D^{-1} (L + L^T) diag(w), w = alpha + alpha' * mu, L the
    strict lower Gram triangle. Production never forms this matrix:
    :func:`analyze_stability` takes rho_par from :func:`_coupling_radius`
    with r = sqrt(w / d), and with every alpha saturated (w = 1) that radius
    is :func:`wigner_stat`. This is the oracle that :mod:`sscavi.verify` and
    the tests hold that radius and the finite-difference Jacobian to.
    """
    _, _, _, w = _linearization(mu_star, pre)
    offdiag_full = pre.xtx_lower + pre.xtx_lower.T
    return -(offdiag_full * w[None, :]) / pre.d[:, None]


def _krylov_radius(matvec, p: int, symmetric: bool, dense_eigvals):
    """Largest eigenvalue modulus of the p x p operator ``matvec``.

    The module's one ARPACK/dense dispatch. From ``_KRYLOV_MIN_P`` coordinates
    up, ARPACK finds it: Lanczos (``eigsh``) when ``symmetric``, else Arnoldi
    (``eigs``), with the fixed parameters of the module docstring, so a rerun
    repeats the result. Below that size, or when ARPACK raises
    ``ArpackError`` (which includes ``ArpackNoConvergence``),
    ``dense_eigvals()`` returns every eigenvalue of the same matrix. The
    crossover was measured while Arnoldi still ran on a dense J_seq (module
    docstring), before the sequential radius moved to the operator.
    """
    if p >= _KRYLOV_MIN_P:
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigs, eigsh

        solve = eigsh if symmetric else eigs
        try:
            # maxiter counts restarts: converged fixed points up to p = 1000 needed at most 17
            top = solve(
                LinearOperator((p, p), matvec=matvec, dtype=np.float64),
                k=1, which="LM", v0=np.ones(p), ncv=20, tol=1e-13, maxiter=100,
                return_eigenvectors=False,
            )
            return float(np.max(np.abs(top)))
        except ArpackError:
            pass
    return float(np.max(np.abs(dense_eigvals())))


def _scaled_triangle(pre: Precomputed, r) -> np.ndarray:
    """The stored Gram triangle scaled to R L R, R = diag(r); raises if not finite.

    Every r carries a factor d^{-1/2}, so r_j r_l overflows where d_j is
    subnormal, and 0 * inf leaves NaN in the triangle.
    """
    scaled = pre.xtx_lower * np.outer(r, r)
    if not np.all(np.isfinite(scaled)):
        raise ValueError("the D^{-1/2}-scaled Gram triangle is not finite")
    return scaled


def _coupling_radius(pre: Precomputed, r) -> float:
    """Largest eigenvalue modulus of R (L + L^T) R, R = diag(r), L the stored triangle.

    With r = sqrt(w / d) and w = alpha + alpha' * mu = alpha (1 + (1 - alpha)
    a mu^2) >= 0, this is the radius of :func:`jacobian_par`: J = -D^{-1}
    (L + L^T) diag(w) has the eigenvalues of -R (L + L^T) R, since
    eig(XY) = eig(YX) (also where some w_j = 0). Only the stored lower
    triangle is scaled; :func:`_krylov_radius` applies it with ``dsymv`` or
    solves it with ``eigvalsh``.
    """
    sym_lower = _scaled_triangle(pre, r)
    return _krylov_radius(
        # the stored triangle, read as the upper triangle of its Fortran-ordered transpose
        lambda v: dsymv(1.0, sym_lower.T, v, lower=0), pre.p, True,
        lambda: eigvalsh(sym_lower, lower=True, overwrite_a=True, check_finite=False),
    )


def spectral_radius(jac: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix: the dense oracle.

    The dense nonsymmetric QR eigensolver (``eigvals``) at every size; no
    production path calls it. A solver that fails to converge raises
    ``LinAlgError``.
    """
    jac = np.asarray(jac, dtype=np.float64)
    if jac.ndim != 2 or jac.shape[0] != jac.shape[1]:
        raise ValueError("spectral_radius expects a square matrix")
    if not np.all(np.isfinite(jac)):
        raise ValueError("spectral_radius expects finite entries")
    return float(np.max(np.abs(np.linalg.eigvals(jac))))


@dataclass
class Assumption1Result:
    """Outcome of the quadratic-form contraction check.

    ``delta_star`` is the smallest constant satisfying both quadratic-form
    conditions (the maximum of the generalized-eigenvalue part and the
    diagonal part); ``satisfied`` requires it to stay strictly below
    ``delta_bound``. A decoupled design (zero coupling norm) makes the bound
    vacuous and is flagged, as is clamped saturation of the probabilities. A
    core too close to singular to factor is a numerical breakdown, flagged
    ``core_not_positive_definite`` with ``satisfied`` false and NaN in the
    quantities it prevents.
    """

    delta_star: float
    delta_bound: float
    satisfied: bool
    delta_quad: float
    delta_diag: float
    coupling_norm_sq: float
    flags: List[str] = field(default_factory=list)


def check_assumption1(mu_star, pre: Precomputed) -> Assumption1Result:
    """Evaluate the contraction conditions at a candidate fixed point.

    The system is rescaled by the sweep normalizer: Ls = D^{-1/2} L D^{-1/2} is
    the scaled strict lower Gram triangle, the core C = Ls + Ls^T + I is
    positive definite by construction (a congruence of the ridge system), and
    the curvature b = mu^2 a (1 - alpha) measures how strongly the
    probabilities react to the means. Probabilities are clamped into
    [_ALPHA_CLAMP, 1 - _ALPHA_CLAMP] (1e-12) first (the inverse-probability
    diagonal is singular at saturation); clamped coordinates are reported
    through the ``alpha_saturated`` flag.

    The core is factored once, C = Lc Lc^T; a core that cannot be factored
    is flagged ``core_not_positive_definite``. delta_quad is the top
    eigenvalue of K K^T = Lc^{-1} B C^2 B Lc^{-T}, K = Lc^{-1} B C and
    B = diag(b) (the top generalized eigenvalue of the pencil (B C^2 B, C)),
    and the coupling norm the top eigenvalue of Ls^T Ls. Both come from
    :func:`_krylov_radius`, which applies the first with two ``dtrsv`` and
    two ``dsymv`` and the second with two ``dtrmv``, all on stored
    triangles, or solves K K^T, K from one triangular solve with Lc, and
    Ls^T Ls with ``eigvalsh``.
    The bound min(0.5, lam_min(C + diag(1/alpha)) / coupling_norm_sq) rarely
    needs lam_min: by Weyl's inequality, C > 0 gives lam_min > min(1/alpha),
    so ``delta_bound`` is 0.5 whenever 2 min(1/alpha) >= coupling_norm_sq,
    and only the other case runs ``eigvalsh``.
    """
    mu_star, alpha_raw, _, _ = _linearization(mu_star, pre)
    flags: List[str] = []
    if np.any(alpha_raw > 1.0 - _ALPHA_CLAMP) or np.any(alpha_raw < _ALPHA_CLAMP):
        flags.append("alpha_saturated")
    alpha = np.clip(alpha_raw, _ALPHA_CLAMP, 1.0 - _ALPHA_CLAMP)
    p = pre.p
    low = _scaled_triangle(pre, 1.0 / np.sqrt(pre.d))
    # the lower triangle of C; BLAS reads the C-ordered triangles through their
    # Fortran-ordered transposes (upper), so no Lanczos product copies them
    core_lower = low + np.eye(p)
    b = mu_star * mu_star * pre.a * (1.0 - alpha)
    delta_diag = float(np.max(b * b * (alpha / (1.0 - alpha))))

    delta_star = delta_bound = delta_quad = coupling_norm_sq = float("nan")
    try:
        chol = cholesky(core_lower, lower=True, check_finite=False)
    except LinAlgError:
        # the Cholesky factorization of a numerically singular core failed
        flags.append("core_not_positive_definite")
    else:

        def quad_matvec(v):
            # cholesky returns a Fortran-ordered factor: passed as is, it is not copied
            x = b * dtrsv(chol, v, lower=1, trans=1)
            x = dsymv(1.0, core_lower.T, dsymv(1.0, core_lower.T, x, lower=0), lower=0)
            return dtrsv(chol, b * x, lower=1)

        def dense_quad():
            # K = Lc^{-1} B C, so K K^T is the operator quad_matvec applies
            k = solve_triangular(chol, b[:, None] * (core_lower + low.T), lower=True,
                                 check_finite=False)
            return eigvalsh(k @ k.T, subset_by_index=[p - 1, p - 1])

        delta_quad = _krylov_radius(quad_matvec, p, True, dense_quad)
        coupling_norm_sq = _krylov_radius(
            lambda v: dtrmv(low.T, dtrmv(low.T, v, trans=1)), p, True,
            lambda: eigvalsh(low.T @ low, subset_by_index=[p - 1, p - 1]),
        )
        delta_star = max(delta_quad, delta_diag)
        inv_alpha = 1.0 / alpha
        if coupling_norm_sq < _COUPLING_EPS:
            # decoupled coordinates: the bound degenerates and the condition is vacuous
            delta_bound = float("inf")
            flags.append("decoupled")
        elif 2.0 * np.min(inv_alpha) >= coupling_norm_sq:
            # Weyl: lam_min(C + diag(1/alpha)) > min(1/alpha) >= coupling_norm_sq / 2
            delta_bound = 0.5
        else:
            shifted = core_lower + np.diag(inv_alpha)
            lam_min = float(eigvalsh(shifted, lower=True, subset_by_index=[0, 0])[0])
            delta_bound = min(0.5, lam_min / coupling_norm_sq)
    return Assumption1Result(
        delta_star=delta_star,
        delta_bound=delta_bound,
        satisfied="decoupled" in flags or bool(delta_star < delta_bound),
        delta_quad=delta_quad,
        delta_diag=delta_diag,
        coupling_norm_sq=coupling_norm_sq,
        flags=flags,
    )


@dataclass
class StabilityReport:
    """Spectral radii of both Jacobians plus the contraction diagnostics."""

    rho_seq: float
    rho_par: float
    assumption1: Assumption1Result
    seq_residual: float
    par_residual: float
    flags: List[str] = field(default_factory=list)


def analyze_stability(mu_star, pre: Precomputed) -> StabilityReport:
    """Full local analysis at ``mu_star``: radii, residuals, contraction check.

    Both sup-norm sweep residuals come from :func:`engines.sweep_residuals`,
    whose sequential sweep S(mu) the sequential Jacobian reuses, so the
    analysis sweeps once. rho_seq is the radius of
    :func:`_seq_jacobian_apply` by :func:`_krylov_radius`, whose dense path
    runs ``eigvals`` on that map's dense form. A residual above 1e-6
    (``_RESIDUAL_TOL``) does not abort the analysis but is flagged
    ``not_fixed_point``, since the radii describe local stability only at a
    fixed point. An operator that overflows (for
    instance the curvature mu^2 a (1 - alpha) at an extreme slab precision)
    raises ``FloatingPointError``: it is a numerical breakdown, not a result.
    """
    p = pre.p
    with np.errstate(over="raise", invalid="raise"):
        mu_star, alpha, grad, w = _linearization(mu_star, pre)
        seq_residual, par_residual, swept = engines.sweep_residuals(mu_star, alpha, pre)
        flags = [] if max(seq_residual, par_residual) <= _RESIDUAL_TOL else ["not_fixed_point"]
        apply = _seq_jacobian_apply(alpha, w, grad * swept, pre)
        assumption = check_assumption1(mu_star, pre)
        return StabilityReport(
            rho_seq=_krylov_radius(apply, p, False, lambda: np.linalg.eigvals(apply(np.eye(p)))),
            rho_par=_coupling_radius(pre, np.sqrt(w / pre.d)),
            assumption1=assumption,
            seq_residual=seq_residual,
            par_residual=par_residual,
            flags=flags,
        )


class WignerStat(NamedTuple):
    norm: float
    ratio: float


def wigner_stat(X, tau: float) -> WignerStat:
    """The saturated parallel radius of design ``X`` and its ratio to sqrt(p/n).

    The radius of :func:`_coupling_radius` with r = 1 / sqrt(d),
    d_j = |X_j|^2 + tau: the parallel radius where every probability
    saturates (w = 1), the radius of the ridge-Jacobi matrix
    -D^{-1} (L + L^T), similar to minus the off-diagonal Gram matrix
    normalized by sqrt(d_j d_l). The Gram triangle comes from
    :func:`precompute`, so ``tau`` plays sigma2 tau, and the prior
    probability and the response, which do not enter the statistic, are set
    to 1/2 and zero. Under an i.i.d. Gaussian design the normalized
    off-diagonal Gram is about X^T X / n - I, whose spectrum tends to
    [gamma - 2 sqrt(gamma), gamma + 2 sqrt(gamma)], gamma = p/n (Marchenko and
    Pastur), so the norm concentrates near gamma + 2 sqrt(gamma) and the
    ratio near 2 + sqrt(gamma); the semicircle edge 2 sqrt(gamma) is only the
    gamma -> 0 limit.
    """
    data = Dataset(X, np.zeros(np.shape(X)[:1]))
    n, p = data.X.shape
    if not (n >= p >= 2):
        raise ValueError(f"need n >= p >= 2, got n={n}, p={p}")
    pre = precompute(data, Hyperparams(pi=0.5, tau=tau))
    norm = _coupling_radius(pre, 1.0 / np.sqrt(pre.d))
    return WignerStat(norm=norm, ratio=norm / np.sqrt(p / n))
