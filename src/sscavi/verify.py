"""Independent oracles and the cross-check suite behind `sscavi verify`.

Every check pairs a production code path with an independent route to the
same quantity: coordinate loops against the blocked triangular solve and the
symmetric matrix-vector product of the production sweeps, analytic Jacobians
against central differences, pinned sweeps against textbook splitting
iterations and a direct solve, the closed-form expected log likelihood
against Monte Carlo, the symmetric parallel radius against the nonsymmetric
eigensolver on the Jacobian, the ARPACK radii of wide designs against full
dense eigensolves, the contraction check against its defining dense
formulas, and the spectral radii against perturbation orbits. The
per-coordinate sequential map, which the package does not ship, is kept here
as a reference whose fixed points the tests hold to the production sweep's,
and so is the dense ridge system that both pinned sweeps split
(:func:`ridge_system`), of which the package stores only a triangle, its
pinned Gauss-Seidel iteration (:func:`pinned_gauss_seidel`), and the
composition mu -> sweep(mu, alpha(mu)) (:func:`sweep_map`), since the
production sweeps take alpha from their caller. Like the analysis they check,
the oracles read the design and the hyperparameters only through
:class:`sscavi.model.Precomputed`, alpha from its ``prior_logit``; the
Monte Carlo likelihood (:func:`mc_expected_loglik`) samples against the
dataset and noise variance it keeps. No production code path uses these
oracles.
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from . import engines, stability
from .model import (
    Hyperparams,
    VariationalState,
    expected_loglik,
    inclusion_prob,
    inclusion_prob_grad,
    precompute,
)
from .synth import SEED_BOUND, GenSpec, make_dataset


class CheckResult(NamedTuple):
    name: str
    metric: float
    threshold: float
    passed: bool


def textbook_gauss_seidel_sweep(A, b, x):
    """One forward Gauss-Seidel sweep for A x = b, straight from the recursion."""
    A = np.asarray(A, dtype=np.float64)
    x_new = np.array(x, dtype=np.float64)
    for i in range(A.shape[0]):
        head = A[i, :i] @ x_new[:i]
        tail = A[i, i + 1 :] @ x[i + 1 :]
        x_new[i] = (b[i] - head - tail) / A[i, i]
    return x_new


def textbook_jacobi_sweep(A, b, x):
    """One Jacobi sweep via the diagonal splitting, matrix form."""
    A = np.asarray(A, dtype=np.float64)
    diag = np.diag(A)
    return (b - (A - np.diag(diag)) @ x) / diag


def ridge_system(pre) -> np.ndarray:
    """The dense p x p system D + L + L^T that both pinned sweeps split.

    L is the strict lower Gram triangle and D = diag(d) the sweep normalizer,
    so off the diagonal this is the Gram matrix X^T X, and on it
    |X_j|^2 + sigma2 tau: the ridge system (X^T X + sigma2 tau I) mu = X^T y
    whose Gauss-Seidel and Jacobi iterations the sweeps become when the
    inclusion probabilities are pinned to one. The package itself stores only
    the triangle; this is the one place the dense system is built.
    """
    return pre.xtx_lower + pre.xtx_lower.T + np.diag(pre.d)


def pinned_gauss_seidel(pre):
    """Sequential sweeps with every inclusion probability pinned to one.

    Starts from the diagonal least-squares means xty / d and sweeps until the
    sup-norm step falls below ``RunConfig().tol``, for at most
    ``RunConfig().max_iter`` sweeps: the Gauss-Seidel iteration for the
    ridge system :func:`ridge_system`. Returns ``(converged, mu)``.
    """
    cfg = engines.RunConfig()
    ones = np.ones(pre.p)
    mu = pre.xty / pre.d
    for _ in range(cfg.max_iter):
        mu, entry = engines.seq_sweep(mu, ones, pre), mu
        if np.max(np.abs(mu - entry)) < cfg.tol:
            return True, mu
    return False, mu


def coordinate_seq_sweep(mu, alpha, pre, refresh: bool = False):
    """One sequential sweep as an explicit in-order loop over the coordinates.

    Coordinate j takes one dense Gram row product over l != j, reading the
    fresh means below it and the entry means above it. By default alpha
    stays frozen, the oracle for :func:`engines.seq_sweep`. With ``refresh``,
    ``alpha[j]`` is recomputed from the fresh mean and ``pre.prior_logit[j]``
    right after coordinate j updates: the per-coordinate map of Carbonetto &
    Stephens (2012), which the package does not ship, and of which this
    branch is the reference.
    """
    gram = ridge_system(pre)
    alpha = np.array(alpha, dtype=np.float64)
    mu_new = np.array(mu, dtype=np.float64)  # updated in place, in order
    for j in range(pre.p):
        head = gram[j, :j] @ (alpha[:j] * mu_new[:j])
        tail = gram[j, j + 1 :] @ (alpha[j + 1 :] * mu_new[j + 1 :])
        mu_new[j] = (pre.xty[j] - head - tail) / pre.d[j]
        if refresh:
            alpha[j] = inclusion_prob(mu_new[j], pre.a[j], pre.prior_logit[j])
    return mu_new


def sweep_map(sweep: Callable, pre) -> Callable:
    """The one-sweep map mu -> sweep(mu, alpha(mu), pre), alpha evaluated at the entry iterate.

    ``sweep`` is :func:`engines.seq_sweep` or :func:`engines.par_sweep`. This is
    the map whose Jacobians :mod:`sscavi.stability` states, and the one the
    finite-difference and orbit oracles here differentiate and iterate.
    """
    return lambda mu: sweep(mu, inclusion_prob(mu, pre.a, pre.prior_logit), pre)


def fd_jacobian(map_fn: Callable, mu_star, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a one-sweep map, column by column.

    Step sizes between 1e-8 and 1e-4 balance truncation against roundoff for
    these maps.
    """
    if not (h > 0):
        raise ValueError("h must be positive")
    mu_star = np.asarray(mu_star, dtype=np.float64)
    p = mu_star.shape[0]
    jac = np.empty((p, p))
    for j in range(p):
        bump = np.zeros(p)
        bump[j] = h
        jac[:, j] = (map_fn(mu_star + bump) - map_fn(mu_star - bump)) / (2.0 * h)
    return jac


def gelfand_spectral_radius(jac: np.ndarray) -> float:
    """Estimate the spectral radius from the growth of matrix-power norms.

    Computes ||J^k||_2^{1/k} for k = 64, 128 and 256 by repeated squaring
    with rescaling, then extrapolates k -> infinity with a least-squares fit
    of log estimate against 1/k. Fully independent of the eigendecomposition
    path, so it doubles as an oracle for it.
    """
    jac = np.asarray(jac, dtype=np.float64)
    top = float(np.linalg.norm(jac, 2))
    if top == 0.0:
        return 0.0
    # invariant: J^k == top^k * exp(log_scale) * current
    current, log_scale, k = jac / top, 0.0, 1
    log_norms = {}
    while k < 256:
        current = current @ current
        k *= 2
        log_scale *= 2.0
        peak = float(np.max(np.abs(current)))
        if peak == 0.0:
            return 0.0
        current /= peak
        log_scale += np.log(peak)
        if k >= 64:
            log_norms[k] = (
                k * np.log(top) + log_scale + np.log(float(np.linalg.norm(current, 2)))
            )
    xs = np.array([1.0 / k for k in sorted(log_norms)])
    ys = np.array([log_norms[k] / k for k in sorted(log_norms)])
    coeffs = np.polyfit(xs, ys, 1)
    return float(np.exp(coeffs[1]))


def perturbation_decay(map_fn: Callable, mu_star, seed: int = 0) -> bool:
    """Empirical stability probe around a fixed point.

    Samples 10 random sup-norm perturbations of radius
    1e-4 (1 + ||mu_star||_inf) and iterates the map 80 times from each.
    Returns True when the observed orbit behavior matches the spectral
    prediction: every orbit contracts when the Jacobian radius is below 0.95,
    and at least one orbit escapes when it exceeds 1.05. Radii inside that
    band are not asserted (returns True).
    """
    mu_star = np.asarray(mu_star, dtype=np.float64)
    p = mu_star.shape[0]
    radius = 1e-4 * (1.0 + float(np.max(np.abs(mu_star))))
    rho = stability.spectral_radius(fd_jacobian(map_fn, mu_star))

    rng = np.random.default_rng(seed)
    final_dists = np.empty(10)
    max_dists = np.empty_like(final_dists)
    for t in range(final_dists.size):
        direction = rng.standard_normal(p)
        direction *= radius / np.max(np.abs(direction))
        x = mu_star + direction
        max_dist = radius
        for _ in range(80):
            x = map_fn(x)
            if not np.all(np.isfinite(x)):
                max_dist = np.inf
                break
            max_dist = max(max_dist, float(np.max(np.abs(x - mu_star))))
            if max_dist > 1e6 * radius:
                break  # unambiguous escape; stop before overflow
        final_dists[t] = (
            float(np.max(np.abs(x - mu_star))) if np.all(np.isfinite(x)) else np.inf
        )
        max_dists[t] = max_dist

    if rho < 0.95:
        return bool(np.all(final_dists < 0.5 * radius))
    if rho > 1.05:
        return bool(np.any(max_dists > 10.0 * radius))
    return True


def dense_radii(mu_star, pre):
    """(rho_seq, rho_par) from full dense eigensolves, whatever the size.

    ``eigvals`` on :func:`stability.jacobian_seq`, and ``eigvalsh`` on the
    full symmetric -R (L + L^T) R, R = diag(sqrt((alpha + alpha' * mu) / d)),
    which has the eigenvalues of the parallel Jacobian. The oracle for the
    ARPACK radii that :func:`stability.analyze_stability` uses on wide designs.
    """
    mu_star = np.asarray(mu_star, dtype=np.float64)
    rho_seq = float(np.max(np.abs(np.linalg.eigvals(stability.jacobian_seq(mu_star, pre)))))
    alpha = inclusion_prob(mu_star, pre.a, pre.prior_logit)
    r = np.sqrt((alpha + inclusion_prob_grad(mu_star, pre.a, alpha) * mu_star) / pre.d)
    sym = (pre.xtx_lower + pre.xtx_lower.T) * np.outer(r, r)
    return rho_seq, float(np.max(np.abs(np.linalg.eigvalsh(sym))))


class DenseAssumption1(NamedTuple):
    delta_quad: float
    coupling_norm_sq: float
    delta_bound: float
    satisfied: bool


def dense_assumption1(mu_star, pre) -> DenseAssumption1:
    """Assumption 1 from its defining formulas, for ``stability.check_assumption1``.

    With C the scaled core and B = diag(b) the curvature: delta_quad is the top
    of the full spectrum of C^{-1/2} B C^2 B C^{-1/2}, C^{-1/2} taken from a full
    eigendecomposition of C; the coupling norm is the SVD 2-norm of the scaled
    lower triangle; lam_min is the bottom of the full spectrum of C + diag(1/alpha).
    C is built here from :func:`ridge_system`, C = D^{-1/2} (L + L^T) D^{-1/2} + I.
    Probabilities are clamped into [1e-12, 1 - 1e-12] as in the production check.
    """
    mu_star = np.asarray(mu_star, dtype=np.float64)
    alpha = np.clip(inclusion_prob(mu_star, pre.a, pre.prior_logit), 1e-12, 1.0 - 1e-12)
    gram = ridge_system(pre)
    scaled_offdiag = (gram - np.diag(np.diag(gram))) / np.sqrt(np.outer(pre.d, pre.d))
    core = scaled_offdiag + np.eye(pre.p)
    b = mu_star**2 * pre.a * (1.0 - alpha)
    evals, evecs = np.linalg.eigh(core)
    inv_sqrt_core = (evecs * evals**-0.5) @ evecs.T
    quad_op = inv_sqrt_core @ (b[:, None] * (core @ core) * b) @ inv_sqrt_core
    delta_quad = max(float(np.max(np.linalg.eigvalsh(0.5 * (quad_op + quad_op.T)))), 0.0)
    delta_diag = float(np.max(b * b * alpha / (1.0 - alpha)))
    coupling_norm_sq = float(np.linalg.norm(np.tril(scaled_offdiag, -1), 2) ** 2)
    if coupling_norm_sq < 1e-14:
        delta_bound = float("inf")
    else:
        lam_min = float(np.min(np.linalg.eigvalsh(core + np.diag(1.0 / alpha))))
        delta_bound = min(0.5, lam_min / coupling_norm_sq)
    return DenseAssumption1(
        delta_quad, coupling_norm_sq, delta_bound, max(delta_quad, delta_diag) < delta_bound
    )


def mc_expected_loglik(
    state: VariationalState,
    pre,
    n_samples: int = 1_000_000,
    seed: int = 0,
):
    """Monte Carlo estimate of the expected Gaussian log likelihood under q.

    Samples coefficients from the factorized spike-and-slab variational law
    (Bernoulli inclusion times a Gaussian slab) and averages the exact
    log-likelihood, drawing in chunks of 100,000; returns (estimate,
    standard_error).
    """
    rng = np.random.default_rng(seed)
    dataset = pre.dataset
    n = dataset.n
    sigma2 = pre.hyper.sigma2
    mu, alpha = state.mu, state.alpha
    sd = 1.0 / np.sqrt(pre.a)
    const = -0.5 * n * math.log(2.0 * math.pi * sigma2)

    total, total_sq, done = 0.0, 0.0, 0
    while done < n_samples:
        m = min(100_000, n_samples - done)
        draws = mu[None, :] + sd[None, :] * rng.standard_normal((m, mu.shape[0]))
        included = rng.random((m, mu.shape[0])) < alpha[None, :]
        beta = np.where(included, draws, 0.0)
        resid = dataset.y[None, :] - beta @ dataset.X.T
        vals = const - 0.5 * np.einsum("ij,ij->i", resid, resid) / sigma2
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples)


def _elbo_mc_check(seed: int) -> CheckResult:
    hyper = Hyperparams(pi=0.5, tau=1.0, sigma2=1.0)
    ds = make_dataset(GenSpec(n=20, p=4, s=2, seed=seed))
    pre = precompute(ds, hyper)
    state = engines.fixed_point(pre)
    analytic = expected_loglik(state, pre)
    estimate, stderr = mc_expected_loglik(state, pre, 200_000, seed=seed)
    return CheckResult(
        "elbo_mc_loglik", abs(analytic - estimate) / stderr, 3.0,
        abs(analytic - estimate) < 3.0 * stderr,
    )


def run_checks(
    seed: int = 0, progress: Optional[Callable[[str], None]] = None
) -> List[CheckResult]:
    """Run the full oracle suite; returns one result per check."""

    def note(msg):
        if progress is not None:
            progress(msg)

    def offset(k):
        # folded into [0, 2^64), so that every seed GenSpec takes runs
        return (seed + k) % SEED_BOUND

    results: List[CheckResult] = []
    hyper = Hyperparams(pi=0.5, tau=1.0, sigma2=1.0)

    note("sweep dual forms")
    ds = make_dataset(GenSpec(n=40, p=8, s=4, seed=offset(7)))
    pre = precompute(ds, hyper)
    rng = np.random.default_rng(offset(7))
    mu = rng.standard_normal(8)
    alpha = inclusion_prob(mu, pre.a, pre.prior_logit)
    seq_diff = float(
        np.max(np.abs(engines.seq_sweep(mu, alpha, pre) - coordinate_seq_sweep(mu, alpha, pre)))
    )
    par_diff = float(
        np.max(np.abs(
            engines.par_sweep(mu, alpha, pre)
            - textbook_jacobi_sweep(ridge_system(pre), pre.xty, alpha * mu)
        ))
    )
    results.append(CheckResult("seq_sweep_coord_vs_matrix", seq_diff, 1e-10, seq_diff < 1e-10))
    results.append(CheckResult("par_sweep_coord_vs_matrix", par_diff, 1e-10, par_diff < 1e-10))

    note("finite-difference Jacobians")
    state = engines.fixed_point(pre)
    jac_seq = stability.jacobian_seq(state.mu, pre)
    jac_par = stability.jacobian_par(state.mu, pre)
    seq_map = sweep_map(engines.seq_sweep, pre)
    fd_seq = fd_jacobian(seq_map, state.mu)
    fd_par = fd_jacobian(sweep_map(engines.par_sweep, pre), state.mu)
    err_seq = float(np.max(np.abs(jac_seq - fd_seq) / (1.0 + np.abs(fd_seq))))
    err_par = float(np.max(np.abs(jac_par - fd_par) / (1.0 + np.abs(fd_par))))
    results.append(CheckResult("fd_jacobian_seq", err_seq, 1e-5, err_seq < 1e-5))
    results.append(CheckResult("fd_jacobian_par", err_par, 1e-5, err_par < 1e-5))

    for h in (1e-5, 1e-6, 1e-7):
        fd_h = fd_jacobian(seq_map, state.mu, h=h)
        err_h = float(np.max(np.abs(jac_seq - fd_h) / (1.0 + np.abs(fd_h))))
        # reported for the h-sensitivity profile, not asserted
        results.append(CheckResult(f"fd_h_sweep_{h:.0e}", err_h, float("nan"), True))

    note("pinned-probability degeneracies")
    ds_ridge = make_dataset(GenSpec(n=60, p=10, s=5, seed=offset(11)))
    pre_ridge = precompute(ds_ridge, hyper)
    ridge_sys = ridge_system(pre_ridge)
    direct = np.linalg.solve(ridge_sys, pre_ridge.xty)
    _, pinned_mu = pinned_gauss_seidel(pre_ridge)
    solve_diff = float(np.max(np.abs(pinned_mu - direct)))
    results.append(
        CheckResult("pinned_seq_vs_direct_solve", solve_diff, 1e-6, solve_diff < 1e-6)
    )
    x0 = np.random.default_rng(offset(11)).standard_normal(10)
    ones = np.ones(10)
    gs_diff = float(
        np.max(np.abs(
            engines.seq_sweep(x0, ones, pre_ridge)
            - textbook_gauss_seidel_sweep(ridge_sys, pre_ridge.xty, x0)
        ))
    )
    jac_diff = float(
        np.max(np.abs(
            engines.par_sweep(x0, ones, pre_ridge)
            - textbook_jacobi_sweep(ridge_sys, pre_ridge.xty, x0)
        ))
    )
    results.append(CheckResult("pinned_seq_vs_textbook_gs", gs_diff, 1e-12, gs_diff < 1e-12))
    results.append(CheckResult("pinned_par_vs_textbook_jacobi", jac_diff, 1e-12, jac_diff < 1e-12))

    note("Monte Carlo expected log likelihood")
    results.append(_elbo_mc_check(seed))

    note("similarity identity")
    # the nonsymmetric eigensolver on J_par against the symmetric route of the study
    rho_direct = stability.spectral_radius(jac_par)
    rho_similar = stability.analyze_stability(state.mu, pre).rho_par
    sim_diff = abs(rho_direct - rho_similar)
    results.append(CheckResult("par_radius_similarity", sim_diff, 1e-8, sim_diff < 1e-8))

    note("perturbation decay")
    contract_ok = perturbation_decay(seq_map, state.mu, seed=seed)
    results.append(
        CheckResult("perturbation_contract_seq", 1.0 if contract_ok else 0.0, 0.5, contract_ok)
    )
    ds_dense = make_dataset(GenSpec(n=100, p=50, s=50, seed=offset(3)))
    pre_dense = precompute(ds_dense, hyper)
    state_dense = engines.fixed_point(pre_dense)
    escape_ok = perturbation_decay(
        sweep_map(engines.par_sweep, pre_dense), state_dense.mu, seed=seed
    )
    results.append(
        CheckResult("perturbation_escape_par", 1.0 if escape_ok else 0.0, 0.5, escape_ok)
    )

    note("Krylov radii")
    # p = 200 is above stability._KRYLOV_MIN_P, so the study's radii come from ARPACK
    ds_wide = make_dataset(GenSpec(n=400, p=200, s=100, seed=offset(13)))
    pre_wide = precompute(ds_wide, hyper)
    state_wide = engines.fixed_point(pre_wide)
    report = stability.analyze_stability(state_wide.mu, pre_wide)
    dense_seq, dense_par = dense_radii(state_wide.mu, pre_wide)
    krylov_err = max(
        abs(report.rho_seq - dense_seq) / dense_seq, abs(report.rho_par - dense_par) / dense_par
    )
    results.append(CheckResult("krylov_radii_vs_dense", krylov_err, 1e-12, krylov_err < 1e-12))

    note("blocked sequential sweep")
    # p = 600 is three blocks of engines._BLOCK = 256 coordinates, the last one partial
    ds_block = make_dataset(GenSpec(n=1200, p=600, s=300, seed=offset(17)))
    pre_block = precompute(ds_block, hyper)
    mu = np.random.default_rng(offset(17)).standard_normal(600)
    alpha = inclusion_prob(mu, pre_block.a, pre_block.prior_logit)
    expected = coordinate_seq_sweep(mu, alpha, pre_block)
    block_err = float(
        np.max(np.abs(engines.seq_sweep(mu, alpha, pre_block) - expected))
        / np.max(np.abs(expected))
    )
    results.append(
        CheckResult("blocked_seq_sweep_vs_coordinate", block_err, 1e-12, block_err < 1e-12)
    )

    note("Krylov Assumption 1")
    # the p = 200 check above came from Lanczos and the Weyl bound
    got, want = report.assumption1, dense_assumption1(state_wide.mu, pre_wide)
    a1_err = max(
        abs(getattr(got, name) - getattr(want, name)) / abs(getattr(want, name))
        for name in ("delta_quad", "coupling_norm_sq", "delta_bound")
    )
    a1_ok = a1_err < 1e-12 and got.satisfied == want.satisfied
    results.append(CheckResult("krylov_assumption1_vs_dense", a1_err, 1e-12, a1_ok))
    return results
