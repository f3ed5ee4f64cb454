"""Independent oracles for the benchmark's correctness checks.

Everything here is written from the model's update equations and works on
the raw design ``X`` and response ``y``. It imports nothing from ``sscavi``,
so a fault in the package's sweeps, Jacobians or ELBO cannot hide itself by
also being in the check.

Model: ``y = X beta + noise`` with noise variance ``sigma2``; each coefficient
has a spike-and-slab prior (inclusion probability ``pi``, slab precision
``tau``). The mean-field factor of coordinate j has mean ``mu_j``, variance
``1/a_j`` with ``a_j = |x_j|^2 / sigma2 + tau``, and inclusion probability

    logit(alpha_j) = logit(pi) + log(tau / a_j) / 2 + a_j mu_j^2 / 2.

The coordinate update with the other coordinates held fixed is

    mu_j <- (x_j'y - sum_{k != j} x_j'x_k alpha_k mu_k) / (|x_j|^2 + sigma2 tau).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit, xlogy


class Problem:
    """One regression instance and the CAVI maps derived from it."""

    def __init__(self, X, y, pi=0.5, tau=1.0, sigma2=1.0):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.pi, self.tau, self.sigma2 = float(pi), float(tau), float(sigma2)
        self.col_sq = np.sum(self.X * self.X, axis=0)
        self.xty = self.X.T @ self.y
        self.a = self.col_sq / self.sigma2 + self.tau
        self.denom = self.col_sq + self.sigma2 * self.tau
        self._gram = None

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def gram(self) -> np.ndarray:
        if self._gram is None:
            self._gram = self.X.T @ self.X
        return self._gram

    def alpha(self, mu) -> np.ndarray:
        logit = (
            math.log(self.pi / (1.0 - self.pi))
            + 0.5 * np.log(self.tau / self.a)
            + 0.5 * self.a * np.asarray(mu) ** 2
        )
        return expit(logit)

    def offdiag_times(self, w) -> np.ndarray:
        """(X'X - diag(X'X)) w in O(np), without forming the Gram matrix."""
        return self.X.T @ (self.X @ w) - self.col_sq * w

    def diagls_init(self) -> np.ndarray:
        return self.xty / self.denom

    def seq_sweep(self, mu) -> np.ndarray:
        """Gauss-Seidel sweep as a coordinate loop; alpha frozen at entry."""
        mu = np.asarray(mu, dtype=np.float64)
        alpha = self.alpha(mu)
        weighted = alpha * mu
        out = mu.copy()
        gram = self.gram
        for j in range(self.p):
            coupled = gram[j] @ weighted - gram[j, j] * weighted[j]
            out[j] = (self.xty[j] - coupled) / self.denom[j]
            weighted[j] = alpha[j] * out[j]
        return out

    def par_sweep(self, mu) -> np.ndarray:
        """Jacobi sweep: every coordinate updated from the previous iterate."""
        mu = np.asarray(mu, dtype=np.float64)
        return (self.xty - self.offdiag_times(self.alpha(mu) * mu)) / self.denom

    def fixed_point_residual(self, mu) -> float:
        """Sup norm of the fixed-point equations at ``mu``."""
        return float(np.max(np.abs(self.par_sweep(mu) - mu)))

    def elbo(self, mu) -> float:
        """Expected log likelihood minus KL(q || prior), with 0 log 0 = 0."""
        mu = np.asarray(mu, dtype=np.float64)
        alpha = self.alpha(mu)
        n = self.X.shape[0]
        resid = self.y - self.X @ (alpha * mu)
        var_beta = alpha / self.a + alpha * (1.0 - alpha) * mu * mu
        loglik = (
            -0.5 * n * math.log(2.0 * math.pi * self.sigma2)
            - 0.5 * (resid @ resid + self.col_sq @ var_beta) / self.sigma2
        )
        slab = 0.5 * alpha * (
            self.tau * (1.0 / self.a + mu * mu) - 1.0 - np.log(self.tau / self.a)
        )
        bern = xlogy(alpha, alpha / self.pi) + xlogy(1.0 - alpha, (1.0 - alpha) / (1.0 - self.pi))
        return float(loglik - np.sum(slab + bern))

    def cavi_fixed_point(self, tol=1e-12, max_iter=20000) -> np.ndarray:
        """Sequential CAVI from the diagonal least-squares start, to ``tol``."""
        mu = self.diagls_init()
        for _ in range(max_iter):
            nxt = self.seq_sweep(mu)
            if not np.all(np.isfinite(nxt)):
                break
            step = float(np.max(np.abs(nxt - mu)))
            mu = nxt
            if step < tol:
                return mu
        raise RuntimeError("oracle CAVI did not converge")


def fd_jacobian(sweep, mu, h=1e-6) -> np.ndarray:
    """Central-difference Jacobian of a one-sweep map, column by column."""
    mu = np.asarray(mu, dtype=np.float64)
    jac = np.empty((mu.size, mu.size))
    for j in range(mu.size):
        bump = np.zeros(mu.size)
        bump[j] = h
        jac[:, j] = (sweep(mu + bump) - sweep(mu - bump)) / (2.0 * h)
    return jac


def spectral_radius(jac) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(jac))))


def radii(problem: Problem, h=1e-6):
    """(rho_seq, rho_par) at the oracle's own sequential fixed point."""
    mu = problem.cavi_fixed_point()
    return (
        spectral_radius(fd_jacobian(problem.seq_sweep, mu, h)),
        spectral_radius(fd_jacobian(problem.par_sweep, mu, h)),
    )
