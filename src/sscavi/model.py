"""Model types, design-dependent precomputation, inclusion probabilities, ELBO.

The regression model is y = X beta + noise with known noise variance, and each
coefficient carries a spike-and-slab prior: a point mass at zero mixed with a
zero-mean Gaussian slab of precision ``tau``. The mean-field variational family
factorizes over coordinates; each factor is again a spike-and-slab with mean
``mu_j``, variance ``1/a_j`` and inclusion probability ``alpha_j``, where
``alpha_j`` is a deterministic sigmoid transform of ``mu_j``.

:func:`precompute` turns one dataset and one set of hyperparameters into a
:class:`Precomputed`, which keeps both; every function past it, the ELBO
included, reads the problem from that one object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.special import expit, rel_entr


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; ``arr`` itself keeps its flags."""
    view = arr.view()
    view.flags.writeable = False
    return view


def _finite_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return _read_only(arr)


@dataclass(frozen=True)
class Dataset:
    """Design matrix, response, and optional generating ground truth.

    Frozen, with read-only views of its arrays: :class:`Precomputed` keeps
    the dataset by reference, so a field assigned or an entry written after
    :func:`precompute` would pair the stored Gram with other data. The views
    are not copies: the caller's own arrays keep their flags, and a write
    through one of them still reaches the dataset.
    """

    X: np.ndarray
    y: np.ndarray
    beta_true: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "X", _finite_array(self.X, "X", 2))
        object.__setattr__(self, "y", _finite_array(self.y, "y", 1))
        n, p = self.X.shape
        if n < 1 or p < 1:
            raise ValueError("X must have at least one row and one column")
        if self.y.shape[0] != n:
            raise ValueError(f"y has length {self.y.shape[0]}, expected {n}")
        if self.beta_true is not None:
            object.__setattr__(self, "beta_true", _finite_array(self.beta_true, "beta_true", 1))
            if self.beta_true.shape[0] != p:
                raise ValueError("beta_true length must equal the number of columns")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class Hyperparams:
    """Prior inclusion probability, slab precision, and known noise variance."""

    pi: float
    tau: float
    sigma2: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.pi < 1.0):
            raise ValueError(f"pi must lie in (0, 1), got {self.pi}")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be a positive real, got {self.tau}")
        if not (self.sigma2 > 0.0 and math.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be a positive real, got {self.sigma2}")

    @property
    def logit_pi(self) -> float:
        return math.log(self.pi) - math.log1p(-self.pi)


@dataclass(frozen=True)
class Precomputed:
    """One regression problem and the design-dependent quantities shared by every sweep.

    Frozen, and its arrays are read-only, for the reason :class:`Dataset` is.

    Attributes
    ----------
    dataset : the :class:`Dataset` it was built from, the object itself, not a copy.
    hyper : the :class:`Hyperparams` it was built from.
    a : per-coordinate slab-posterior precisions, ``|X_j|^2 / sigma2 + tau``.
    d : diagonal of the sweep normalizer, ``sigma2 * a`` (= ``|X_j|^2 + sigma2*tau``).
    col_sq_norms : squared column norms of the design (the Gram diagonal).
    xtx_lower : strict lower triangle of the Gram matrix, C-ordered, with an
        exactly zero diagonal and upper triangle; the only stored copy of the
        off-diagonal Gram entries, formed by one ``dsyrk``.
    xty : design-response cross moments.
    prior_logit : the mean-free part of each coordinate's inclusion log-odds,
        ``logit(pi) + log(tau / a) / 2`` (:func:`prior_logit`), formed once per
        dataset so that :func:`inclusion_prob` adds only the ``a * mu^2 / 2``
        term per iterate.
    """

    dataset: Dataset
    hyper: Hyperparams
    a: np.ndarray
    d: np.ndarray
    col_sq_norms: np.ndarray
    xtx_lower: np.ndarray
    xty: np.ndarray
    prior_logit: np.ndarray

    @property
    def p(self) -> int:
        return self.a.shape[0]


def precompute(dataset: Dataset, hyper: Hyperparams) -> Precomputed:
    """Assemble the per-column precisions, Gram pieces, and cross moments.

    The Gram matrix is formed once, as a triangle: ``dsyrk`` on the
    Fortran-ordered ``X^T`` writes only the upper triangle of X^T X in
    Fortran order, which read as a C-ordered array is the lower triangle; its
    diagonal is then zeroed in place. So the one p x p array this allocates is
    ``xtx_lower`` itself. The column norms come from ``einsum`` rather than
    that diagonal, which differs from them in the last bits.

    Zero columns are allowed (their precision degenerates to ``tau``);
    non-finite inputs are rejected by :class:`Dataset`. Hyperparameters that
    overflow a precision or a normalizer to infinity raise ``ValueError``.
    """
    X = dataset.X
    col_sq_norms = np.einsum("ij,ij->j", X, X)
    with np.errstate(over="ignore"):
        a = col_sq_norms / hyper.sigma2 + hyper.tau
        d = hyper.sigma2 * a
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(d))):
        raise ValueError(f"tau={hyper.tau}, sigma2={hyper.sigma2} overflow the slab precisions")
    xtx_lower = dsyrk(1.0, X.T, lower=0).T
    np.fill_diagonal(xtx_lower, 0.0)
    xty = X.T @ dataset.y
    return Precomputed(
        dataset=dataset,
        hyper=hyper,
        a=_read_only(a),
        d=_read_only(d),
        col_sq_norms=_read_only(col_sq_norms),
        xtx_lower=_read_only(xtx_lower),
        xty=_read_only(xty),
        prior_logit=_read_only(prior_logit(a, hyper)),
    )


def prior_logit(a, hyper: Hyperparams):
    """The inclusion log-odds at mu = 0: logit(pi) + log(tau/a)/2.

    :func:`precompute` stores it per coordinate as ``Precomputed.prior_logit``,
    which every caller holding a :class:`Precomputed` reads instead; only a
    caller without one passes this to :func:`inclusion_prob` directly.
    """
    return hyper.logit_pi + 0.5 * np.log(hyper.tau / np.asarray(a, dtype=np.float64))


def inclusion_prob(mu, a, prior_logit):
    """Inclusion probability as a function of the variational mean.

    logit(alpha) = logit(pi) + log(tau/a)/2 + a*mu^2/2, mapped through the
    overflow-safe logistic ``expit``; ``prior_logit`` is its mean-free part,
    ``Precomputed.prior_logit`` or :func:`prior_logit` of ``a``, so only the
    ``a*mu^2/2`` term is evaluated here. Scalars in, scalar out; arrays
    broadcast elementwise.
    """
    return expit(prior_logit + 0.5 * a * mu * mu)


def inclusion_prob_grad(mu, a, alpha):
    """Derivative of the inclusion probability with respect to the mean.

    Chain rule through the sigmoid: alpha * (1 - alpha) * a * mu. Saturated
    alpha (exactly 0 or 1) gives a zero derivative.
    """
    return alpha * (1.0 - alpha) * a * mu


@dataclass
class VariationalState:
    """Variational means and inclusion probabilities.

    The constructor checks only that both are 1-d of equal length and that
    every finite ``alpha`` lies in [0, 1]; it does not tie ``alpha`` to
    ``mu``. The iteration drivers derive ``alpha`` from ``mu`` with
    :func:`inclusion_prob`.
    """

    mu: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        self.mu = np.ascontiguousarray(self.mu, dtype=np.float64)
        self.alpha = np.ascontiguousarray(self.alpha, dtype=np.float64)
        if self.mu.shape != self.alpha.shape or self.mu.ndim != 1:
            raise ValueError("mu and alpha must be 1-d arrays of equal length")
        finite = np.isfinite(self.alpha)
        if np.any((self.alpha[finite] < 0) | (self.alpha[finite] > 1)):
            raise ValueError("alpha entries must lie in [0, 1]")


def expected_loglik(state: VariationalState, pre: Precomputed) -> float:
    """Expected Gaussian log likelihood under the factorized variational law.

    Coordinate-wise, a coefficient has mean ``alpha*mu`` and variance
    ``alpha/a + alpha*(1-alpha)*mu^2``, which yields the residual term plus a
    column-variance correction.
    """
    dataset = pre.dataset
    n = dataset.n
    sigma2 = pre.hyper.sigma2
    mu, alpha = state.mu, state.alpha
    resid = dataset.y - dataset.X @ (alpha * mu)
    s2 = 1.0 / pre.a
    var_term = np.sum(pre.col_sq_norms * alpha * (s2 + (1.0 - alpha) * mu * mu))
    return float(
        -0.5 * n * math.log(2.0 * math.pi * sigma2)
        - 0.5 * (resid @ resid) / sigma2
        - 0.5 * var_term / sigma2
    )


def kl_to_prior(state: VariationalState, pre: Precomputed) -> float:
    """KL divergence from the variational law to the spike-and-slab prior.

    The Bernoulli part is the relative entropy of ``alpha`` to ``pi`` by
    ``scipy.special.rel_entr``, whose 0*log 0 = 0 convention gives saturated
    coordinates (alpha exactly 0 or 1) their limiting value.
    """
    hyper = pre.hyper
    mu, alpha = state.mu, state.alpha
    s2 = 1.0 / pre.a
    slab_kl = -0.5 * alpha * (1.0 + np.log(hyper.tau * s2) - hyper.tau * (s2 + mu * mu))
    bern_kl = rel_entr(alpha, hyper.pi) + rel_entr(1.0 - alpha, 1.0 - hyper.pi)
    return float(np.sum(slab_kl + bern_kl))


def elbo(state: VariationalState, pre: Precomputed) -> float:
    """Evidence lower bound: expected log likelihood minus the prior KL."""
    return expected_loglik(state, pre) - kl_to_prior(state, pre)
