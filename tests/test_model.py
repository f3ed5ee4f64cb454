"""Model-layer tests: precomputation, inclusion probabilities, ELBO."""

import math
import tracemalloc

import numpy as np
import pytest

from sscavi import engines
from sscavi.model import (
    Dataset,
    Hyperparams,
    VariationalState,
    elbo,
    inclusion_prob,
    inclusion_prob_grad,
    prior_logit,
    precompute,
)
from sscavi.synth import GenSpec, make_dataset

# sigmoid(logit(0.5) + log(1/2)/2 + 2*1/2) evaluated at 50 decimal digits
PSI_AT_ONE = 0.6577821803478595
PSI_GRAD_AT_ONE = 0.4502095671293510


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(pi=0.0, tau=1.0)
    with pytest.raises(ValueError):
        Hyperparams(pi=0.5, tau=-1.0)
    with pytest.raises(ValueError):
        Hyperparams(pi=0.5, tau=1.0, sigma2=0.0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(X=np.array([[1.0, np.nan]]), y=np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(X=np.eye(2), y=np.ones(3))
    with pytest.raises(ValueError):
        Dataset(X=np.eye(2), y=np.ones(2), beta_true=np.ones(3))


def test_precompute_identity_design():
    ds = Dataset(X=np.eye(2), y=np.array([1.0, 0.0]))
    pre = precompute(ds, Hyperparams(pi=0.5, tau=1.0, sigma2=1.0))
    np.testing.assert_allclose(pre.a, [2.0, 2.0])
    np.testing.assert_allclose(pre.d, [2.0, 2.0])
    np.testing.assert_array_equal(pre.xtx_lower, np.zeros((2, 2)))
    np.testing.assert_allclose(pre.xty, [1.0, 0.0])


def test_precompute_single_column():
    ds = Dataset(X=np.array([[1.0], [1.0]]), y=np.array([1.0, 1.0]))
    pre = precompute(ds, Hyperparams(pi=0.5, tau=1.0, sigma2=1.0))
    assert pre.a[0] == pytest.approx(3.0)
    assert pre.xty[0] == pytest.approx(2.0)


def test_precompute_matches_bruteforce_loops():
    ds = make_dataset(GenSpec(n=40, p=8, s=4, seed=7))
    hyper = Hyperparams(pi=0.5, tau=1.0, sigma2=1.0)
    pre = precompute(ds, hyper)
    # independent loop-based recomputation
    for j in range(8):
        norm_sq = sum(ds.X[i, j] ** 2 for i in range(40))
        assert pre.a[j] == pytest.approx(norm_sq / hyper.sigma2 + hyper.tau, abs=1e-12)
        f_j = sum(ds.X[i, j] * ds.y[i] for i in range(40))
        assert pre.xty[j] == pytest.approx(f_j, rel=1e-12)


def test_precompute_keeps_its_inputs_uncopied():
    # Precomputed carries the problem it was built from by reference: a copy
    # of X would add 8np bytes to the peak memory of a large run
    ds = make_dataset(GenSpec(n=40, p=8, s=4, seed=7))
    hyper = Hyperparams(pi=0.1, tau=10.0, sigma2=2.0)
    pre = precompute(ds, hyper)
    assert pre.dataset is ds
    assert pre.dataset.X is ds.X
    assert pre.hyper is hyper


def test_precompute_zero_column_allowed():
    X = np.zeros((3, 2))
    X[:, 0] = [1.0, 2.0, 3.0]
    pre = precompute(Dataset(X=X, y=np.ones(3)), Hyperparams(pi=0.5, tau=2.0))
    assert pre.a[1] == pytest.approx(2.0)


def test_gram_triangle_reconstruction():
    ds = make_dataset(GenSpec(n=40, p=8, s=4, seed=7))
    pre = precompute(ds, Hyperparams(pi=0.5, tau=1.0))
    gram = ds.X.T @ ds.X
    np.testing.assert_allclose(pre.xtx_lower, np.tril(gram, k=-1), atol=1e-10)
    np.testing.assert_allclose(pre.col_sq_norms, np.diag(gram), rtol=1e-12)


def test_precompute_forms_one_gram_triangle():
    # the one p x p array precompute allocates is the dsyrk triangle itself;
    # forming X^T X and then its np.tril copy peaked at 2.14 x 8p^2 here
    p = 300
    ds = make_dataset(GenSpec(n=600, p=p, s=30, seed=5))
    tracemalloc.start()
    try:
        pre = precompute(ds, Hyperparams(pi=0.5, tau=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * p * p
    assert pre.xtx_lower.flags.c_contiguous
    assert np.all(np.triu(pre.xtx_lower) == 0.0)


def test_inclusion_prob_neutral_point():
    hyper = Hyperparams(pi=0.5, tau=1.0)
    assert inclusion_prob(0.0, 1.0, prior_logit(1.0, hyper)) == pytest.approx(0.5)


def test_inclusion_prob_frozen_value():
    hyper = Hyperparams(pi=0.5, tau=1.0)
    assert inclusion_prob(1.0, 2.0, prior_logit(2.0, hyper)) == pytest.approx(PSI_AT_ONE, abs=1e-14)


def test_inclusion_prob_saturates():
    hyper = Hyperparams(pi=0.5, tau=1.0)
    assert inclusion_prob(1e6, 1.0, prior_logit(1.0, hyper)) == 1.0
    assert inclusion_prob(1e6, 1e4, prior_logit(1e4, hyper)) == 1.0  # exponent far beyond overflow


def test_inclusion_prob_grad_values():
    hyper = Hyperparams(pi=0.5, tau=1.0)
    assert inclusion_prob_grad(0.0, 5.0, 0.3) == 0.0
    alpha = inclusion_prob(1.0, 2.0, prior_logit(2.0, hyper))
    assert inclusion_prob_grad(1.0, 2.0, alpha) == pytest.approx(
        PSI_GRAD_AT_ONE, abs=1e-14
    )
    assert inclusion_prob_grad(3.0, 2.0, 1.0) == 0.0  # saturated


def test_inclusion_prob_grad_matches_central_difference():
    hyper = Hyperparams(pi=0.5, tau=1.0)
    h = 1e-6
    for a in (1.0, 10.0, 100.0):
        for mu in (-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0):
            logit = prior_logit(a, hyper)
            grad = inclusion_prob_grad(mu, a, inclusion_prob(mu, a, logit))
            fd = (inclusion_prob(mu + h, a, logit) - inclusion_prob(mu - h, a, logit)) / (2 * h)
            assert grad == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_state_alpha_is_derived():
    ds = make_dataset(GenSpec(n=30, p=5, s=2, seed=3))
    hyper = Hyperparams(pi=0.5, tau=1.0)
    pre = precompute(ds, hyper)
    state = engines.run(pre, cfg=engines.RunConfig(max_iter=3)).final_state
    np.testing.assert_allclose(
        state.alpha, inclusion_prob(state.mu, pre.a, pre.prior_logit), atol=1e-12
    )
    mu = np.linspace(-1, 1, 5)
    with pytest.raises(ValueError):
        VariationalState(mu=mu, alpha=np.full(5, 2.0))


def test_elbo_zero_mean_orthonormal_hand_computed():
    # orthonormal design, mu = 0: coupling terms vanish and every summand is
    # available in closed form, re-derived here term by term; the second prior
    # moves pi, tau and sigma2 off 1/2, 1 and 1, so the ELBO must read all three
    n, p = 4, 3
    X = np.zeros((n, p))
    X[0, 0] = X[1, 1] = X[2, 2] = 1.0
    y = np.array([1.0, -2.0, 0.5, 3.0])
    ds = Dataset(X=X, y=y)
    mu = np.zeros(p)

    # pi = 1/2, tau = sigma2 = 1: a = |X_j|^2 + tau = 2, alpha = sigmoid(log(1/sqrt(2)))
    pre = precompute(ds, Hyperparams(pi=0.5, tau=1.0, sigma2=1.0))
    state = VariationalState(mu, inclusion_prob(mu, pre.a, pre.prior_logit))
    a = 2.0
    alpha = 1.0 / (1.0 + math.sqrt(a))
    assert state.alpha[0] == pytest.approx(alpha, abs=1e-14)
    loglik = -n / 2 * math.log(2 * math.pi) - y @ y / 2 - p * alpha * (1 / a) / 2
    slab_kl = -0.5 * alpha * (1 + math.log(1 / a) - 1 / a)
    bern_kl = alpha * math.log(alpha / 0.5) + (1 - alpha) * math.log((1 - alpha) / 0.5)
    expected = loglik - p * (slab_kl + bern_kl)
    assert elbo(state, pre) == pytest.approx(expected, abs=1e-12)

    # pi = 0.1, tau = 10, sigma2 = 2: a = |X_j|^2 / sigma2 + tau = 10.5 and
    # alpha / (1 - alpha) = (pi / (1 - pi)) sqrt(tau / a) = sqrt(20/21) / 9
    pi, tau, sigma2 = 0.1, 10.0, 2.0
    pre = precompute(ds, Hyperparams(pi=pi, tau=tau, sigma2=sigma2))
    state = VariationalState(mu, inclusion_prob(mu, pre.a, pre.prior_logit))
    a = 10.5
    odds = math.sqrt(20.0 / 21.0) / 9.0
    alpha = odds / (1.0 + odds)
    assert state.alpha[0] == pytest.approx(alpha, abs=1e-14)
    loglik = (
        -n / 2 * math.log(2 * math.pi * sigma2) - y @ y / (2 * sigma2)
        - p * alpha * (1 / a) / (2 * sigma2)
    )
    slab_kl = -0.5 * alpha * (1 + math.log(tau / a) - tau / a)
    bern_kl = alpha * math.log(alpha / pi) + (1 - alpha) * math.log((1 - alpha) / (1 - pi))
    expected = loglik - p * (slab_kl + bern_kl)
    assert elbo(state, pre) == pytest.approx(expected, abs=1e-12)


def test_elbo_handles_saturated_alpha():
    ds = make_dataset(GenSpec(n=50, p=3, s=3, amplitude=20.0, seed=5))
    hyper = Hyperparams(pi=0.5, tau=1.0)
    pre = precompute(ds, hyper)
    mu = np.full(3, 20.0)
    state = VariationalState(mu, inclusion_prob(mu, pre.a, pre.prior_logit))
    assert np.all(state.alpha == 1.0)
    assert math.isfinite(elbo(state, pre))
