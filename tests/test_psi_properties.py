"""Property tests for the inclusion-probability map and its derivative."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sscavi.model import Hyperparams, inclusion_prob, inclusion_prob_grad, prior_logit

means = st.floats(min_value=-50, max_value=50, allow_nan=False)
precisions = st.floats(min_value=1.0, max_value=1e4, allow_nan=False)
probs = st.floats(min_value=1e-6, max_value=1 - 1e-6, allow_nan=False)


@given(mu=means, a=precisions, pi=probs)
@settings(max_examples=200, deadline=None)
def test_range_and_evenness(mu, a, pi):
    hyper = Hyperparams(pi=pi, tau=1.0)
    logit = prior_logit(a, hyper)
    value = inclusion_prob(mu, a, logit)
    assert 0.0 <= value <= 1.0
    assert value == inclusion_prob(-mu, a, logit)


@given(mu=st.floats(min_value=0.0, max_value=20.0), a=precisions, pi=probs)
@settings(max_examples=200, deadline=None)
def test_monotone_in_squared_mean(mu, a, pi):
    hyper = Hyperparams(pi=pi, tau=1.0)
    logit = prior_logit(a, hyper)
    lo = inclusion_prob(mu, a, logit)
    hi = inclusion_prob(mu + 0.5, a, logit)
    assert hi >= lo


@given(mu=st.floats(min_value=-5, max_value=5), a=st.floats(min_value=1.0, max_value=100.0))
@settings(max_examples=150, deadline=None)
def test_grad_matches_finite_difference(mu, a):
    hyper = Hyperparams(pi=0.5, tau=1.0)
    h = 1e-6
    logit = prior_logit(a, hyper)
    grad = inclusion_prob_grad(mu, a, inclusion_prob(mu, a, logit))
    fd = (inclusion_prob(mu + h, a, logit) - inclusion_prob(mu - h, a, logit)) / (2 * h)
    assert np.isclose(grad, fd, rtol=1e-4, atol=1e-7)


@given(mu=means, a=precisions)
@settings(max_examples=100, deadline=None)
def test_grad_sign_follows_mean(mu, a):
    hyper = Hyperparams(pi=0.5, tau=1.0)
    grad = inclusion_prob_grad(mu, a, inclusion_prob(mu, a, prior_logit(a, hyper)))
    assert np.sign(grad) in (0.0, np.sign(mu))
