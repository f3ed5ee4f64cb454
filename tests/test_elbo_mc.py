"""Monte Carlo oracle for the expected log likelihood term of the ELBO."""

import numpy as np
import pytest

from sscavi import engines
from sscavi.model import (
    Hyperparams,
    VariationalState,
    expected_loglik,
    inclusion_prob,
    precompute,
)
from sscavi.synth import GenSpec, make_dataset
from sscavi.verify import mc_expected_loglik

HYPER = Hyperparams(pi=0.5, tau=1.0, sigma2=1.0)
SAMPLES = 200_000  # the acceptance suite reruns this at a million samples


@pytest.fixture(scope="module")
def pre():
    return precompute(make_dataset(GenSpec(n=20, p=4, s=2, seed=11)), HYPER)


def _state(mu, pre):
    return VariationalState(mu, inclusion_prob(mu, pre.a, pre.prior_logit))


def _zscore(state, pre, seed):
    analytic = expected_loglik(state, pre)
    estimate, stderr = mc_expected_loglik(state, pre, SAMPLES, seed=seed)
    return abs(analytic - estimate) / stderr


def test_loglik_matches_mc_at_zero_state(pre):
    state = _state(np.zeros(4), pre)
    assert _zscore(state, pre, seed=101) < 3.0


def test_loglik_matches_mc_at_fixed_point(pre):
    state = engines.fixed_point(pre)
    assert _zscore(state, pre, seed=102) < 3.0


def test_loglik_matches_mc_at_random_state(pre):
    mu = np.random.default_rng(55).standard_normal(4)
    state = _state(mu, pre)
    assert _zscore(state, pre, seed=103) < 3.0


def test_mc_estimator_reports_sane_stderr(pre):
    state = _state(np.zeros(4), pre)
    _, stderr = mc_expected_loglik(state, pre, 50_000, seed=1)
    assert 0 < stderr < 1.0
