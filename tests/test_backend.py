"""Sweep kernels against the coordinate-loop oracle of ``sscavi.verify``.

The production sequential sweep is one triangular solve and the parallel
sweep one symmetric matrix-vector product; these tests hold the solve to the
explicit loop and check that both sweeps pass non-finite input through.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sscavi.engines import par_sweep, seq_sweep
from sscavi.model import Dataset, Hyperparams, inclusion_prob, precompute
from sscavi.synth import GenSpec, make_dataset
from sscavi.verify import coordinate_seq_sweep

HYPER = Hyperparams(pi=0.5, tau=1.0, sigma2=1.0)

entries = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_subnormal=False)
probs = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def sweep_inputs(draw):
    """A design with p in [1, 12], optionally one zero column, a mean vector
    and either no override or an alpha override with exact 0s and 1s."""
    p = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=1, max_value=15))
    X = draw(arrays(np.float64, (n, p), elements=entries))
    zero_col = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=p - 1)))
    if zero_col is not None:
        X[:, zero_col] = 0.0
    y = draw(arrays(np.float64, n, elements=entries))
    mu = draw(arrays(np.float64, p, elements=entries))
    alpha = draw(st.one_of(st.none(), arrays(np.float64, p, elements=probs)))
    return Dataset(X=X, y=y), mu, alpha


@given(sweep_inputs())
@settings(max_examples=300, deadline=None)
def test_seq_sweep_matches_coordinate_loop(inputs):
    ds, mu, alpha_override = inputs
    pre = precompute(ds, HYPER)
    alpha = inclusion_prob(mu, pre.a, HYPER) if alpha_override is None else alpha_override
    expected = coordinate_seq_sweep(mu, alpha, pre)
    got = seq_sweep(mu, pre, HYPER, alpha_override=alpha_override)
    scale = max(float(np.max(np.abs(expected))), np.finfo(float).tiny)
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale


def test_python_kernels_propagate_nonfinite():
    ds = make_dataset(GenSpec(n=80, p=6, s=3, seed=2))
    pre = precompute(ds, HYPER)
    mu = np.random.default_rng(2).standard_normal(6)
    mu[0] = np.nan
    for sweep in (seq_sweep, par_sweep):
        assert np.any(~np.isfinite(sweep(mu, pre, HYPER)))
