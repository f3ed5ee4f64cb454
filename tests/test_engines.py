"""Engine tests: sweep semantics, dual forms, degeneracies, driver behavior."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.blas import dtrmv, dtrsv
from scipy.special import expit

from sscavi import cli, engines, harness
from sscavi.engines import (
    PARALLEL,
    SEQUENTIAL,
    FixedPointError,
    RunConfig,
    Scheme,
    fixed_point,
    par_sweep,
    run,
    seq_sweep,
    sweep_residuals,
)
from sscavi.model import (
    Dataset,
    Hyperparams,
    VariationalState,
    elbo,
    inclusion_prob,
    precompute,
)
from sscavi.synth import GenSpec, make_dataset, replicate_seed
from sscavi.verify import (
    coordinate_seq_sweep,
    pinned_gauss_seidel,
    ridge_system,
    sweep_map,
    textbook_gauss_seidel_sweep,
    textbook_jacobi_sweep,
)

from conftest import elbo_nondecreasing

HYPER = Hyperparams(pi=0.5, tau=1.0, sigma2=1.0)


def _random_instance(n, p, s, seed):
    ds = make_dataset(GenSpec(n=n, p=p, s=s, seed=seed))
    return ds, precompute(ds, HYPER)


def test_single_coordinate_sweeps_ignore_state():
    ds = Dataset(X=np.array([[1.0], [1.0]]), y=np.array([1.0, 1.0]))
    pre = precompute(ds, HYPER)
    expected = pre.xty[0] / pre.d[0]
    for mu0 in (-5.0, 0.0, 7.0):
        mu = np.array([mu0])
        alpha = inclusion_prob(mu, pre.a, pre.prior_logit)
        assert seq_sweep(mu, alpha, pre)[0] == pytest.approx(expected)
        assert par_sweep(mu, alpha, pre)[0] == pytest.approx(expected)


def test_orthogonal_design_sweeps_coincide():
    X = np.vstack([np.eye(4) * 2.0, np.zeros((2, 4))])
    ds = Dataset(X=X, y=np.array([1.0, -1.0, 2.0, 0.5, 0.0, 0.0]))
    pre = precompute(ds, HYPER)
    rng = np.random.default_rng(0)
    target = pre.xty / pre.d
    for _ in range(3):
        mu = rng.standard_normal(4)
        alpha = inclusion_prob(mu, pre.a, pre.prior_logit)
        np.testing.assert_allclose(seq_sweep(mu, alpha, pre), target, atol=1e-14)
        np.testing.assert_allclose(par_sweep(mu, alpha, pre), target, atol=1e-14)


def test_sweep_dual_forms_agree():
    _, pre = _random_instance(40, 8, 4, seed=7)
    rng = np.random.default_rng(7)
    for _ in range(5):
        mu = rng.standard_normal(8)
        alpha = inclusion_prob(mu, pre.a, pre.prior_logit)
        np.testing.assert_allclose(
            seq_sweep(mu, alpha, pre), coordinate_seq_sweep(mu, alpha, pre), atol=1e-10
        )
        np.testing.assert_allclose(
            par_sweep(mu, alpha, pre),
            textbook_jacobi_sweep(ridge_system(pre), pre.xty, alpha * mu),
            atol=1e-10,
        )


def test_seq_sweep_coordinate_recursion_explicit():
    # spell the recursion out with loops, fresh means below j, stale above
    ds, pre = _random_instance(30, 6, 3, seed=11)
    gram = ds.X.T @ ds.X
    rng = np.random.default_rng(11)
    mu = rng.standard_normal(6)
    alpha = inclusion_prob(mu, pre.a, pre.prior_logit)
    expected = np.empty(6)
    for j in range(6):
        acc = pre.xty[j]
        for l in range(j):
            acc -= gram[j, l] * alpha[l] * expected[l]
        for l in range(j + 1, 6):
            acc -= gram[j, l] * alpha[l] * mu[l]
        expected[j] = acc / pre.d[j]
    np.testing.assert_allclose(seq_sweep(mu, alpha, pre), expected, atol=1e-13)


entries = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_subnormal=False)
probs = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def sweep_inputs(draw):
    """A design with p in [1, 12], optionally one zero column, a mean vector
    and either None, for alpha(mu), or a drawn alpha with exact 0s and 1s."""
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


def _assert_matches_coordinate_loop(ds, mu, drawn_alpha):
    pre = precompute(ds, HYPER)
    alpha = inclusion_prob(mu, pre.a, pre.prior_logit) if drawn_alpha is None else drawn_alpha
    expected = coordinate_seq_sweep(mu, alpha, pre)
    got = seq_sweep(mu, alpha, pre)
    scale = max(float(np.max(np.abs(expected))), np.finfo(float).tiny)
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale


@given(sweep_inputs())
@settings(max_examples=300, deadline=None)
def test_seq_sweep_matches_coordinate_loop(inputs):
    _assert_matches_coordinate_loop(*inputs)


@st.composite
def blocked_sweep_inputs(draw):
    """Like :func:`sweep_inputs`, but for a drawn block size, 64 or the
    shipped ``engines._BLOCK``, p sits on or across its boundaries (one, two
    and four blocks, the last one partial), with n below and above p; the
    entries come from a drawn seed, so the arrays stay cheap to draw."""
    block = draw(st.sampled_from([64, engines._BLOCK]))
    p = draw(st.sampled_from([block - 1, block, block + 1, 2 * block, 2 * block + 1, 3 * block + 8]))
    n = draw(st.sampled_from([p // 2, 2 * p]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X = rng.standard_normal((n, p))
    zero_col = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=p - 1)))
    if zero_col is not None:
        X[:, zero_col] = 0.0
    mu = 3.0 * rng.standard_normal(p)
    alpha = None
    if draw(st.booleans()):
        alpha = rng.random(p)
        alpha[rng.random(p) < 0.25] = 0.0
        alpha[rng.random(p) < 0.25] = 1.0
    return block, (Dataset(X=X, y=rng.standard_normal(n)), mu, alpha)


@given(blocked_sweep_inputs())
@settings(max_examples=40, deadline=None)
def test_blocked_seq_sweep_matches_coordinate_loop(drawn):
    block, inputs = drawn
    with mock.patch.object(engines, "_BLOCK", block):
        _assert_matches_coordinate_loop(*inputs)


@given(st.one_of(sweep_inputs().map(lambda inputs: (engines._BLOCK, inputs)), blocked_sweep_inputs()))
@settings(max_examples=60, deadline=None)
def test_sweep_residuals_match_direct_sweeps(drawn):
    # the one residual site agrees with the direct sweeps, on and across block boundaries
    block, (ds, mu, drawn_alpha) = drawn
    pre = precompute(ds, HYPER)
    alpha = inclusion_prob(mu, pre.a, pre.prior_logit) if drawn_alpha is None else drawn_alpha
    with mock.patch.object(engines, "_BLOCK", block):
        seq_res, par_res, swept = sweep_residuals(mu, alpha, pre)
        direct = seq_sweep(mu, alpha, pre)
    assert np.array_equal(swept, direct)
    direct_seq = np.max(np.abs(direct - mu))
    direct_par = np.max(np.abs(par_sweep(mu, alpha, pre) - mu))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(mu))))
    assert abs(seq_res - direct_seq) <= tol
    assert abs(par_res - direct_par) <= tol


def test_spectral_replicate_sweeps_fixed_point_twice(monkeypatch):
    # past its n_iter iterations, a replicate sweeps its fixed point once to
    # certify it and once in analyze_stability, whose residual and sequential
    # Jacobian share that sweep
    seed, cfg = replicate_seed(0, 0), RunConfig(max_iter=500)
    ds = make_dataset(GenSpec(n=200, p=50, s=25, seed=seed))
    n_iter = run(precompute(ds, HYPER), Scheme("sequential"), cfg).n_iter
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return seq_sweep(*args, **kwargs)

    monkeypatch.setattr(engines, "seq_sweep", counted)
    assert harness.spectral_replicate(200, 50, 25, seed, HYPER, cfg)["seq_converged"]
    assert len(calls) == n_iter + 2


def test_sweeps_propagate_nonfinite():
    # at p = _BLOCK + 44 the sequential sweep runs two blocks: a NaN in the
    # first block and one in the last must both reach the output
    wide = engines._BLOCK + 44
    for p, nan_at in ((6, 0), (wide, 3), (wide, wide - 10)):
        ds = make_dataset(GenSpec(n=80, p=p, s=3, seed=2))
        pre = precompute(ds, HYPER)
        mu = np.random.default_rng(2).standard_normal(p)
        mu[nan_at] = np.nan
        for sweep in (seq_sweep, par_sweep):
            assert np.any(~np.isfinite(sweep(mu, inclusion_prob(mu, pre.a, pre.prior_logit), pre)))


def test_seq_sweep_allocates_no_square_system():
    # the blocked sweep writes one 256 x 256 block (512 KB) at a time; building
    # the whole p x p system, as a single solve must, peaks at 8 MB here
    ds = make_dataset(GenSpec(n=50, p=1000, s=10, seed=4))
    pre = precompute(ds, HYPER)
    mu = pre.xty / pre.d
    tracemalloc.start()
    try:
        seq_sweep(mu, inclusion_prob(mu, pre.a, pre.prior_logit), pre)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _whole_system_sweep(mu, alpha, pre):
    """The unblocked sequential sweep: one ``dtrsv`` on the whole p x p system,
    built here with ``fill_diagonal``, after the production sweep's right-hand
    side (the same ``dtrmv``)."""
    mu = np.ascontiguousarray(mu, dtype=np.float64)
    rhs = pre.xty - dtrmv(pre.xtx_lower.T, alpha * mu)
    system = pre.xtx_lower * alpha
    np.fill_diagonal(system, pre.d)
    return dtrsv(system.T, rhs, lower=0, trans=1)


def test_default_study_matches_whole_system_sweep(tmp_path, monkeypatch):
    # the default grids (p <= 50) fit one block, so rho.csv is the unblocked sweep's, bytes and all
    assert cli.main(["spectral-study", "--reps", "2", "--out", str(tmp_path / "blocked")]) == 0
    monkeypatch.setattr(engines, "seq_sweep", _whole_system_sweep)
    assert cli.main(["spectral-study", "--reps", "2", "--out", str(tmp_path / "whole")]) == 0
    blocked = (tmp_path / "blocked" / "rho.csv").read_bytes()
    assert blocked == (tmp_path / "whole" / "rho.csv").read_bytes()


@pytest.mark.parametrize("shape", [(200, 50, 5), (100, 50, 50)], ids=["200-50-5", "100-50-50"])
def test_per_coordinate_map_shares_fixed_points(shape):
    # the package ships the frozen-alpha sweep only; the per-coordinate map,
    # which refreshes alpha[j] right after mu[j], has the same fixed points but
    # is a different map away from them
    cfg = RunConfig(max_iter=500)
    for r in range(3):
        ds, pre = _random_instance(*shape, seed=replicate_seed(0, r))
        mu_star = fixed_point(pre, cfg).mu
        swept = coordinate_seq_sweep(
            mu_star, inclusion_prob(mu_star, pre.a, pre.prior_logit), pre, refresh=True
        )
        assert np.max(np.abs(swept - mu_star)) < 10 * cfg.tol
        mu = pre.xty / pre.d  # the diagls init, far from the fixed point
        alpha = inclusion_prob(mu, pre.a, pre.prior_logit)
        refreshed = coordinate_seq_sweep(mu, alpha, pre, refresh=True)
        assert not np.allclose(refreshed, seq_sweep(mu, alpha, pre))


@pytest.mark.parametrize("seed", range(5))
def test_pinned_sweeps_match_textbook_splittings(seed):
    ds, pre = _random_instance(60, 10, 5, seed=seed + 100)
    ridge = ridge_system(pre)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(10)
    ones = np.ones(10)
    np.testing.assert_allclose(
        seq_sweep(x, ones, pre),
        textbook_gauss_seidel_sweep(ridge, pre.xty, x),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        par_sweep(x, ones, pre),
        textbook_jacobi_sweep(ridge, pre.xty, x),
        atol=1e-12,
    )
    # pinned at zero, every coordinate decouples: both sweeps give xty / d exactly
    zeros = np.zeros(10)
    np.testing.assert_array_equal(seq_sweep(x, zeros, pre), pre.xty / pre.d)
    np.testing.assert_array_equal(par_sweep(x, zeros, pre), pre.xty / pre.d)


def test_pinned_sequential_run_solves_ridge_system():
    ds, pre = _random_instance(60, 10, 5, seed=21)
    direct = np.linalg.solve(ridge_system(pre), pre.xty)
    converged, mu = pinned_gauss_seidel(pre)
    assert converged
    np.testing.assert_allclose(mu, direct, atol=1e-6)


def test_run_sequential_running_example(running_example_runs):
    ds, seq, _ = running_example_runs[0]
    assert seq.status == "converged"
    assert elbo_nondecreasing(seq)
    assert seq.step_sup_norm[-1] < 1e-8
    pre = precompute(ds, HYPER)
    np.testing.assert_allclose(
        seq.final_state.alpha,
        inclusion_prob(seq.final_state.mu, pre.a, pre.prior_logit),
        atol=1e-12,
    )


def test_run_parallel_dense_diverges():
    ds, pre = _random_instance(100, 50, 50, seed=1)
    trace = run(pre, Scheme("parallel"), RunConfig())
    assert trace.status == "diverged"
    assert trace.iterations[-1] == trace.n_iter


def test_run_records_match_status():
    ds, pre = _random_instance(50, 8, 4, seed=2)
    trace = run(pre, Scheme("sequential"), RunConfig(max_iter=3, tol=1e-14))
    assert trace.status == "max_iter"
    assert trace.n_iter == 3
    assert len(trace.elbo) == 4  # init row plus three sweeps
    # the ELBO reads the data and the prior from pre, the problem run was given
    assert trace.elbo[-1] == elbo(trace.final_state, pre)


def test_fixed_point_residuals():
    ds, pre = _random_instance(200, 50, 25, seed=0)
    cfg = RunConfig(max_iter=500, tol=1e-8)
    state = fixed_point(pre, cfg)
    alpha = inclusion_prob(state.mu, pre.a, pre.prior_logit)
    seq_res = np.max(np.abs(seq_sweep(state.mu, alpha, pre) - state.mu))
    par_res = np.max(np.abs(par_sweep(state.mu, alpha, pre) - state.mu))
    assert seq_res < 10 * cfg.tol
    assert par_res < 10 * cfg.tol


def test_fixed_point_shared_within_operator_norm_slack():
    # a state that is nearly fixed for the sequential map is nearly fixed for
    # the parallel map, with constant 1 + ||D^{-1} L|| in sup norm
    for seed in range(3):
        ds, pre = _random_instance(120, 30, 15, seed=seed + 40)
        state = fixed_point(pre, RunConfig(max_iter=500, tol=1e-8))
        eps = 1e-8
        growth = 1.0 + np.max(np.sum(np.abs(pre.xtx_lower / pre.d[:, None]), axis=1))
        alpha = inclusion_prob(state.mu, pre.a, pre.prior_logit)
        par_res = np.max(np.abs(par_sweep(state.mu, alpha, pre) - state.mu))
        assert par_res < 100 * growth * eps


def test_fixed_point_orthogonal_single_sweep():
    X = np.vstack([np.eye(3) * 1.5, np.zeros((1, 3))])
    ds = Dataset(X=X, y=np.array([2.0, -1.0, 0.5, 0.0]))
    pre = precompute(ds, HYPER)
    state = fixed_point(pre)
    np.testing.assert_allclose(state.mu, pre.xty / pre.d, atol=1e-12)


def test_fixed_point_evaluates_no_elbo(monkeypatch):
    # fixed_point never reads the ELBO, so it must not compute one; its
    # iterate is the sequential run's, bit for bit
    ds, pre = _random_instance(200, 50, 25, seed=0)
    cfg = RunConfig(max_iter=500)
    trace = run(pre, Scheme("sequential"), cfg)

    def no_elbo(*_args, **_kwargs):
        raise AssertionError("fixed_point evaluated the ELBO")

    monkeypatch.setattr(engines, "_elbo", no_elbo)
    state = fixed_point(pre, cfg)
    assert np.array_equal(state.mu, trace.final_state.mu)


def test_fixed_point_raises_when_residual_misses_target(monkeypatch):
    # every measured fixed point passes the residual check at the converged
    # iterate, so a lagging parallel residual stands in for one that misses it
    ds, pre = _random_instance(200, 50, 25, seed=0)
    cfg = RunConfig(max_iter=500)
    certified = fixed_point(pre, cfg)
    calls = []

    def lag(*args, **kwargs):
        calls.append(1)
        seq_res, par_res, swept = sweep_residuals(*args, **kwargs)
        return seq_res, par_res + 1.0, swept

    monkeypatch.setattr(engines, "sweep_residuals", lag)
    with pytest.raises(FixedPointError, match="missed the target") as info:
        fixed_point(pre, cfg)
    assert len(calls) == 1
    assert info.value.trace.status == "converged"
    assert np.array_equal(info.value.trace.final_state.mu, certified.mu)
    assert np.array_equal(info.value.trace.final_state.alpha, certified.alpha)


def test_fixed_point_error_carries_trace(monkeypatch):
    ds, pre = _random_instance(100, 50, 50, seed=1)
    with pytest.raises(FixedPointError) as info:
        fixed_point(pre, RunConfig(max_iter=2, tol=1e-14))
    assert info.value.trace.status == "max_iter"
    assert info.value.trace.n_iter == 2

    ds, pre = _random_instance(200, 50, 25, seed=0)
    monkeypatch.setattr(RunConfig, "divergence_threshold", 1e-3)
    with pytest.raises(FixedPointError) as info:
        fixed_point(pre, RunConfig(tol=1e-9))
    assert info.value.trace.status == "diverged"
    assert info.value.trace.n_iter == 1
    assert info.value.trace.final_state.mu.shape == (50,)


def _reference_iteration(pre, sweep, cfg):
    """Both drivers' iteration from independent pieces: :func:`sweep_map` for
    the sweep, alpha written out as expit(logit(pi) + log(tau/a)/2 + a mu^2/2),
    and the stop rule as separate finiteness and step reductions. Returns the
    status, the iteration count, the final mean and alpha, and the ELBO and
    step lists of :class:`RunTrace`."""
    step_map = sweep_map(sweep, pre)

    def alpha_of(mu):
        return expit(HYPER.logit_pi + 0.5 * np.log(HYPER.tau / pre.a) + 0.5 * pre.a * mu * mu)

    mu = pre.xty / pre.d
    alpha = alpha_of(mu)
    elbos, steps = [elbo(VariationalState(mu, alpha), pre)], [np.nan]
    for t in range(1, cfg.max_iter + 1):
        mu_new = step_map(mu)
        finite = bool(np.all(np.isfinite(mu_new)))
        step = float(np.max(np.abs(mu_new - mu))) if finite else np.nan
        mu, alpha = mu_new, alpha_of(mu_new)
        elbos.append(elbo(VariationalState(mu, alpha), pre) if finite else np.nan)
        steps.append(step)
        if not finite or np.max(np.abs(mu)) > cfg.divergence_threshold:
            return "diverged", t, mu, alpha, elbos, steps
        if step < cfg.tol:
            return "converged", t, mu, alpha, elbos, steps
    return "max_iter", cfg.max_iter, mu, alpha, elbos, steps


@pytest.mark.parametrize(
    "shape, seed",
    [((100, 50, 50), 3), ((200, 50, 25), 0), ((600, 300, 30), 5)],
    ids=["100-50-50", "200-50-25", "600-300-30"],
)
def test_drivers_match_reference_iteration_bit_for_bit(shape, seed):
    # 100-50-50 is the long-converging tail of the default study; p = 300
    # runs the blocked sweep in two blocks
    ds, pre = _random_instance(*shape, seed=seed)
    cfg = RunConfig()
    for variant, sweep in ((PARALLEL, par_sweep), (SEQUENTIAL, seq_sweep)):
        status, n_iter, mu, alpha, elbos, steps = _reference_iteration(pre, sweep, cfg)
        trace = run(pre, Scheme(variant), cfg)
        assert (trace.status, trace.n_iter) == (status, n_iter)
        assert trace.iterations == list(range(n_iter + 1))
        np.testing.assert_array_equal(trace.final_state.mu, mu)
        np.testing.assert_array_equal(trace.final_state.alpha, alpha)
        np.testing.assert_array_equal(trace.elbo, elbos)
        np.testing.assert_array_equal(trace.step_sup_norm, steps)
    # the loop ends on the sequential reference, the iteration fixed_point runs
    assert status == "converged"
    state = fixed_point(pre, cfg)
    assert np.array_equal(state.mu, mu)
    assert np.array_equal(state.alpha, alpha)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_nonfinite_iterate_diverges_without_new_warnings(bad, monkeypatch):
    # a finite step certifies a finite iterate; a non-finite coordinate makes
    # the step non-finite, and only then is the iterate itself checked, so the
    # drivers stop at that iterate and emit no warning of their own
    ds, pre = _random_instance(200, 50, 25, seed=0)
    calls = []

    def poisoned(mu, alpha, pre):
        calls.append(1)
        swept = seq_sweep(mu, alpha, pre)
        if len(calls) == 3:
            swept[7] = bad
        return swept

    monkeypatch.setattr(engines, "seq_sweep", poisoned)
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace = run(pre, Scheme(SEQUENTIAL), RunConfig())
        calls.clear()
        status, n_iter, _, _ = engines._iterate(
            engines.seq_sweep, pre, RunConfig(), lambda *record: records.append(record)
        )
        calls.clear()
        with pytest.raises(FixedPointError) as info:
            fixed_point(pre)
    assert (trace.status, trace.n_iter, len(trace.elbo)) == ("diverged", 3, 4)
    assert np.isnan(trace.step_sup_norm[3]) and np.isnan(trace.elbo[3])
    assert np.all(np.isfinite(trace.elbo[:3])) and np.all(np.isfinite(trace.step_sup_norm[1:3]))
    assert (status, n_iter) == ("diverged", 3)
    t, _, _, step, finite = records[-1]
    assert t == 3 and np.isnan(step) and finite is False
    assert all(record[4] is True for record in records[:3])
    assert (info.value.trace.status, info.value.trace.n_iter) == ("diverged", 3)


def test_overflowing_step_between_finite_iterates_is_finite():
    # the other side of the rule: a step that overflows between two finite
    # iterates is an infinite step of a finite iterate, not a non-finite one
    ds = Dataset(X=np.array([[1.0]]), y=np.array([1.7e308]))
    pre = precompute(ds, Hyperparams(pi=0.5, tau=1e-300))
    records = []
    with np.errstate(over="ignore"):
        status, n_iter, _, _ = engines._iterate(
            lambda mu, alpha, pre: -mu, pre, RunConfig(), lambda *record: records.append(record)
        )
    assert (status, n_iter) == ("diverged", 1)
    t, _, _, step, finite = records[-1]
    assert t == 1 and step == np.inf and finite is True


def test_sequential_elbo_monotone_across_instances(running_example_runs):
    slack_ok = sum(elbo_nondecreasing(seq) for _, seq, _ in running_example_runs[:10])
    assert slack_ok == 10


def test_divergence_is_normal_return():
    ds, pre = _random_instance(100, 50, 50, seed=3)
    trace = run(pre, Scheme("parallel"), RunConfig())
    assert trace.status in ("diverged", "converged", "max_iter")


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(max_iter=0)
    with pytest.raises(ValueError):
        RunConfig(tol=1e8)
    with pytest.raises(ValueError):
        RunConfig(init="custom")
    with pytest.raises(ValueError):
        Scheme("diagonal")

