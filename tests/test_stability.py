"""Stability toolkit tests: Jacobians, radii, contraction checker, random-matrix statistic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscavi import cli, engines, stability
from sscavi.model import Dataset, Hyperparams, inclusion_prob, precompute
from sscavi.stability import (
    _coupling_radius,
    analyze_stability,
    check_assumption1,
    jacobian_par,
    jacobian_seq,
    spectral_radius,
    wigner_stat,
)
from sscavi.synth import GenSpec, gen_design, make_dataset, replicate_seed
from sscavi.verify import (
    dense_assumption1,
    dense_radii,
    fd_jacobian,
    gelfand_spectral_radius,
    perturbation_decay,
    ridge_system,
    sweep_map,
)

HYPER = Hyperparams(pi=0.5, tau=1.0, sigma2=1.0)


def _rho_par(mu, pre):
    """rho_par as analyze_stability takes it: the coupling radius at r = sqrt(w / d)."""
    _, _, _, w = stability._linearization(mu, pre)
    return _coupling_radius(pre, np.sqrt(w / pre.d))


def _converged_instance(n=40, p=8, s=4, seed=7):
    ds = make_dataset(GenSpec(n=n, p=p, s=s, seed=seed))
    pre = precompute(ds, HYPER)
    state = engines.fixed_point(pre, engines.RunConfig(max_iter=500))
    return ds, pre, state


def test_jacobians_vanish_for_single_coordinate():
    ds = Dataset(X=np.array([[2.0], [1.0]]), y=np.array([1.0, 0.0]))
    pre = precompute(ds, HYPER)
    mu_star = np.array([pre.xty[0] / pre.d[0]])
    np.testing.assert_array_equal(jacobian_seq(mu_star, pre), np.zeros((1, 1)))
    np.testing.assert_array_equal(jacobian_par(mu_star, pre), np.zeros((1, 1)))
    assert spectral_radius(jacobian_seq(mu_star, pre)) == 0.0


def _textbook_splittings(pre):
    """Gauss-Seidel and Jacobi iteration matrices of M = D + (L + L^T) diag(alpha(0)).

    At mu = 0 the derivative alpha' = alpha (1 - alpha) a mu vanishes, so
    w = alpha(0), and both Jacobians are the classical splittings of M.
    """
    alpha0 = inclusion_prob(np.zeros(pre.p), pre.a, pre.prior_logit)
    m = ridge_system(pre) * alpha0[None, :]
    np.fill_diagonal(m, pre.d)
    gs_matrix = -np.linalg.solve(np.tril(m), np.triu(m, 1))
    jacobi_matrix = -(m - np.diag(np.diag(m))) / np.diag(m)[:, None]
    return gs_matrix, jacobi_matrix


def test_pinned_jacobians_are_classical_iteration_matrices():
    ds = make_dataset(GenSpec(n=60, p=10, s=5, seed=17))
    pre = precompute(ds, HYPER)
    gs_matrix, jacobi_matrix = _textbook_splittings(pre)
    mu = np.zeros(10)
    np.testing.assert_allclose(jacobian_seq(mu, pre), gs_matrix, atol=1e-10)
    np.testing.assert_allclose(jacobian_par(mu, pre), jacobi_matrix, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_pinned_spectral_radii_match_textbook_splittings(seed):
    ds = make_dataset(GenSpec(n=60, p=10, s=5, seed=seed + 200))
    pre = precompute(ds, HYPER)
    gs_matrix, jacobi_matrix = _textbook_splittings(pre)
    mu = np.zeros(10)
    rho_gs, rho_jac = spectral_radius(gs_matrix), spectral_radius(jacobi_matrix)
    assert spectral_radius(jacobian_seq(mu, pre)) == pytest.approx(rho_gs, abs=1e-8)
    assert spectral_radius(jacobian_par(mu, pre)) == pytest.approx(rho_jac, abs=1e-8)


def test_jacobians_match_finite_differences():
    ds, pre, state = _converged_instance()
    # the fixed point, and a random point where the sweep moves mu (S(mu) != mu)
    off_point = np.random.default_rng(11).standard_normal(pre.p)
    for mu in (state.mu, off_point):
        fd_seq = fd_jacobian(sweep_map(engines.seq_sweep, pre), mu)
        fd_par = fd_jacobian(sweep_map(engines.par_sweep, pre), mu)
        err_seq = np.max(np.abs(jacobian_seq(mu, pre) - fd_seq) / (1 + np.abs(fd_seq)))
        err_par = np.max(np.abs(jacobian_par(mu, pre) - fd_par) / (1 + np.abs(fd_par)))
        assert err_seq < 1e-5
        assert err_par < 1e-5


def test_dropping_inhomogeneous_term_breaks_fd_match():
    # mutation sanity: remove the columns coming from the inhomogeneous part
    # of the sweep map and the finite-difference check must catch it
    from scipy.linalg import solve_triangular

    from sscavi.model import inclusion_prob_grad

    ds, pre, state = _converged_instance()
    alpha = state.alpha
    grad = inclusion_prob_grad(state.mu, pre.a, alpha)
    sweep_sys = pre.xtx_lower * alpha[None, :]
    np.fill_diagonal(sweep_sys, pre.d)
    low_solved = solve_triangular(sweep_sys, pre.xtx_lower, lower=True)
    h_vec = solve_triangular(sweep_sys, pre.xty, lower=True)
    h_columns = -low_solved * (grad * h_vec)[None, :]

    mutated = jacobian_seq(state.mu, pre) - h_columns
    fd = fd_jacobian(sweep_map(engines.seq_sweep, pre), state.mu)
    err = np.max(np.abs(mutated - fd) / (1 + np.abs(fd)))
    assert err > 1e-5


def test_spectral_radius_raises_when_eigensolver_fails(monkeypatch):
    def raising_eigvals(_):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvals", raising_eigvals)
    with pytest.raises(np.linalg.LinAlgError, match="no convergence"):
        spectral_radius(np.diag([0.5, -0.25]))


@pytest.mark.parametrize(
    "n,p,s,seed",
    [(2 * stability._KRYLOV_MIN_P + 20, stability._KRYLOV_MIN_P + 10, 55, seed) for seed in (0, 1, 2)]
    + [(800, 400, 200, seed) for seed in (0, 1)],
)
def test_krylov_radii_match_dense_solvers(n, p, s, seed):
    # above the crossover both radii come from ARPACK; the dense solvers are the oracle
    ds = make_dataset(GenSpec(n=n, p=p, s=s, seed=replicate_seed(11, seed)))
    pre = precompute(ds, HYPER)
    state = engines.fixed_point(pre, engines.RunConfig(max_iter=500))
    report = analyze_stability(state.mu, pre)
    dense_seq, dense_par = dense_radii(state.mu, pre)
    assert abs(report.rho_seq - dense_seq) <= 1e-12 * dense_seq
    assert abs(report.rho_par - dense_par) <= 1e-12 * dense_par


def test_krylov_degenerate_matrices_return_dense_result():
    p = 400
    strict = np.tril(np.random.default_rng(2).standard_normal((p, p)), k=-1)
    # a zero operator makes ARPACK stop on a zero Krylov vector (error -9); a
    # nilpotent one never converges; both fall back to the dense solve
    for mat in (np.zeros((p, p)), strict):
        assert stability._krylov_radius(mat.dot, p, False, lambda: np.linalg.eigvals(mat)) == 0.0
    # a decoupled design: both Jacobians vanish
    X = np.vstack([2.0 * np.eye(p), np.zeros((3, p))])
    pre = precompute(Dataset(X=X, y=np.arange(p + 3, dtype=float) / p), HYPER)
    mu = pre.xty / pre.d
    assert _rho_par(mu, pre) == 0.0
    assert analyze_stability(mu, pre).rho_seq == 0.0


def test_krylov_failure_falls_back_to_dense(monkeypatch):
    import scipy.sparse.linalg as sla

    ds, pre, state = _converged_instance(n=800, p=400, s=200, seed=3)
    jac = jacobian_seq(state.mu, pre)
    monkeypatch.setattr(stability, "_KRYLOV_MIN_P", 10**9)
    dense_seq, dense_par = spectral_radius(jac), _rho_par(state.mu, pre)
    dense_check = check_assumption1(state.mu, pre)
    monkeypatch.undo()

    calls = []

    def no_convergence(*_args, **_kwargs):
        calls.append(1)
        raise sla.ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty(0))

    monkeypatch.setattr(sla, "eigs", no_convergence)
    monkeypatch.setattr(sla, "eigsh", no_convergence)
    assert spectral_radius(jac) == dense_seq
    assert _rho_par(state.mu, pre) == dense_par
    assert check_assumption1(state.mu, pre) == dense_check
    assert len(calls) == 3
    # the Jacobian operator falls back to eigvals on its dense form, jacobian_seq
    report = analyze_stability(state.mu, pre)
    assert (report.rho_seq, report.rho_par) == (dense_seq, dense_par)
    assert report.assumption1 == dense_check
    assert len(calls) == 7

    def raising_eigvals(_):
        raise np.linalg.LinAlgError("no convergence")

    # when the dense fallback fails too, the failure is the dense solver's
    monkeypatch.setattr(np.linalg, "eigvals", raising_eigvals)
    with pytest.raises(np.linalg.LinAlgError, match="no convergence"):
        spectral_radius(jac)


def test_spectral_radius_is_dense_at_any_size(monkeypatch):
    # the oracle never goes through ARPACK, even far above the crossover
    import scipy.sparse.linalg as sla

    _, pre, state = _converged_instance(n=800, p=400, s=200, seed=3)
    jac = jacobian_seq(state.mu, pre)
    dense = float(np.max(np.abs(np.linalg.eigvals(jac))))

    def no_arpack(*_args, **_kwargs):
        raise AssertionError("spectral_radius called ARPACK")

    monkeypatch.setattr(sla, "eigs", no_arpack)
    monkeypatch.setattr(sla, "eigsh", no_arpack)
    assert spectral_radius(jac) == dense


def test_default_study_stays_on_dense_path(tmp_path, monkeypatch):
    # the default grids (p <= 50) sit below the crossover: rho.csv is the dense path's, bytes and all
    assert cli.main(["spectral-study", "--reps", "2", "--out", str(tmp_path / "auto")]) == 0
    monkeypatch.setattr(stability, "_KRYLOV_MIN_P", 10**9)
    assert cli.main(["spectral-study", "--reps", "2", "--out", str(tmp_path / "dense")]) == 0
    auto = (tmp_path / "auto" / "rho.csv").read_bytes()
    assert auto == (tmp_path / "dense" / "rho.csv").read_bytes()


def test_fd_jacobian_recovers_linear_map():
    rng = np.random.default_rng(4)
    K = rng.standard_normal((6, 6))
    jac = fd_jacobian(lambda x: K @ x, rng.standard_normal(6), h=1e-5)
    np.testing.assert_allclose(jac, K, atol=1e-9)
    with pytest.raises(ValueError):
        fd_jacobian(lambda x: x, np.zeros(2), h=0.0)


def test_spectral_radius_closed_forms():
    assert spectral_radius(np.eye(5)) == pytest.approx(1.0)
    assert spectral_radius(np.diag([0.5, -0.25])) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))
    with pytest.raises(ValueError):
        spectral_radius(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_spectral_radius_against_norm_growth_oracle():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((8, 8))
    direct = spectral_radius(mat)
    oracle = gelfand_spectral_radius(mat)
    assert abs(direct - oracle) / direct < 0.01


def test_gelfand_handles_nilpotent():
    assert gelfand_spectral_radius(np.diag([1.0, 2.0], k=1)) == 0.0


def test_parallel_radius_equals_similar_factorization():
    ds, pre, state = _converged_instance(n=60, p=12, s=6, seed=5)
    jac = jacobian_par(state.mu, pre)
    # D^{1/2} J D^{-1/2} = -(scaled off-diagonal Gram) diag(alpha (1 + mu^2 a (1 - alpha)))
    gram = ridge_system(pre)
    offdiag = (gram - np.diag(np.diag(gram))) / np.sqrt(np.outer(pre.d, pre.d))
    curvature = state.mu**2 * pre.a * (1.0 - state.alpha)
    similar = -offdiag * ((1.0 + curvature) * state.alpha)[None, :]
    assert spectral_radius(jac) == pytest.approx(spectral_radius(similar), abs=1e-8)


@given(
    p=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    zero_cols=st.lists(st.booleans(), min_size=12, max_size=12),
    scale=st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_par_radius_symmetric_route_matches_eigvals(p, seed, zero_cols, scale):
    # a random design with some columns zeroed and a mean vector off any fixed point
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((2 * p + 3, p))
    X[:, np.array(zero_cols[:p])] = 0.0
    pre = precompute(Dataset(X=X, y=rng.standard_normal(2 * p + 3)), HYPER)
    mu = scale * rng.standard_normal(p)
    oracle = spectral_radius(jacobian_par(mu, pre))
    assert abs(_rho_par(mu, pre) - oracle) <= 1e-10 * oracle


def test_par_radius_rejects_nonfinite_mean():
    ds, pre, state = _converged_instance()
    mu = state.mu.copy()
    mu[2] = np.nan
    for entry in (check_assumption1, analyze_stability, jacobian_seq, jacobian_par):
        with pytest.raises(ValueError, match="finite"):
            entry(mu, pre)
    X = ds.X.copy()
    X[3, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        wigner_stat(X, tau=1.0)


@pytest.mark.parametrize("shape", [(7,), (8, 1), ()], ids=["short", "column", "scalar"])
def test_mean_of_the_wrong_shape_is_rejected(shape):
    # broadcasting would otherwise turn a (p, 1) mean into a p x p x p "Jacobian"
    _, pre, state = _converged_instance()
    assert pre.p == 8
    mu = np.resize(state.mu, shape)
    for entry in (jacobian_seq, jacobian_par, check_assumption1, analyze_stability):
        with pytest.raises(ValueError, match=r"mu_star must have shape \(8,\)"):
            entry(mu, pre)


def _collinear_instance(n, p):
    """Nearly collinear columns: a large coupling norm pulls delta_bound below 0.5."""
    rng = np.random.default_rng(4)
    X = rng.standard_normal((n, 1)) + 0.1 * rng.standard_normal((n, p))
    pre = precompute(Dataset(X=X, y=rng.standard_normal(n)), HYPER)
    return pre, 0.5 * rng.standard_normal(p)


def _assumption1_instances():
    """(label, pre, mu) for the default study grids, wide designs on both sides
    of the Krylov crossover, the saturated regime, the zero-mean state, a
    decoupled orthogonal design and nearly collinear designs below and above
    the crossover."""
    shapes = [(100, p, p, 0) for p in (10, 20, 30, 40, 50)]
    shapes += [(200, 50, s, 0) for s in (5, 15, 25, 35, 45)]
    wide = stability._KRYLOV_MIN_P + 10
    shapes += [(2 * wide + 20, wide, 55, r) for r in (0, 1)]
    shapes += [(800, 400, 200, r) for r in (0, 1, 2)]
    cases = []
    for n, p, s, r in shapes:
        ds = make_dataset(GenSpec(n=n, p=p, s=s, seed=replicate_seed(0, r)))
        pre = precompute(ds, HYPER)
        state = engines.fixed_point(pre, engines.RunConfig(max_iter=500))
        cases.append((f"{n},{p},{s} #{r}", pre, state.mu))
    ds = make_dataset(GenSpec(n=400, p=20, s=20, amplitude=5.0, seed=5))
    pre = precompute(ds, HYPER)
    state = engines.fixed_point(pre, engines.RunConfig(max_iter=500))
    cases.append(("saturated", pre, state.mu))
    cases.append(("zero mean", precompute(make_dataset(GenSpec(n=50, p=6, s=3, seed=9)), HYPER),
                  np.zeros(6)))
    X = np.vstack([np.eye(3) * 2.0, np.zeros((2, 3))])
    pre = precompute(Dataset(X=X, y=np.array([1.0, 2.0, -1.0, 0.0, 0.0])), HYPER)
    cases.append(("decoupled", pre, np.array([0.3, -0.2, 0.5])))
    cases.append(("collinear", *_collinear_instance(30, 8)))
    cases.append(("wide collinear", *_collinear_instance(120, wide)))
    return cases


def test_assumption1_matches_dense_oracle():
    lam_min_branches = set()
    for label, pre, mu in _assumption1_instances():
        got = check_assumption1(mu, pre)
        want = dense_assumption1(mu, pre)
        for name in ("delta_quad", "coupling_norm_sq", "delta_bound"):
            assert np.isclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=0.0), (
                label, name, getattr(got, name), getattr(want, name))
        assert got.satisfied == want.satisfied, label
        if label == "zero mean":
            assert got.delta_star == pytest.approx(0.0, abs=1e-30)
        alpha = np.clip(inclusion_prob(mu, pre.a, pre.prior_logit), 1e-12, 1.0 - 1e-12)
        if got.coupling_norm_sq > 2.0 * np.min(1.0 / alpha):
            # outside the Weyl shortcut: lam_min comes from eigvalsh
            lam_min_branches.add(label)
            assert got.delta_bound < 0.5, label
    assert lam_min_branches == {"collinear", "wide collinear"}


def test_assumption1_flags_singular_core():
    # p > n with a vanishing ridge: the scaled core has rank n and cannot be
    # factored, on either side of the Krylov crossover
    hyper = Hyperparams(pi=0.5, tau=1e-20, sigma2=1.0)
    for n, p in ((20, 40), (60, stability._KRYLOV_MIN_P + 10)):
        ds = make_dataset(GenSpec(n=n, p=p, s=p, seed=replicate_seed(0, 0)))
        pre = precompute(ds, hyper)
        state = engines.fixed_point(pre, engines.RunConfig(max_iter=500))
        result = check_assumption1(state.mu, pre)
        assert "core_not_positive_definite" in result.flags, p
        assert not result.satisfied, p
        for name in ("delta_star", "delta_bound", "delta_quad", "coupling_norm_sq"):
            assert np.isnan(getattr(result, name)), (p, name)


def test_assumption1_zero_mean_state():
    ds = make_dataset(GenSpec(n=50, p=6, s=3, seed=9))
    pre = precompute(ds, HYPER)
    result = check_assumption1(np.zeros(6), pre)
    assert result.delta_star == pytest.approx(0.0, abs=1e-30)
    assert result.satisfied


def test_assumption1_orthogonal_design_flagged_vacuous():
    X = np.vstack([np.eye(3) * 2.0, np.zeros((2, 3))])
    ds = Dataset(X=X, y=np.array([1.0, 2.0, -1.0, 0.0, 0.0]))
    pre = precompute(ds, HYPER)
    result = check_assumption1(np.array([0.3, -0.2, 0.5]), pre)
    assert result.coupling_norm_sq < 1e-14
    assert result.satisfied
    assert "decoupled" in result.flags


def test_assumption1_strong_signal_regime():
    ds = make_dataset(GenSpec(n=400, p=20, s=20, amplitude=5.0, seed=5))
    pre = precompute(ds, HYPER)
    state = engines.fixed_point(pre, engines.RunConfig(max_iter=500))
    result = check_assumption1(state.mu, pre)
    assert result.satisfied
    # clamped saturation leaves a tiny residual, far below the 0.5 bound
    assert result.delta_diag < 1e-3
    assert "alpha_saturated" in result.flags


def test_theorem2_direction_on_converged_instances(dense_study, small_study):
    for row in dense_study + small_study:
        if row["seq_converged"] and row["assumption1_satisfied"]:
            assert row["rho_seq"] < 1.0


def test_parallel_radius_scale_in_saturated_regime(dense_study):
    # dense saturated regime: radius should reach the 2(1-eps)sqrt(p/n) scale
    # (with 15% slack) in at least 90% of replicates; at eps = 0 that is the
    # semicircle edge 2 sqrt(p/n), below the Marchenko-Pastur edge
    # p/n + 2 sqrt(p/n) of wigner_stat, the saturated parallel radius
    hits = total = 0
    for row in dense_study:
        if not row["seq_converged"]:
            continue
        total += 1
        eps = 1.0 - row["alpha_min"]
        threshold = 2.0 * (1.0 - eps) * np.sqrt(50 / 100) * 0.85
        hits += row["rho_par"] >= threshold
    assert total > 0 and hits / total >= 0.9


def test_analyze_stability_report_fields():
    ds, pre, state = _converged_instance(n=60, p=10, s=5, seed=3)
    report = analyze_stability(state.mu, pre)
    assert report.rho_seq >= 0 and np.isfinite(report.rho_seq)
    assert report.rho_par >= 0 and np.isfinite(report.rho_par)
    assert report.seq_residual < 1e-6
    assert report.flags == []
    off_mu = state.mu + 0.5
    off_report = analyze_stability(off_mu, pre)
    assert "not_fixed_point" in off_report.flags
    # both residuals agree with the direct sweeps at a point that is not fixed
    off_alpha = inclusion_prob(off_mu, pre.a, pre.prior_logit)
    for got, sweep in ((off_report.seq_residual, engines.seq_sweep),
                       (off_report.par_residual, engines.par_sweep)):
        direct = np.max(np.abs(sweep(off_mu, off_alpha, pre) - off_mu))
        assert abs(got - direct) <= 1e-12 * direct


def test_wigner_stat_orthogonal_columns():
    X = np.vstack([np.eye(3) * 3.0, np.zeros((2, 3))])
    stat = wigner_stat(X, tau=1.0)
    assert stat.norm == pytest.approx(0.0, abs=1e-14)


def test_wigner_stat_repeated_column_pair():
    col = np.array([1.0, 2.0, 1.0, 0.0])
    X = np.column_stack([col, col])
    stat = wigner_stat(X, tau=1.0)
    # 2x2 case by hand: off-diagonal 6 normalized by (6 + tau)
    assert stat.norm == pytest.approx(6.0 / 7.0, abs=1e-12)
    assert stat.ratio == pytest.approx((6.0 / 7.0) / np.sqrt(2.0 / 4.0), abs=1e-12)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_wigner_stat_rejects_overflowing_scaled_gram():
    # two columns with d_j = 1e-310: 1 / sqrt(d) squared overflows, and 0 * inf is NaN
    X = np.zeros((4, 3))
    X[:, 0] = [1.0, 2.0, 0.0, 1.0]
    with pytest.raises(ValueError, match=r"D\^\{-1/2\}-scaled Gram triangle is not finite"):
        wigner_stat(X, 1e-310)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_check_assumption1_rejects_overflowing_scaled_gram():
    # the same design: check_assumption1 scales the triangle as wigner_stat
    # does, and inside analyze_stability's errstate the overflow itself raises
    X = np.zeros((4, 3))
    X[:, 0] = [1.0, 2.0, 0.0, 1.0]
    pre = precompute(Dataset(X=X, y=np.zeros(4)), Hyperparams(pi=0.5, tau=1e-310))
    mu = np.array([0.3, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"D\^\{-1/2\}-scaled Gram triangle is not finite"):
        check_assumption1(mu, pre)
    with pytest.raises(FloatingPointError):
        analyze_stability(mu, pre)


def test_wigner_stat_validation():
    with pytest.raises(ValueError):
        wigner_stat(np.ones((2, 3)), tau=1.0)  # p > n
    with pytest.raises(ValueError):
        wigner_stat(np.ones((5, 1)), tau=1.0)  # p < 2
    with pytest.raises(ValueError):
        wigner_stat(np.ones((5, 2)), tau=0.0)


@pytest.mark.parametrize("p", [50, 200])
@pytest.mark.parametrize("sigma2, tau", [(1.0, 1.0), (2.0, 0.5)])
def test_wigner_stat_is_saturated_parallel_radius(p, sigma2, tau):
    # p = 50 takes the dense eigensolver, p = 200 Lanczos (_KRYLOV_MIN_P = 100)
    hyper = Hyperparams(pi=0.5, tau=tau, sigma2=sigma2)
    rng = np.random.default_rng(p)
    X = rng.standard_normal((2 * p, p))
    pre = precompute(Dataset(X=X, y=rng.standard_normal(2 * p)), hyper)
    mu = np.full(p, 1e3)
    assert np.all(inclusion_prob(mu, pre.a, pre.prior_logit) == 1.0)
    rho_j1 = spectral_radius(jacobian_par(mu, pre))
    stat = wigner_stat(X, sigma2 * tau)
    assert abs(stat.norm - rho_j1) <= 1e-12 * rho_j1
    # the full-Gram formula wigner_stat used before it read the stored triangle,
    # its Gram formed apart from precompute's dsyrk
    gram = np.einsum("ij,ik->jk", X, X)
    inv_sqrt = 1.0 / np.sqrt(np.diag(gram) + sigma2 * tau)
    normalized = inv_sqrt[:, None] * (gram - np.diag(np.diag(gram))) * inv_sqrt[None, :]
    full_gram = float(np.max(np.abs(np.linalg.eigvalsh(normalized))))
    assert abs(stat.norm - full_gram) <= 1e-12 * full_gram


def test_wigner_stat_gaussian_scale():
    for seed in (0, 1):
        X = np.random.default_rng(seed).standard_normal((1000, 200))
        stat = wigner_stat(X, tau=1.0)
        assert 1.8 <= stat.ratio <= 2.6


def test_wigner_stat_near_marchenko_pastur_edge():
    # the saturated parallel radius of a Gaussian design tends to the
    # Marchenko-Pastur edge gamma + 2 sqrt(gamma), not to the semicircle edge
    # 2 sqrt(gamma); at gamma = 1/4 they are 1.25 and 1.0
    gamma = 500 / 2000
    mp_edge, semicircle_edge = gamma + 2 * np.sqrt(gamma), 2 * np.sqrt(gamma)
    for r in range(3):
        X = gen_design(GenSpec(n=2000, p=500, s=0, seed=replicate_seed(0, r)))
        norm = wigner_stat(X, tau=1.0).norm
        assert abs(norm - mp_edge) < abs(norm - semicircle_edge), (r, norm)


def test_wigner_stat_parallel_phase_boundary():
    # the saturated parallel map is unstable iff gamma + 2 sqrt(gamma) > 1, that is
    # gamma > (sqrt(2) - 1)^2 ~ 0.172: at n = 1000 the edge is 0.813 at p = 120 and
    # 1.25 at p = 250
    for r in range(3):
        seed = replicate_seed(0, r)
        below = wigner_stat(gen_design(GenSpec(n=1000, p=120, s=0, seed=seed)), tau=1.0).norm
        above = wigner_stat(gen_design(GenSpec(n=1000, p=250, s=0, seed=seed)), tau=1.0).norm
        assert below < 1.0 < above, (r, below, above)


def test_perturbation_decay_linear_maps():
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    contract = q @ np.diag([0.5, 0.4, 0.3, 0.2, 0.1]) @ q.T
    expand = q @ np.diag([1.5, 0.4, 0.3, 0.2, 0.1]) @ q.T
    target = rng.standard_normal(5)
    assert perturbation_decay(lambda x: contract @ (x - target) + target, target)
    assert perturbation_decay(lambda x: expand @ (x - target) + target, target)


def test_perturbation_decay_on_sweep_maps():
    ds, pre, state = _converged_instance(n=200, p=50, s=25, seed=0)
    assert perturbation_decay(sweep_map(engines.seq_sweep, pre), state.mu)
    ds2 = make_dataset(GenSpec(n=100, p=50, s=50, seed=1))
    pre2 = precompute(ds2, HYPER)
    state2 = engines.fixed_point(pre2, engines.RunConfig(max_iter=500))
    assert perturbation_decay(sweep_map(engines.par_sweep, pre2), state2.mu)
