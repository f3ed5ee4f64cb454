"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The replication studies are shared session fixtures (see conftest).
"""

import os

import numpy as np
import pytest

from sscavi import cli, engines, stability
from sscavi.model import (
    Hyperparams,
    VariationalState,
    expected_loglik,
    inclusion_prob,
    precompute,
)
from sscavi.synth import GenSpec, make_dataset, replicate_seed
from sscavi.verify import (
    fd_jacobian,
    mc_expected_loglik,
    pinned_gauss_seidel,
    ridge_system,
    sweep_map,
    textbook_gauss_seidel_sweep,
    textbook_jacobi_sweep,
)

from conftest import elbo_nondecreasing

HYPER = Hyperparams(pi=0.5, tau=1.0, sigma2=1.0)
RUN_CFG = engines.RunConfig(max_iter=500, tol=1e-8)


def _criterion(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_sequential_running_example(running_example_runs):
    converged_mono = 0
    separated = 0
    for ds, seq, _ in running_example_runs:
        ok = seq.status == "converged" and seq.n_iter <= 500 and elbo_nondecreasing(seq)
        converged_mono += ok
        if seq.status == "converged":
            alpha = seq.final_state.alpha
            separated += alpha[:25].min() > alpha[25:].max()
    _criterion(
        1,
        converged_mono >= 49 and separated >= 45,
        f"sequential converged+monotone {converged_mono}/50 (need >=49), "
        f"signal separation {separated}/50 (need >=45)",
    )


def test_c02_parallel_running_example(running_example_runs):
    flagged = 0
    for _, _, par in running_example_runs:
        nonmono = not elbo_nondecreasing(par)
        flagged += par.status == "diverged" or nonmono
    _criterion(
        2,
        flagged >= 40,
        f"parallel diverged-or-nonmonotone {flagged}/50 (need >=40)",
    )


def test_c03_spectral_phase_behavior(dense_study, small_study):
    dense_conv = [r for r in dense_study if r["seq_converged"]]
    seq_stable = all(r["rho_seq"] < 1.0 for r in dense_conv)
    par_unstable = sum(r["rho_par"] > 1.0 for r in dense_conv)
    small_conv = [r for r in small_study if r["seq_converged"]]
    small_unstable = sum(r["rho_par"] > 1.0 for r in small_conv)
    ok = (
        seq_stable
        and len(dense_conv) > 0
        and par_unstable >= 0.9 * len(dense_conv)
        and small_unstable <= 0.2 * len(small_conv)
    )
    _criterion(
        3,
        ok,
        f"(100,50,50): rho_seq<1 in {sum(r['rho_seq'] < 1 for r in dense_conv)}"
        f"/{len(dense_conv)} (need all), rho_par>1 in {par_unstable}/{len(dense_conv)} "
        f"(need >=90%); (100,10,10): rho_par>1 in {small_unstable}/{len(small_conv)} "
        f"(need <=20%)",
    )


def test_c04_parallel_radius_monotone_in_sparsity(sgrid_study):
    medians = []
    for s in (5, 15, 25, 35, 45):
        vals = [
            np.log(r["rho_par"]) for r in sgrid_study[s] if r["seq_converged"]
        ]
        medians.append(np.median(vals))
    ok = bool(np.all(np.diff(medians) >= 0))
    _criterion(
        4,
        ok,
        "median log rho_par over s=(5,15,25,35,45): "
        + ", ".join(f"{m:.3f}" for m in medians),
    )


def test_c05_jacobian_finite_difference_oracle():
    worst = 0.0
    for r in range(10):
        seed = replicate_seed(777, r)
        ds = make_dataset(GenSpec(n=40, p=8, s=4, seed=seed))
        pre = precompute(ds, HYPER)
        state = engines.fixed_point(pre, RUN_CFG)
        for jac_fn, sweep in (
            (stability.jacobian_seq, engines.seq_sweep),
            (stability.jacobian_par, engines.par_sweep),
        ):
            jac = jac_fn(state.mu, pre)
            fd = fd_jacobian(sweep_map(sweep, pre), state.mu)
            worst = max(worst, float(np.max(np.abs(jac - fd) / (1 + np.abs(fd)))))
    _criterion(5, worst < 1e-5, f"max FD relative error {worst:.3g} (need < 1e-5)")


def test_c06_pinned_degeneracy_oracle():
    max_solve, max_sweep = 0.0, 0.0
    for r in range(5):
        seed = replicate_seed(888, r)
        ds = make_dataset(GenSpec(n=60, p=10, s=5, seed=seed))
        pre = precompute(ds, HYPER)
        ridge = ridge_system(pre)
        direct = np.linalg.solve(ridge, pre.xty)
        _, pinned_mu = pinned_gauss_seidel(pre)
        max_solve = max(max_solve, float(np.max(np.abs(pinned_mu - direct))))
        x = np.random.default_rng(seed).standard_normal(10)
        ones = np.ones(10)
        max_sweep = max(
            max_sweep,
            float(np.max(np.abs(
                engines.seq_sweep(x, ones, pre)
                - textbook_gauss_seidel_sweep(ridge, pre.xty, x)
            ))),
            float(np.max(np.abs(
                engines.par_sweep(x, ones, pre)
                - textbook_jacobi_sweep(ridge, pre.xty, x)
            ))),
        )
    _criterion(
        6,
        max_solve < 1e-6 and max_sweep < 1e-12,
        f"direct-solve gap {max_solve:.3g} (need < 1e-6), "
        f"textbook sweep gap {max_sweep:.3g} (need < 1e-12)",
    )


def test_c07_elbo_monte_carlo_oracle():
    pre = precompute(make_dataset(GenSpec(n=20, p=4, s=2, seed=11)), HYPER)
    random_mu = np.random.default_rng(55).standard_normal(4)
    states = {
        "zero": VariationalState(np.zeros(4), inclusion_prob(np.zeros(4), pre.a, pre.prior_logit)),
        "fixed_point": engines.fixed_point(pre, RUN_CFG),
        "random": VariationalState(random_mu, inclusion_prob(random_mu, pre.a, pre.prior_logit)),
    }
    zscores = {}
    for i, (name, state) in enumerate(states.items()):
        analytic = expected_loglik(state, pre)
        estimate, stderr = mc_expected_loglik(state, pre, 1_000_000, seed=500 + i)
        zscores[name] = abs(analytic - estimate) / stderr
    ok = all(z < 3.0 for z in zscores.values())
    _criterion(
        7,
        ok,
        "MC z-scores: " + ", ".join(f"{k}={v:.2f}" for k, v in zscores.items())
        + " (need < 3)",
    )


def test_c08_contraction_check_implies_stable_sequential(
    dense_study, small_study, sgrid_study
):
    rows = dense_study + small_study
    for s_rows in sgrid_study.values():
        rows += s_rows
    satisfied = [r for r in rows if r["seq_converged"] and r["assumption1_satisfied"]]
    violations = [r for r in satisfied if not r["rho_seq"] < 1.0]
    _criterion(
        8,
        len(satisfied) > 0 and not violations,
        f"{len(satisfied)} replicates satisfied the contraction check, "
        f"{len(violations)} had rho_seq >= 1 (need 0)",
    )


def test_c09_normalized_gram_norm_scale():
    ratios = []
    for r in range(20):
        seed = replicate_seed(999, r)
        X = make_dataset(GenSpec(n=1000, p=200, s=0, seed=seed)).X
        ratios.append(stability.wigner_stat(X, tau=1.0).ratio)
    lo, hi = min(ratios), max(ratios)
    _criterion(
        9,
        lo >= 1.8 and hi <= 2.6,
        f"ratio range over 20 seeds [{lo:.3f}, {hi:.3f}] (need within [1.8, 2.6])",
    )


def test_c10_studies_are_byte_deterministic(tmp_path):
    def rerun(args, names):
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"{args[0]}_{tag}")
            assert cli.main(args + ["--out", out]) == 0
            blob = b""
            for name in names:
                with open(os.path.join(out, name), "rb") as fh:
                    blob += fh.read()
            outs.append(blob)
        return outs[0] == outs[1]

    same_example = rerun(
        ["run-example", "--n", "100", "--p", "20", "--s", "10", "--seed", "5"],
        ["trace.csv", "means.csv"],
    )
    same_study = rerun(
        ["spectral-study", "--panel", "right", "--s", "5", "--reps", "2", "--seed", "5"],
        ["rho.csv"],
    )
    same_wigner = rerun(
        ["wigner-check", "--n", "100", "--p", "10", "--reps", "2", "--seed", "5"],
        ["wigner.csv", "wigner_summary.csv"],
    )
    _criterion(
        10,
        same_example and same_study and same_wigner,
        f"byte-identical reruns: run-example={same_example}, "
        f"spectral-study={same_study}, wigner-check={same_wigner}",
    )
