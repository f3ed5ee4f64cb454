"""Shared fixtures; the heavy replication studies are session-scoped so the
acceptance criteria and the module property tests reuse one computation."""

import numpy as np
import pytest

from sscavi import engines
from sscavi.harness import spectral_replicate
from sscavi.model import Hyperparams, precompute
from sscavi.synth import GenSpec, make_dataset, replicate_seed

MASTER_SEED = 0
STD_HYPER = Hyperparams(pi=0.5, tau=1.0, sigma2=1.0)
RUN_CFG = engines.RunConfig(max_iter=500, tol=1e-8)


@pytest.fixture(scope="session")
def hyper():
    return STD_HYPER


def _study(n, p, s, reps=50):
    rows = []
    for r in range(reps):
        seed = replicate_seed(MASTER_SEED, r)
        rows.append(spectral_replicate(n, p, s, seed, STD_HYPER, RUN_CFG))
    return rows


@pytest.fixture(scope="session")
def dense_study():
    """(n=100, p=50, s=50): the dense regime where the parallel map destabilizes."""
    return _study(100, 50, 50)


@pytest.fixture(scope="session")
def small_study():
    """(n=100, p=10, s=10): low-dimensional regime, both schemes stable."""
    return _study(100, 10, 10)


@pytest.fixture(scope="session")
def sgrid_study():
    """(n=200, p=50) with s in {5,...,45}: sparsity sweep of the right panel."""
    return {s: _study(200, 50, s) for s in (5, 15, 25, 35, 45)}


@pytest.fixture(scope="session")
def running_example_runs():
    """50 seeds of the (200, 50, 25) running example, both schemes."""
    out = []
    for r in range(50):
        seed = replicate_seed(MASTER_SEED, r)
        ds = make_dataset(GenSpec(n=200, p=50, s=25, seed=seed))
        pre = precompute(ds, STD_HYPER)
        seq = engines.run(pre, engines.Scheme("sequential"), RUN_CFG)
        par = engines.run(pre, engines.Scheme("parallel"), RUN_CFG)
        out.append((ds, seq, par))
    return out


def elbo_nondecreasing(trace, slack=1e-9):
    vals = np.asarray(trace.elbo)
    vals = vals[np.isfinite(vals)]
    if len(vals) < 2:
        return False
    return bool(np.all(np.diff(vals) >= -slack))
