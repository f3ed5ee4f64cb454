"""Seeded generation of Gaussian designs, sparse coefficients, and responses.

All randomness flows through counter-based Philox streams keyed off a master
seed, so a given seed reproduces every dataset bit-for-bit across platforms
and thread counts. The design and the noise use separate streams derived from
the master seed by fixed offsets: changing the sparsity or amplitude of the
coefficients never perturbs the design draw. Normal variates come from
numpy's ziggurat sampler on those streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset

__all__ = [
    "SEED_BOUND",
    "GenSpec",
    "gen_design",
    "gen_response",
    "make_beta",
    "make_dataset",
    "mix_seed",
    "replicate_seed",
]

# every seed lies in [0, SEED_BOUND): the splitmix64 and Philox key width
SEED_BOUND = 1 << 64
_MASK64 = SEED_BOUND - 1
# fixed stream offsets folded into the master seed before mixing
_DESIGN_STREAM = 0x9E3779B97F4A7C15
_NOISE_STREAM = 0xD1B54A32D192ED03


def mix_seed(value: int) -> int:
    """splitmix64 finalizer; decorrelates adjacent integer seeds."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replicate_seed(master_seed: int, replicate: int) -> int:
    """Per-replicate seed: mix master_seed + replicate index."""
    return mix_seed((int(master_seed) + int(replicate)) & _MASK64)


def _stream(seed: int, offset: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=mix_seed((int(seed) + offset) & _MASK64)))


@dataclass(frozen=True)
class GenSpec:
    """Shape, sparsity, amplitude, noise level, and master seed of one draw."""

    n: int
    p: int
    s: int
    amplitude: float = 1.0
    sigma2: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        if not (0 <= self.s <= self.p):
            raise ValueError("s must lie in [0, p]")
        if not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        if not (0 <= int(self.seed) < SEED_BOUND):
            raise ValueError("seed must lie in [0, 2^64)")


def gen_design(spec: GenSpec) -> np.ndarray:
    """i.i.d. standard normal design matrix, deterministic in the seed."""
    rng = _stream(spec.seed, _DESIGN_STREAM)
    return rng.standard_normal((spec.n, spec.p))


def make_beta(spec: GenSpec) -> np.ndarray:
    """Coefficient vector with s leading entries at the given amplitude."""
    beta = np.zeros(spec.p)
    beta[: spec.s] = spec.amplitude
    return beta


def gen_response(X: np.ndarray, beta: np.ndarray, sigma2: float, seed: int) -> np.ndarray:
    """Response draw y = X beta + noise from the noise stream of ``seed``."""
    X = np.asarray(X, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if X.shape[1] != beta.shape[0]:
        raise ValueError("beta length must match the number of design columns")
    rng = _stream(seed, _NOISE_STREAM)
    noise = rng.standard_normal(X.shape[0])
    # an overflowing amplitude yields inf/NaN, which Dataset rejects with its own message
    with np.errstate(over="ignore", invalid="ignore"):
        return X @ beta + np.sqrt(sigma2) * noise


def make_dataset(spec: GenSpec) -> Dataset:
    """Design + coefficients + response bundled as a :class:`Dataset`."""
    X = gen_design(spec)
    beta = make_beta(spec)
    y = gen_response(X, beta, spec.sigma2, spec.seed)
    return Dataset(X=X, y=y, beta_true=beta)
