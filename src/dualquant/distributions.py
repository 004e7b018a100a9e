"""Sampling targets with optional exact one-dimensional analytics.

A DistributionSpec bundles a seeded sampler with the support box (when
bounded) and, in one dimension, closed-form pdf / partial moments /
quantiles so that training and error evaluation can run without Monte
Carlo.  Partial moments are ordinary truncated power moments:

    partial_moment(k, a, b) = E[X^k ; a <= X <= b],  k in {0, 1, 2},

which is 0 when b <= a; the distribution function is
``partial_moment(0, -inf, x)``.  ``pdf`` and ``partial_moment`` take
scalars or arrays: ``a`` and ``b`` broadcast against each other, bounds
may be +-inf, and scalar arguments give a Python float back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike
from scipy.special import ndtr, ndtri

from .rng import RngStream

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Analytics1D:
    """Closed forms of a 1D law.

    ``pdf(x)`` and ``partial_moment(k, a, b)`` work elementwise on
    arrays (``a`` and ``b`` broadcast) and return a float for scalar
    arguments; infinite bounds are exact limits and raise no
    floating-point warning.  The distribution function at x is
    ``partial_moment(0, -inf, x)``.  ``quantile(q)`` takes a scalar.
    """

    pdf: Callable[[ArrayLike], float | np.ndarray]
    partial_moment: Callable[[int, ArrayLike, ArrayLike], float | np.ndarray]
    quantile: Callable[[float], float]


@dataclass(frozen=True)
class DistributionSpec:
    """A target law: seeded sampler plus optional structure.

    ``sampler(rng, n)`` returns an (n, dim) array.  ``support`` is a
    (lo, hi) box or None when unbounded; read it through ``box``.
    """

    name: str
    dim: int
    sampler: Callable[[RngStream, int], np.ndarray]
    support: tuple[np.ndarray, np.ndarray] | None = None
    analytics: Analytics1D | None = None

    def box(self, purpose: str) -> tuple[np.ndarray, np.ndarray]:
        """The finite support box (lo, hi), each of shape (dim,).  A
        support that is None or not finite on some axis raises a
        ValueError that names ``purpose``."""
        if self.support is None or not np.all(np.isfinite(self.support)):
            raise ValueError(f"{purpose} needs a distribution with a "
                             "bounded support box")
        return self.support


def _out(value) -> float | np.ndarray:
    # scalar arguments broadcast to 0-d; hand those back as floats
    return float(value) if np.ndim(value) == 0 else value


def _phi(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / _SQRT2PI


def make_uniform_box(lo, hi, name: str | None = None) -> DistributionSpec:
    """Uniform law on the box [lo, hi] (scalars give one dimension)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or np.any(hi <= lo):
        raise ValueError("box bounds must satisfy lo < hi componentwise")
    dim = lo.size

    def sampler(rng: RngStream, n: int) -> np.ndarray:
        return lo + (hi - lo) * rng.uniform((n, dim))

    analytics = None
    if dim == 1:
        a0, b0 = float(lo[0]), float(hi[0])
        h = b0 - a0

        def pdf(x):
            x = np.asarray(x, dtype=float)
            return _out(np.where((a0 <= x) & (x <= b0), 1.0 / h, 0.0))

        def partial_moment(k: int, a, b):
            aa = np.clip(np.asarray(a, dtype=float), a0, b0)
            bb = np.clip(np.asarray(b, dtype=float), a0, b0)
            return _out(np.where(bb > aa, (bb ** (k + 1) - aa ** (k + 1))
                                 / ((k + 1) * h), 0.0))

        def quantile(q: float) -> float:
            return a0 + q * h

        analytics = Analytics1D(pdf, partial_moment, quantile)

    if name is None:
        if dim == 1:
            name = f"uniform:{float(lo[0])},{float(hi[0])}"
        else:
            name = f"uniform-box-{dim}d"
    return DistributionSpec(name, dim, sampler, (lo, hi), analytics)


def make_normal(mu: float = 0.0, sigma: float = 1.0, dim: int = 1,
                name: str | None = None) -> DistributionSpec:
    """Isotropic normal N(mu, sigma^2 I)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    mu = float(mu)
    sigma = float(sigma)

    def sampler(rng: RngStream, n: int) -> np.ndarray:
        return mu + sigma * rng.normal((n, dim))

    analytics = None
    if dim == 1:

        def z(x):
            # Beyond |z| = 40, phi and z * phi underflow to 0 and ndtr is
            # 0 or 1, so the clip changes no result; it keeps +-inf and
            # overflow out of the formulas.
            return np.clip(np.subtract(x, mu) / sigma, -40.0, 40.0)

        def pdf(x):
            return _out(_phi(z(x)) / sigma)

        def partial_moment(k: int, a, b):
            al, be = z(a), z(b)
            pa, pb = _phi(al), _phi(be)
            m = ndtr(be) - ndtr(al)
            if k == 1:
                m = mu * m + sigma * (pa - pb)
            elif k == 2:
                m = (mu * mu * m + 2.0 * mu * sigma * (pa - pb)
                     + sigma * sigma * (m + al * pa - be * pb))
            return _out(np.where(be > al, m, 0.0))

        def quantile(q: float) -> float:
            return mu + sigma * float(ndtri(q))

        analytics = Analytics1D(pdf, partial_moment, quantile)

    if name is None:
        name = f"normal:{mu},{sigma}" if dim == 1 else f"normal-{dim}d"
    return DistributionSpec(name, dim, sampler, None, analytics)


def make_exponential(lam: float) -> DistributionSpec:
    """Exponential law with rate lam on [0, inf)."""
    if lam <= 0:
        raise ValueError("rate must be positive")
    lam = float(lam)

    def sampler(rng: RngStream, n: int) -> np.ndarray:
        return rng.generator.exponential(scale=1.0 / lam, size=(n, 1))

    def pdf(x):
        return _out(lam * _g(0, x) * np.greater_equal(x, 0.0))

    def _g(k: int, x: np.ndarray) -> np.ndarray:
        # antiderivative tail: integral_x^inf t^k lam e^(-lam t) dt.  No
        # mass lies below the origin, and e underflows to 0 before
        # lam * x = 800, so the clip changes no result; it keeps +-inf
        # and overflow out of the polynomial.
        x = np.clip(x, 0.0, 800.0 / lam)
        e = np.exp(-lam * x)
        if k == 0:
            return e
        if k == 1:
            return (x + 1.0 / lam) * e
        return (x * x + 2.0 * x / lam + 2.0 / (lam * lam)) * e

    def partial_moment(k: int, a, b):
        return _out(np.where(np.greater(b, a), _g(k, a) - _g(k, b), 0.0))

    def quantile(q: float) -> float:
        return -math.log1p(-q) / lam

    analytics = Analytics1D(pdf, partial_moment, quantile)
    support = (np.array([0.0]), np.array([math.inf]))
    return DistributionSpec(f"exponential:{lam}", 1, sampler, support, analytics)


def make_bm_sup() -> DistributionSpec:
    """Joint law of (W_1, sup_{t<=1} W_t) for a standard Brownian motion.

    Sampled exactly: conditionally on W_1 = w the running maximum has
    tail P(M >= m) = exp(-2 m (m - w)) for m >= max(w, 0), inverted in
    closed form.
    """

    def sampler(rng: RngStream, n: int) -> np.ndarray:
        w = rng.normal(n)
        u = 1.0 - rng.uniform(n)  # in (0, 1], keeps the log finite
        m = 0.5 * (w + np.sqrt(w * w - 2.0 * np.log(u)))
        return np.column_stack([w, m])

    return DistributionSpec("bmsup", 2, sampler, None, None)


def parse_distribution(text: str) -> DistributionSpec:
    """Build a distribution from its command-line string form.

    Accepted: ``uniform:lo,hi``  ``normal:mu,sigma``  ``exponential:rate``
    ``uniform2d``  ``normal2d``  ``bmsup``.
    """
    text = text.strip()
    if text == "uniform2d":
        return make_uniform_box([0.0, 0.0], [1.0, 1.0], name="uniform2d")
    if text == "normal2d":
        return make_normal(0.0, 1.0, dim=2, name="normal2d")
    if text == "bmsup":
        return make_bm_sup()
    head, sep, args = text.partition(":")
    if not sep:
        raise ValueError(f"unknown distribution {text!r}")
    try:
        vals = [float(v) for v in args.split(",")]
    except ValueError:
        raise ValueError(f"malformed distribution arguments in {text!r}")
    if head == "uniform" and len(vals) == 2:
        return make_uniform_box(vals[0], vals[1])
    if head == "normal" and len(vals) == 2:
        return make_normal(vals[0], vals[1])
    if head == "exponential" and len(vals) == 1:
        return make_exponential(vals[0])
    raise ValueError(f"unknown distribution {text!r}")
