"""Fisher's noncentral hypergeometric distribution (Fog 2008, ref [6]).

"Assigning weights to the probability of picking an item leads to a
non-central hypergeometric distribution.  Specifically, our setting is
described by the Fisher's non-central hypergeometric distribution.
These mathematical tools provide the theory to calculate the variance,
the mean, and the support function of the biased sample" (paper §4).

The univariate distribution here is exact: log-space pmf over the full
support, exact mean/variance by enumeration, and inversion sampling.
The multivariate version uses Fog's standard reductions — each
marginal is approximated by a univariate Fisher distribution of the
class against the pooled remainder, and sampling proceeds by
sequential conditional draws.  Nothing in the engine calls this yet;
ROADMAP item 4(b) wires it into biased-rung variance or drops it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from repro.util.validation import require, require_positive


def _log_choose(n: np.ndarray | float, k: np.ndarray | float) -> np.ndarray:
    """log C(n, k) via log-gamma (vectorised)."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


class FisherNCHypergeometric:
    """Univariate Fisher's noncentral hypergeometric distribution.

    An urn holds ``m1`` red and ``m2`` white balls; ``n`` are taken,
    and the odds of any red ball appearing relative to a white one are
    ``odds``.  ``X`` is the number of red balls in the sample:

    ``P(X = x) ∝ C(m1, x) · C(m2, n − x) · odds^x``

    In SciBORQ's setting, "red" is a stratum of tuples whose interest
    weight gives them ``odds``-times the inclusion probability of the
    rest, and ``X`` is how many of them end up in an impression of
    size ``n``.
    """

    def __init__(self, m1: int, m2: int, n: int, odds: float) -> None:
        require(m1 >= 0 and m2 >= 0, "class sizes must be non-negative")
        require(0 <= n <= m1 + m2, f"cannot draw {n} from {m1 + m2} items")
        require_positive(odds, "odds")
        self.m1 = int(m1)
        self.m2 = int(m2)
        self.n = int(n)
        self.odds = float(odds)
        self._x_lo = max(0, self.n - self.m2)
        self._x_hi = min(self.n, self.m1)
        xs = np.arange(self._x_lo, self._x_hi + 1)
        log_weights = (
            _log_choose(self.m1, xs)
            + _log_choose(self.m2, self.n - xs)
            + xs * np.log(self.odds)
        )
        self._xs = xs
        self._log_pmf = log_weights - logsumexp(log_weights)
        self._pmf = np.exp(self._log_pmf)
        self._cdf = np.cumsum(self._pmf)

    # ------------------------------------------------------------------
    @property
    def support(self) -> tuple[int, int]:
        """Inclusive (low, high) support of X."""
        return (self._x_lo, self._x_hi)

    def pmf(self, x: int | np.ndarray) -> np.ndarray:
        """P(X = x); zero outside the support."""
        x = np.atleast_1d(np.asarray(x, dtype=int))
        out = np.zeros(x.shape[0])
        inside = (x >= self._x_lo) & (x <= self._x_hi)
        out[inside] = self._pmf[x[inside] - self._x_lo]
        return out

    def cdf(self, x: int | np.ndarray) -> np.ndarray:
        """P(X ≤ x)."""
        x = np.atleast_1d(np.asarray(x, dtype=int))
        clipped = np.clip(x, self._x_lo - 1, self._x_hi)
        out = np.where(
            clipped < self._x_lo, 0.0, self._cdf[np.maximum(clipped - self._x_lo, 0)]
        )
        return out

    @property
    def mean(self) -> float:
        """Exact E[X] by enumeration over the support."""
        return float((self._xs * self._pmf).sum())

    @property
    def variance(self) -> float:
        """Exact Var[X] by enumeration over the support."""
        mu = self.mean
        return float((((self._xs - mu) ** 2) * self._pmf).sum())

    @property
    def mode(self) -> int:
        """The most probable value of X (Fog's closed form, verified
        against the enumerated pmf)."""
        return int(self._xs[int(np.argmax(self._pmf))])

    def mean_approximation(self) -> float:
        """Fog's fast approximate mean: the root of the quadratic

        ``x(m2 − n + x) = odds·(m1 − x)(n − x)``

        Used where enumeration would be too slow; tests check it
        against the exact mean.
        """
        a = 1.0 - self.odds
        b = float(self.m1 + self.n) * self.odds + self.m2 - self.n
        c = -self.odds * float(self.m1) * self.n
        if abs(a) < 1e-12:
            return -c / b
        disc = np.sqrt(b * b - 4.0 * a * c)
        x = (-b + disc) / (2.0 * a)
        if not (self._x_lo - 1 <= x <= self._x_hi + 1):
            x = (-b - disc) / (2.0 * a)
        return float(np.clip(x, self._x_lo, self._x_hi))

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` variates by inversion of the exact CDF."""
        u = rng.random(size)
        return self._xs[np.searchsorted(self._cdf, u, side="left").clip(0, len(self._xs) - 1)]


class MultivariateFisherNCH:
    """Multivariate Fisher's noncentral hypergeometric (approximate).

    ``sizes[i]`` items of class i with odds ``odds[i]``; ``n`` items
    drawn.  Marginals and sampling use Fog's pooled-remainder
    reduction: class i against all other classes merged, with the
    remainder's odds replaced by its size-weighted mean.  Exact in the
    two-class case; accurate to a few percent otherwise, which the
    tests pin down against Monte-Carlo ground truth.
    """

    def __init__(
        self, sizes: Sequence[int], odds: Sequence[float], n: int
    ) -> None:
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.odds = np.asarray(odds, dtype=float)
        if self.sizes.ndim != 1 or self.sizes.shape != self.odds.shape:
            raise ValueError("sizes and odds must be 1-d and equally long")
        require((self.sizes >= 0).all(), "class sizes must be non-negative")
        require((self.odds > 0).all(), "odds must be positive")
        require(0 <= n <= int(self.sizes.sum()), "cannot draw more than the total")
        self.n = int(n)

    @property
    def classes(self) -> int:
        """Number of classes."""
        return int(self.sizes.shape[0])

    def _marginal(self, i: int) -> FisherNCHypergeometric | None:
        rest_sizes = np.delete(self.sizes, i)
        rest_odds = np.delete(self.odds, i)
        m2 = int(rest_sizes.sum())
        if self.sizes[i] == 0 or m2 == 0:
            return None
        pooled = float((rest_sizes * rest_odds).sum() / m2)
        return FisherNCHypergeometric(
            int(self.sizes[i]), m2, self.n, float(self.odds[i]) / pooled
        )

    def marginal_means(self) -> np.ndarray:
        """Approximate E[Xᵢ] for every class, normalised to sum to n."""
        means = np.zeros(self.classes)
        for i in range(self.classes):
            marginal = self._marginal(i)
            if marginal is None:
                means[i] = self.n if self.sizes[i] > 0 else 0.0
            else:
                means[i] = marginal.mean
        total = means.sum()
        if total > 0:
            means *= self.n / total
        return means

    def marginal_variances(self) -> np.ndarray:
        """Approximate Var[Xᵢ] from the pooled-remainder marginals."""
        variances = np.zeros(self.classes)
        for i in range(self.classes):
            marginal = self._marginal(i)
            variances[i] = marginal.variance if marginal is not None else 0.0
        return variances

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One draw of the class-count vector by sequential conditionals."""
        remaining = self.n
        counts = np.zeros(self.classes, dtype=np.int64)
        sizes = self.sizes.copy()
        for i in range(self.classes - 1):
            rest_sizes = sizes[i + 1 :]
            rest_odds = self.odds[i + 1 :]
            m2 = int(rest_sizes.sum())
            if remaining == 0 or sizes[i] == 0:
                continue
            if m2 == 0:
                counts[i] = min(remaining, int(sizes[i]))
                remaining -= counts[i]
                continue
            pooled = float((rest_sizes * rest_odds).sum() / m2)
            marginal = FisherNCHypergeometric(
                int(sizes[i]), m2, remaining, float(self.odds[i]) / pooled
            )
            counts[i] = int(marginal.sample(rng, 1)[0])
            remaining -= counts[i]
        counts[-1] = remaining
        return counts
