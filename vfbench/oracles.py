"""Reference values computed apart from vflab.

Everything here is plain Python on the math module (fsum, lgamma), so a
check never compares vflab against itself, and never against a stored
copy of earlier output.
"""

from __future__ import annotations

import math


def lse(xs) -> float:
    """log sum exp, with the sum taken exactly by math.fsum."""
    xs = [float(x) for x in xs]
    top = max(xs)
    if top == -math.inf:
        return -math.inf
    return top + math.log(math.fsum(math.exp(x - top) for x in xs))


def log_integral(weights, values, n: int = 1) -> float:
    """(1/n) log sum_i w_i e^{n F_i}; zero weights drop out."""
    return lse(n * f + math.log(w) for w, f in zip(weights, values) if w > 0) / n


def kl(mu, nu) -> float:
    """Relative entropy sum mu log(mu/nu) with 0 log 0 = 0."""
    terms = []
    for m, v in zip(mu, nu):
        if m > 0:
            if v == 0:
                return math.inf
            terms.append(m * (math.log(m) - math.log(v)))
    return math.fsum(terms)


def tilt(nu, values) -> list[float]:
    """The measure proportional to e^F nu."""
    z = [math.log(w) + f if w > 0 else -math.inf for w, f in zip(nu, values)]
    norm = lse(z)
    return [math.exp(x - norm) for x in z]


def total_variation(p, q) -> float:
    return 0.5 * math.fsum(abs(a - b) for a, b in zip(p, q))


def cramer_rate(p: float, x: float) -> float:
    """x log(x/p) + (1-x) log((1-x)/(1-p)), with 0 log 0 = 0."""
    left = x * (math.log(x) - math.log(p)) if x > 0 else 0.0
    right = (1 - x) * (math.log1p(-x) - math.log1p(-p)) if x < 1 else 0.0
    return left + right


def binomial_logpmf(n: int, k: int, p: float) -> float:
    """log of C(n, k) p^k (1-p)^(n-k) through math.lgamma."""
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def binomial_rate(n: int, k: int, p: float) -> float:
    """Finite-n empirical rate -(1/n) log P(S_n = k)."""
    return -binomial_logpmf(n, k, p) / n


def sublevel_diameter_bounds(rates, points, level: float, slack: float = 1e-9):
    """Diameters of {rate <= level - slack} and {rate <= level + slack}.

    A computed diameter must lie between the two; atoms whose rate sits
    within slack of the level may fall on either side of it.
    """

    def diameter(cut):
        inside = [x for r, x in zip(rates, points) if r <= cut]
        return max(inside) - min(inside) if len(inside) > 1 else 0.0

    return diameter(level - slack), diameter(level + slack)


def cramer_sup(p: float, fn, points: int = 20001) -> float:
    """sup over [0, 1] of F(x) - I(x) on a dense uniform grid.

    The grid spacing is 5e-5; for the smooth test functions used here the
    grid misses the true sup by far less than the 0.01 tolerance of the
    limit check.
    """
    xs = (i / (points - 1) for i in range(points))
    return max(fn(x) - cramer_rate(p, x) for x in xs)


def piecewise_linear(xs, ys):
    """Linear interpolation through (xs, ys) on a uniform grid over [0, 1]."""
    last = len(xs) - 1

    def fn(x: float) -> float:
        i = min(int(x * last), last - 1)
        t = (x - xs[i]) / (xs[i + 1] - xs[i])
        return ys[i] + t * (ys[i + 1] - ys[i])

    return fn
