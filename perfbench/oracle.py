"""Independent checkers for the fedrdp benchmark.

Nothing here imports fedrdp.  Every value is re-derived by a route the
program does not take:

* the integer-order closed form of Mironov, Talwar & Zhang, "Renyi DP of the
  Sampled Gaussian Mechanism" (arXiv:1908.10530), for the pair
  P = q N(1, s^2) + (1-q) N(0, s^2), Q = N(0, s^2), s = sigma / 2:

      E_Q[(P/Q)^a] = sum_l C(a, l) q^l (1-q)^(a-l) exp(2 l (l-1) / sigma^2),

  a sum of positive terms, evaluated in extended precision;
* lower bounds at fractional orders from the monotonicity of Renyi
  divergence in the order (van Erven & Harremoes, arXiv:1206.2459):
  D_a >= D_floor(a), and D_a >= 0 below order 2.

Run ``python3 perfbench/oracle.py`` to execute the self-test alone.
"""

from __future__ import annotations

import functools
import math

from mpmath import mp, mpf

_DPS = 40


@functools.lru_cache(maxsize=4096)
def moment(alpha: int, q: float, sigma: float) -> mpf:
    """E_Q[(P/Q)^alpha] for an integer order alpha >= 2, exactly (40 digits)."""
    if alpha != int(alpha) or alpha < 2:
        raise ValueError(f"the closed form needs an integer order >= 2, got {alpha!r}")
    alpha = int(alpha)
    with mp.workdps(_DPS):
        qq = mpf(q)
        inv = mpf(2) / mpf(sigma) ** 2
        return mp.fsum(
            math.comb(alpha, l) * qq**l * (1 - qq) ** (alpha - l) * mp.exp(inv * (l * (l - 1)))
            for l in range(alpha + 1)
        )


def divergence(alpha: int, q: float, sigma: float) -> float:
    """D_alpha(P || Q) at an integer order, from the closed form."""
    with mp.workdps(_DPS):
        return float(mp.log(moment(alpha, q, sigma)) / (int(alpha) - 1))


def lower_divergence(alpha: float, q: float, sigma: float) -> float:
    """A lower bound on D_alpha(P || Q) at any order alpha > 1.

    Exact at integer orders; at a fractional order the closed form at
    floor(alpha), since D is nondecreasing in the order; 0 below order 2.
    """
    low = math.floor(alpha)
    return divergence(low, q, sigma) if low >= 2 else 0.0


def upper_divergence(alpha: float, q: float, sigma: float) -> float:
    """An upper bound on D_alpha(P || Q): the closed form at ceil(alpha)."""
    return divergence(max(math.ceil(alpha), 2), q, sigma)


def epsilon_lower_bound(alphas, rdp_lower, delta: float) -> float:
    """min over the order grid of rdp_lower(alpha) + log(1/delta) / (alpha - 1).

    With rdp_lower(alpha) at most the true composed divergence at every
    order, this is at most the epsilon that the exact divergence gives on
    the same grid, and so at most any valid accountant's epsilon.
    """
    log_term = math.log(1.0 / delta)
    return min(rdp_lower(a) + log_term / (a - 1.0) for a in alphas)


def self_test() -> list[str]:
    """Pin the checkers to values derived by hand; returns the failures.

    Order 2: E[(P/Q)^2] = (1-q)^2 + 2q(1-q) + q^2 e^{4/sigma^2}
                        = 1 + q^2 (e^{4/sigma^2} - 1).
    Order 3: (1-q)^3 + 3q(1-q)^2 + 3q^2(1-q) e^{4/sigma^2} + q^3 e^{12/sigma^2}
           = 1 + 3q^2(1-q)(e^{4/sigma^2} - 1) + q^3 (e^{12/sigma^2} - 1).
    Both are written with log1p/expm1 so that double precision keeps its
    digits when the divergence is tiny.
    """
    failures = []

    def close(name, got, want, rel=1e-13):
        if not abs(got - want) <= rel * abs(want):
            failures.append(f"{name}: got {got!r}, derived by hand {want!r}")

    for q, sigma in ((0.01, 0.5), (0.3, 1.0), (0.9, 2.0), (1e-3, 4.0), (0.05, 1.3)):
        e4m1 = math.expm1(4.0 / sigma**2)
        d2 = math.log1p(q * q * e4m1)
        d3 = 0.5 * math.log1p(3 * q * q * (1 - q) * e4m1 + q**3 * math.expm1(12.0 / sigma**2))
        tag = f"q={q}, sigma={sigma}"
        close(f"D_2 {tag}", divergence(2, q, sigma), d2)
        close(f"D_3 {tag}", divergence(3, q, sigma), d3)
        close(f"lower D_2.5 {tag}", lower_divergence(2.5, q, sigma), d2)
        close(f"upper D_2.5 {tag}", upper_divergence(2.5, q, sigma), d3)
        if lower_divergence(1.5, q, sigma) != 0.0:
            failures.append(f"lower D_1.5 {tag} must be 0")
        if not divergence(2, q, sigma) < divergence(3, q, sigma) < divergence(8, q, sigma):
            failures.append(f"D not increasing in the order at {tag}")
        close(
            f"epsilon bound {tag}",
            epsilon_lower_bound((2.0,), lambda a: 10 * d2, 1e-5),
            10 * d2 + math.log(1e5),
        )
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(line)
    print("oracle self-test:", "FAIL" if problems else "ok")
    raise SystemExit(1 if problems else 0)
