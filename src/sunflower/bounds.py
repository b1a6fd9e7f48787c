"""Size bounds for sunflower-free families, with explicit exactness classes.

Three classes of value leave this module and every caller can tell them
apart: big integers for purely combinatorial formulas, exact rationals for
the Erdos-Rado threshold, and floats for anything involving e, fractional
powers, or the J constant.  Float formulas are evaluated in log-space so
that huge parameter ranges cannot overflow, and each float carries an
absolute error radius so inequality checks can stay conservative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    DomainError,
    InapplicableFactor,
    NotPrimePower,
    TooLarge,
    UsageError,
)
from .model import (
    EXACT_INT,
    EXACT_RATIONAL,
    FLOAT_APPROX,
    BoundReport,
    ModulusVector,
    as_modulus_vector,
)

_EPS = sys.float_info.epsilon
_EXP_OVERFLOW = 709.0  # log of the largest finite double, rounded down


@dataclass(frozen=True)
class ApproxValue:
    """A float together with an absolute error radius."""

    value: float
    radius: float

    def __float__(self) -> float:
        return self.value


def _exp_with_radius(log_terms: Sequence[float], extra_rel: float = 0.0) -> ApproxValue:
    """exp(sum of log terms) with a rounding radius from the term magnitudes."""
    total = math.fsum(log_terms)
    if total > _EXP_OVERFLOW:
        return ApproxValue(math.inf, math.inf)
    magnitude = math.fsum(abs(t) for t in log_terms)
    value = math.exp(total)
    rel = 8.0 * _EPS * (1.0 + magnitude) + extra_rel
    return ApproxValue(value, value * rel)


def erdos_rado_threshold(k: int, t: int) -> Fraction:
    """Exact rational k!(t-1)^k (1 - sum_{s=1}^{k-1} s/((s+1)!(t-1)^s)).

    A family of k-sets larger than this value contains a t-petal sunflower.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    if t < 2:
        raise DomainError("t must be at least 2")
    correction = Fraction(0)
    for s in range(1, k):
        correction += Fraction(s, math.factorial(s + 1) * (t - 1) ** s)
    return math.factorial(k) * Fraction(t - 1) ** k * (1 - correction)


def kostochka_value(k: int, t: int = 3, alpha: float = 2.0, constant: float = 1.0) -> float:
    """constant * k! * ((ln ln ln k)^2 / (alpha * ln ln k))^k, in log-space.

    The multiplicative constant of the cited theorem is unspecified, so it
    is an explicit caller parameter; reports built from this value flag it
    as holding only up to that constant.  Natural logarithms throughout.
    """
    if t <= 2:
        raise DomainError("t must exceed 2")
    if alpha <= 1.0:
        raise DomainError("alpha must exceed 1")
    if constant <= 0.0:
        raise DomainError("constant must be positive")
    if k < 16:
        raise DomainError("need ln ln ln k > 0, which requires k >= 16")
    loglog = math.log(math.log(k))
    logloglog = math.log(loglog)
    total = (
        math.log(constant)
        + math.lgamma(k + 1)
        + k * (2.0 * math.log(logloglog) - math.log(alpha * loglog))
    )
    if total > _EXP_OVERFLOW:
        return math.inf
    return math.exp(total)


def ns_subset_bound(n: int) -> int:
    """3 (n+1) sum_{i <= floor(n/3)} C(n,i): max sunflower-free subset family of [n]."""
    if n < 1:
        raise DomainError("n must be at least 1")
    return 3 * (n + 1) * sum(math.comb(n, i) for i in range(n // 3 + 1))


def c_d(D: int) -> float:
    """Base constant 3/2^(2/3) * (D-1)^(2/3), computed as 3 ((D-1)/2)^(2/3)."""
    if D <= 2:
        raise DomainError("D must exceed 2")
    return 3.0 * ((D - 1) / 2.0) ** (2.0 / 3.0)


def ns_vector_bound(D: int, n: int) -> ApproxValue:
    """c_D^n in log-space with an error radius."""
    if n < 1:
        raise DomainError("n must be at least 1")
    base = c_d(D)
    out = _exp_with_radius([n * math.log(base)], extra_rel=4.0 * _EPS * n)
    return out


@dataclass(frozen=True)
class JMinimizationResult:
    """Result of minimizing ((1-x^q)/(1-x)) x^(-(q-1)/3) over (0,1)."""

    q: int
    x_star: float
    j_value: float
    error_radius: float

    def __post_init__(self):
        if not 0.0 < self.x_star < 1.0:
            raise DomainError("minimizer must lie strictly inside (0,1)")

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "x_star": self.x_star,
            "j": self.j_value,
            "radius": self.error_radius,
            "exactness": FLOAT_APPROX,
        }


_GRID_POINTS = 256
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _j_log_objective(x: float, q: int) -> float:
    # log f(x) = log(1 - x^q) - log(1 - x) - ((q-1)/3) log x, via log1p/expm1
    # so the near-1 cancellations stay accurate.
    xq = math.exp(q * math.log(x))
    return math.log1p(-xq) - math.log1p(-x) - ((q - 1) / 3.0) * math.log(x)


def j_constant(q: int, tol: float = 1e-12) -> JMinimizationResult:
    """Minimize the J objective by a 256-point grid scan plus golden section.

    The grid pass picks the global bracket (unimodality is not assumed);
    golden-section then shrinks the bracket below tol in x.
    """
    if q < 2:
        raise DomainError("q must be at least 2")
    if tol < 1e-12:
        raise DomainError("tolerance below 1e-12 is not supported")

    grid = [i / (_GRID_POINTS + 1.0) for i in range(1, _GRID_POINTS + 1)]
    values = [_j_log_objective(x, q) for x in grid]
    best = min(range(len(grid)), key=lambda i: (values[i], i))
    lo = grid[best - 1] if best > 0 else grid[0] / 2.0
    hi = grid[best + 1] if best + 1 < len(grid) else (grid[-1] + 1.0) / 2.0

    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = _j_log_objective(c, q)
    fd = _j_log_objective(d, q)
    for _ in range(300):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = _j_log_objective(c, q)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = _j_log_objective(d, q)

    x_star = 0.5 * (a + b)
    log_f = _j_log_objective(x_star, q)
    j_value = math.exp(log_f) / q

    # Radius: spread of the objective across a tol-sized step plus the
    # rounding budget of the evaluation itself.
    delta = max(tol, 1e-9)
    probe_lo = max(x_star - delta, x_star / 2.0)
    probe_hi = min(x_star + delta, (1.0 + x_star) / 2.0)
    spread = max(
        abs(_j_log_objective(probe_lo, q) - log_f),
        abs(_j_log_objective(probe_hi, q) - log_f),
    )
    magnitude = abs(log_f) + ((q - 1) / 3.0) * abs(math.log(x_star)) + 2.0
    radius = j_value * (spread + 64.0 * _EPS * magnitude)
    return JMinimizationResult(q=q, x_star=x_star, j_value=j_value, error_radius=radius)


@dataclass(frozen=True)
class Factorization:
    """Prime-power factorization, primes ascending."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        out = 1
        for p, a in self.pairs:
            out *= p**a
        return out

    @property
    def is_prime_power(self) -> bool:
        return len(self.pairs) == 1

    def prime_powers(self) -> tuple[int, ...]:
        return tuple(p**a for p, a in self.pairs)


def factorize(m: int) -> Factorization:
    """Trial-division factorization for m up to 2^63."""
    if m < 2:
        raise DomainError("m must be at least 2")
    if m > 2**63:
        raise TooLarge("factorization supported up to 2^63")
    pairs = []
    rest = m
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            exp = 0
            while rest % d == 0:
                rest //= d
                exp += 1
            pairs.append((d, exp))
        d += 1 if d == 2 else 2
    if rest > 1:
        pairs.append((rest, 1))
    return Factorization(tuple(pairs))


def eg_vector_bound(q: int, n: int) -> ApproxValue:
    """(J(q) q)^n for a prime power q > 2, with an error radius."""
    if n < 1:
        raise DomainError("n must be at least 1")
    fac = factorize(q)
    if not fac.is_prime_power:
        raise NotPrimePower(f"{q} is not a prime power")
    if q <= 2:
        raise DomainError("the bound requires a prime power above 2")
    res = j_constant(q)
    rel_j = res.error_radius / res.j_value
    return _exp_with_radius(
        [n * math.log(res.j_value * q)], extra_rel=n * rel_j + 4.0 * _EPS * n
    )


def _approx_report(name: str, parameters: dict, out: ApproxValue) -> BoundReport:
    """A FLOAT_APPROX report carrying an ApproxValue's value and radius."""
    return BoundReport(name, parameters, out.value, FLOAT_APPROX, radius=out.radius)


def crt_bound(
    m: int,
    n: int,
    mode: str = "formula",
    factor_bounds: Mapping[int, int | float] | None = None,
) -> BoundReport:
    """Bound on s(m, n) through the prime-power factorization of m.

    formula mode evaluates ((prod_i J(p_i^a_i)) m)^n; a bare factor 2 has no
    J bound and is rejected.  recursive mode multiplies caller-supplied
    bounds per prime-power factor (exact search values, ns_vector_bound
    values, and so on), staying exact when every supplied value is an int.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    fac = factorize(m)
    params: dict[str, object] = {"m": m, "n": n, "mode": mode}
    if mode == "formula":
        log_terms = [n * math.log(m)]
        extra_rel = 4.0 * _EPS * n
        for p, a in fac.pairs:
            q = p**a
            if q <= 2:
                raise InapplicableFactor(
                    f"factor {q} of {m} has no J bound (prime power above 2 required)"
                )
            res = j_constant(q)
            log_terms.append(n * math.log(res.j_value))
            extra_rel += n * res.error_radius / res.j_value
        return _approx_report("crt-product", params, _exp_with_radius(log_terms, extra_rel))
    if mode == "recursive":
        if factor_bounds is None:
            raise DomainError("recursive mode needs per-factor bounds")
        value: int | float = 1
        exact = True
        for p, a in fac.pairs:
            q = p**a
            if q not in factor_bounds:
                raise DomainError(f"no bound supplied for factor {q}")
            fb = factor_bounds[q]
            if isinstance(fb, ApproxValue):
                fb = fb.value
            if not isinstance(fb, int):
                exact = False
            value = value * fb
        params["factors"] = tuple(fac.prime_powers())
        if exact:
            return BoundReport(
                name="crt-product",
                parameters=params,
                value=value,
                exactness=EXACT_INT,
                flags=("caller-supplied-factors",),
            )
        return BoundReport(
            name="crt-product",
            parameters=params,
            value=float(value),
            exactness=FLOAT_APPROX,
            radius=abs(float(value)) * 8.0 * _EPS * (1 + len(fac.pairs)),
            flags=("caller-supplied-factors",),
        )
    raise UsageError(f"unknown crt_bound mode {mode!r}")


def generalized_ns_bound(moduli) -> int:
    """3 * sum over index sets I, |I| <= floor(2n/3), of prod_{i in I} (D_i - 1).

    The sum is the low-degree coefficient mass of prod_i (1 + (D_i - 1) x),
    accumulated by dynamic programming in big integers.
    """
    mv = as_modulus_vector(moduli)
    mv.require_min(3)
    limit = (2 * mv.n) // 3
    coeffs = [0] * (limit + 1)
    coeffs[0] = 1
    for d in mv:
        w = d - 1
        for j in range(min(limit, mv.n), 0, -1):
            coeffs[j] += w * coeffs[j - 1]
    return 3 * sum(coeffs)


def balanced_bound(n: int, M: int) -> int:
    """sum_{j <= floor(2n/3)} C(n,j) (ceil(M/n) - 1)^j, exact."""
    if n < 1:
        raise DomainError("n must be at least 1")
    if M < n:
        raise DomainError("M must be at least n")
    a = -(-M // n) - 1
    return sum(math.comb(n, j) * a**j for j in range((2 * n) // 3 + 1))


def main_bound(k: int, M: int) -> BoundReport:
    """3 (ceil(2k/3)+1) (2^(1/3) 3e)^k (ceil(M/k)-1)^ceil(2k/3), log-space.

    When ceil(M/k) = 1 (that is, M = k) the last factor is 0^positive and
    the bound degenerates to zero; the report flags that instead of
    pretending the inequality is informative there.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    if M < k:
        raise DomainError("M must be at least k")
    ck = -(-2 * k // 3)
    a = -(-M // k) - 1
    params = {"k": k, "M": M}
    if a == 0:
        return BoundReport(
            name="main-bound",
            parameters=params,
            value=0.0,
            exactness=FLOAT_APPROX,
            radius=0.0,
            flags=("degenerate-zero",),
        )
    out = _exp_with_radius(
        [
            math.log(3.0),
            math.log(ck + 1.0),
            k * (math.log(2.0) / 3.0 + math.log(3.0) + 1.0),
            ck * math.log(a),
        ]
    )
    return _approx_report("main-bound", params, out)


def corollary_bound(k: int, epsilon: float) -> BoundReport:
    """3 (ceil(2k/3)+1) (2^(1/3) 3e)^k k^ceil(k(1-2 eps/3)), log-space.

    The exponent ceiling is taken over exact rationals built from the float
    epsilon, so boundary cases like k(1-2 eps/3) integral stay exact.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    if not 0.0 < epsilon < 1.5:
        raise DomainError("epsilon must lie in (0, 1.5)")
    ck = -(-2 * k // 3)
    expo = math.ceil(k * (1 - 2 * Fraction(epsilon) / 3))
    terms = [
        math.log(3.0),
        math.log(ck + 1.0),
        k * (math.log(2.0) / 3.0 + math.log(3.0) + 1.0),
    ]
    if k > 1:  # epsilon < 1.5 forces expo >= 1; k = 1 contributes log 1 = 0
        terms.append(expo * math.log(k))
    params = {"k": k, "epsilon": epsilon, "exponent": expo}
    return _approx_report("corollary-bound", params, _exp_with_radius(terms))


def compare_bounds(moduli=None, k: int | None = None, M: int | None = None) -> list[BoundReport]:
    """Every applicable bound for one context, sorted ascending by value.

    Context is either a moduli vector (vector families) or the pair (k, M)
    (k-uniform families on M elements).
    """
    if moduli is not None and (k is not None or M is not None):
        raise UsageError("give either moduli or (k, M), not both")
    if moduli is not None:
        return _compare_vector_bounds(as_modulus_vector(moduli))
    if k is not None and M is not None:
        return _compare_uniform_bounds(k, M)
    raise UsageError("context needs moduli or both k and M")


def _compare_vector_bounds(mv: ModulusVector) -> list[BoundReport]:
    if mv.n == 0:
        raise UsageError("moduli context must have at least one coordinate")
    reports: list[BoundReport] = []
    if all(d >= 3 for d in mv):
        reports.append(
            BoundReport(
                name="generalized-ns",
                parameters={"moduli": tuple(mv)},
                value=generalized_ns_bound(mv),
                exactness=EXACT_INT,
            )
        )
        reports.append(
            BoundReport(
                name="balanced-times-three",
                parameters={"n": mv.n, "M": sum(mv)},
                value=3 * balanced_bound(mv.n, sum(mv)),
                exactness=EXACT_INT,
            )
        )
    distinct = set(mv)
    if len(distinct) == 1:
        d = distinct.pop()
        if d > 2:
            nsv = ns_vector_bound(d, mv.n)
            reports.append(_approx_report("ns-vector", {"D": d, "n": mv.n}, nsv))
            if factorize(d).is_prime_power:
                eg = eg_vector_bound(d, mv.n)
                reports.append(_approx_report("eg-vector", {"q": d, "n": mv.n}, eg))
    reports.sort(key=lambda r: (r.numeric(), r.name))
    return reports


def _compare_uniform_bounds(k: int, M: int) -> list[BoundReport]:
    reports = [
        BoundReport(
            name="erdos-rado-threshold",
            parameters={"k": k, "t": 3},
            value=erdos_rado_threshold(k, 3),
            exactness=EXACT_RATIONAL,
            strictness="exceeding-forces-sunflower",
        ),
        main_bound(k, M),
    ]
    if k >= 16:
        kv = kostochka_value(k)
        reports.append(
            BoundReport(
                name="kostochka",
                parameters={"k": k, "t": 3, "alpha": 2.0, "constant": 1.0},
                value=kv,
                exactness=FLOAT_APPROX,
                radius=kv * 1e-12,
                flags=("up-to-unspecified-constant",),
            )
        )
    reports.sort(key=lambda r: (r.numeric(), r.name))
    return reports
