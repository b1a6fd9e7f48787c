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
from collections.abc import Sequence
from fractions import Fraction

from .errors import (
    DomainError,
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
    record,
)

_EPS = sys.float_info.epsilon
_EXP_OVERFLOW = 709.0  # log of the largest finite double, rounded down


@record
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


def _kostochka(k: int) -> ApproxValue:
    if k < 16:
        raise DomainError("need ln ln ln k > 0, which requires k >= 16")
    loglog = math.log(math.log(k))
    logloglog = math.log(loglog)
    terms = [math.lgamma(k + 1), k * (2.0 * math.log(logloglog) - math.log(2.0 * loglog))]
    # the nested logs scale the rounding of ln ln k by 1 / (loglog logloglog)
    # in log(logloglog), a term counted 2k times (logloglog is 0.0196 at k = 16)
    return _exp_with_radius(terms, extra_rel=8.0 * _EPS * k / (loglog * logloglog))


def kostochka_value(k: int) -> float:
    """k! * ((ln ln ln k)^2 / (2 ln ln k))^k, in log-space.

    The cited theorem is about 3-sunflowers only.  Its multiplicative
    constant is unspecified; the value takes it as 1, and reports built from
    it flag it as holding only up to that constant.  Natural logarithms
    throughout.
    """
    return _kostochka(k).value


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


@record
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


_J_ABS_TOL = 1e-12  # bracket stop: width in s, absolute
_J_REL_TOL = 1e-6  # and relative to s* (about 2.15 / q)


def j_constant(q: int) -> JMinimizationResult:
    """Minimize the J objective by safeguarded Newton steps on its slope.

    With x = exp(-s) the log objective is
    phi(s) = log(-expm1(-q s)) - log(-expm1(-s)) + (q-1) s / 3, which is
    log(sum_{i<q} e^{-i s}) + (q-1) s / 3 and so strictly convex.  Its slope
    phi'(s) = q / E - 1 / e + (q-1)/3, with e = expm1(s) and E = expm1(q s),
    is negative at s = 1/q and positive at s = 3/q, and its derivative is
    phi''(s) = (e+1)/e^2 - q^2 (E+1)/E^2 > 0.  Newton steps start at
    s = 2.149/q, the root for large q, and the sign of every slope they
    evaluate moves one end of the bracket [lo, hi], so the bracket always
    holds the root; a Newton point outside (lo, hi) is replaced by the
    midpoint.  Newton points close in on the root from one side, so once a
    step is below a quarter of the stop width the next point is set that
    quarter beyond the Newton point, just across the root, and the bracket
    closes from both sides.  The loop stops when the bracket is at most
    _J_ABS_TOL (the x bracket is no wider than the s bracket) and at most
    _J_REL_TOL of s, which takes 2 to 6 slope evaluations.  A wider bracket
    holds many doubles, since s <= 1.5, so each midpoint lies strictly
    inside.  The result is taken at the bracket's midpoint s.  By convexity
    phi(s) - min phi <= |phi'(s)| |s - s_root|, and the radius is
    J (|phi'(s)| (hi - lo) + 64 eps magnitude), the last term being the
    rounding budget of the evaluation.  q is capped at 2^53, the last q that
    is exact as a double.
    """
    if q < 2:
        raise DomainError("q must be at least 2")
    if q > 2**53:
        raise DomainError("q above 2^53 is not exact as a double")

    def slope(s: float) -> tuple[float, float]:
        e, big = math.expm1(s), math.expm1(q * s)
        return (
            q / big - 1.0 / e + (q - 1) / 3.0,
            (e + 1.0) / (e * e) - q * q * (big + 1.0) / (big * big),
        )

    lo, hi = 1.0 / q, 3.0 / q
    s = 2.149 / q
    while True:
        d, curvature = slope(s)
        if d < 0.0:
            lo = s
        else:
            hi = s
        width = min(_J_ABS_TOL, lo * _J_REL_TOL)
        if hi - lo <= width:
            break
        step = d / curvature
        s -= step
        if abs(step) < 0.25 * width:
            s += 0.25 * width if d < 0.0 else -0.25 * width
        if not lo < s < hi:
            s = 0.5 * (lo + hi)

    s = 0.5 * (lo + hi)
    terms = (
        math.log(-math.expm1(-q * s)), -math.log(-math.expm1(-s)), (q - 1) * s / 3.0, -math.log(q)
    )
    j_value = math.exp(math.fsum(terms))
    magnitude = math.fsum(abs(t) for t in terms) + 1.0
    radius = j_value * (abs(slope(s)[0]) * (hi - lo) + 64.0 * _EPS * magnitude)
    return JMinimizationResult(q=q, x_star=math.exp(-s), j_value=j_value, error_radius=radius)


@record
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
    """(J(q) q)^n for a prime power q > 2, with an error radius.

    It bounds families with no three-term progression of distinct points.
    For odd q such a progression is a sunflower, so it bounds sunflower-free
    families too, and compare_bounds reports it for moduli (q,) * n with q
    an odd prime power.  For even q it need not be one: in Z4^2 the
    progression (0,0), (2,1), (0,2) has first coordinates 0, 2, 0.
    """
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


def _bound_prefix(k: int) -> tuple[int, list[float]]:
    """ceil(2k/3) and the log terms of 3 (ceil(2k/3)+1) (2^(1/3) 3e)^k, shared by two bounds."""
    ck = -(-2 * k // 3)
    return ck, [math.log(3.0), math.log(ck + 1.0), k * (math.log(2.0) / 3.0 + math.log(3.0) + 1.0)]


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
    ck, terms = _bound_prefix(k)
    return _approx_report("main-bound", params, _exp_with_radius([*terms, ck * math.log(a)]))


def corollary_bound(k: int, epsilon: float) -> BoundReport:
    """3 (ceil(2k/3)+1) (2^(1/3) 3e)^k k^ceil(k(1-2 eps/3)), log-space.

    The exponent ceiling is taken over exact rationals built from the float
    epsilon, so boundary cases like k(1-2 eps/3) integral stay exact.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    if not 0.0 < epsilon < 1.5:
        raise DomainError("epsilon must lie in (0, 1.5)")
    expo = math.ceil(k * (1 - 2 * Fraction(epsilon) / 3))
    _, terms = _bound_prefix(k)
    if k > 1:  # epsilon < 1.5 forces expo >= 1; k = 1 contributes log 1 = 0
        terms.append(expo * math.log(k))
    params = {"k": k, "epsilon": epsilon, "exponent": expo}
    return _approx_report("corollary-bound", params, _exp_with_radius(terms))


def compare_bounds(moduli=None, k: int | None = None, M: int | None = None) -> list[BoundReport]:
    """Every applicable bound for one context, sorted ascending by value.

    Context is either a moduli vector (vector families) or the pair (k, M)
    (k-uniform families on M elements).  A context with no coordinate, or
    with M < k, has no bounds and raises UsageError or DomainError.
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
            if d % 2 and factorize(d).is_prime_power:
                eg = eg_vector_bound(d, mv.n)
                reports.append(_approx_report("eg-vector", {"q": d, "n": mv.n}, eg))
    reports.sort(key=lambda r: (r.value, r.name))  # exact: no float overflow
    return reports


def _compare_uniform_bounds(k: int, M: int) -> list[BoundReport]:
    reports = [main_bound(k, M)]
    # the threshold's numerator at k = 1423 is the last that Python prints
    # within its 4,300-digit int-to-str limit
    if k <= 1423:
        reports.append(
            BoundReport(
                name="erdos-rado-threshold",
                parameters={"k": k, "t": 3},
                value=erdos_rado_threshold(k, 3),
                exactness=EXACT_RATIONAL,
                strictness="exceeding-forces-sunflower",
            )
        )
    # ns_subset_bound(1107) is the last below the largest double; past it the
    # exact value, about 2^(0.92 M), only grows in digits and in cost
    if M <= 1107:
        reports.append(BoundReport("ns-subset", {"n": M}, ns_subset_bound(M), EXACT_INT))
    if k >= 16:
        kv = _kostochka(k)
        reports.append(
            BoundReport(
                name="kostochka",
                parameters={"k": k, "t": 3, "alpha": 2.0, "constant": 1.0},
                value=kv.value,
                exactness=FLOAT_APPROX,
                radius=kv.radius,
                flags=("up-to-unspecified-constant",),
            )
        )
    reports.sort(key=lambda r: (r.value, r.name))  # exact: no float overflow
    return reports
