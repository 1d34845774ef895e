"""Exponential sums modulo q and the sawtooth transform toolbox.

Conventions: e(x) = exp(2*pi*i*x), and a function of period q is stored by its
values at the residues 1..q, one read-only complex128 array that `dft`, `idft`
and `b1_table` hand to numpy as it is.  The discrete Fourier transform used
throughout is

    f_hat(x) = sum_{n=1}^{q} f(n) e(-n x / q),

inverted by f(n) = (1/q) sum_{x=1}^{q} f_hat(x) e(n x / q).  `dft` and `idft`
run numpy's FFT on the values rolled so that residue q (= 0) comes first, in
O(q log q) for every q (pocketfft covers prime q by Bluestein's method).
`kloosterman_table` transforms one column per divisor d of q and gathers the
rest by K(a, d u; q) = K(a u, d; q) for units u, a block of rows at a time.
Each column is stored twice over, so the index of row a0 + r is
(r u mod q) + (a0 u mod q) with no reduction, and the block shift a0 u mod q
advances by one addition and one conditional subtraction per column: nothing
of size q^2 is divided, and the only q^2 array is the table.  The inverses
come from farey.unit_inverses, the package's one vectorised inverse table.
The scalar sums (`kloosterman`, `b1_hat_closed`, `geometric_sum_bound_check`)
take each root of unity from its exact integer residue, and `_unit_inverses`
and `b1_residue` stay on `pow` and `Fraction`: they are the independent
references.

The sawtooth b1(x) is 0 at integers and frac(x) - 1/2 elsewhere; its transform
has the closed form (1 + e(x/q)) / (2 (1 - e(x/q))).  Kloosterman sums
K(a, b; q) are real, obey the Weil bound gcd(a,b,q)^(1/2) tau(q) sqrt(q), and
specialize to Ramanujan sums at b = 0.  The twisted and weighted sawtooth sums
at inverted arguments n -> b1(N * inv(n, q) / q) are evaluated exactly in
integer arithmetic; their analytic bounds involve beta(q) =
sum_{d | q} log(q/d) / sqrt(d).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Union

import numpy as np

from .farey import inv_mod, unit_inverses

Rational = Union[int, Fraction]

#: Default tolerance of `PeriodicFunction.is_even` and `is_odd`.
IMAG_TOL = 1e-9

#: Rows per block of the `kloosterman_table` gather; on 37 primes q in
#: 512..1536, 32 and 64 ran alike, 16 and 128 about 1.15x slower and 8 about
#: 1.45x slower (2-vCPU Xeon VM, numpy 2.4).
_TABLE_ROWS = 32


@lru_cache(maxsize=64)
def _roots(q: int) -> tuple[complex, ...]:
    """e(k/q) for k = 0..q-1; the cache keeps the tables of the last 64 moduli."""
    return tuple(cmath.exp(2j * math.pi * k / q) for k in range(q))


@lru_cache(maxsize=64)
def _unit_inverses(q: int) -> tuple[tuple[int, int], ...]:
    """(n, inv(n) mod q) for the units n in 1..q, n increasing; cached as _roots is.

    By `pow` alone: the scalar reference that kloosterman_table is checked
    against, so it shares no code with farey.unit_inverses.
    """
    return tuple((n, pow(n, -1, q)) for n in range(1, q + 1) if math.gcd(n, q) == 1)


@dataclass(frozen=True, eq=False)
class PeriodicFunction:
    """A q-periodic function given by its values at the residues 1..q.

    values is a read-only complex128 array of shape (q,), copied from the
    values given, so f(n) is a complex (np.complex128 subclasses it).
    """

    period: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        values = np.array(self.values, dtype=complex)
        values.flags.writeable = False
        if values.shape != (self.period,):
            raise ValueError(f"expected {self.period} values, got shape {values.shape}")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, q: int, fn: Callable[[int], complex]) -> "PeriodicFunction":
        return cls(q, tuple(fn(n) for n in range(1, q + 1)))

    def __call__(self, n: int) -> complex:
        return self.values[(n - 1) % self.period]

    def is_even(self, tol: float = IMAG_TOL) -> bool:
        """True if f(-n) == f(n) for all n, within tol per entry."""
        return _all_within(self._reflected() - self.values, tol)

    def is_odd(self, tol: float = IMAG_TOL) -> bool:
        """True if f(-n) == -f(n) for all n, within tol per entry."""
        return _all_within(self._reflected() + self.values, tol)

    def _reflected(self) -> np.ndarray:
        """f(-n) at n = 1..q."""
        return np.roll(self.values[::-1], -1)


def _all_within(d: np.ndarray, tol: float) -> bool:
    """Whether |d| <= tol everywhere; hypot is abs(complex) bit for bit, np.abs is not."""
    return bool((np.hypot(d.real, d.imag) <= tol).all())


def _transform(values: np.ndarray, sign: int) -> np.ndarray:
    """out[k] = sum_n values[n-1] e(sign * n * (k+1) / q), q = len(values), by one FFT."""
    v = np.roll(values, 1)  # residue q (= 0) first
    out = np.fft.fft(v) if sign < 0 else np.fft.ifft(v, norm="forward")
    return np.roll(out, -1)  # residues 1..q


def dft(f: PeriodicFunction) -> PeriodicFunction:
    """Transform f_hat(x) = sum_{n=1}^{q} f(n) e(-n x / q) as a q-periodic function of x.

    Float error: the FFT is normwise stable, |err|_2 <= c eps log2(q) |f_hat|_2
    with c a small constant, so each entry is within about
    eps q log2(q) max|f| of the exact sum (below 1e-13 for |f| <= 1, q <= 1531).
    """
    return PeriodicFunction(f.period, _transform(f.values, -1))


def idft(f_hat: PeriodicFunction) -> PeriodicFunction:
    """Inverse transform; idft(dft(f)) recovers f up to float roundoff.

    Same FFT error bound as `dft`, divided by q: each entry is within about
    eps log2(q) max|f_hat| of the exact value.
    """
    q = f_hat.period
    return PeriodicFunction(q, _transform(f_hat.values, +1) / q)


def _check_real(imag: float, q: int, what: str) -> None:
    """Raise unless |imag| < 16 eps q log2(q), 16 times the `dft` error bound.

    Kloosterman sums measured stay below 0.7 eps q log2(q) (tables q <= 1536, sums q <= 200).
    """
    if abs(imag) >= 16 * sys.float_info.epsilon * q * max(1.0, math.log2(q)):
        raise ArithmeticError(f"{what} should be real, got imaginary part {imag}")


def kloosterman(a: int, b: int, q: int) -> float:
    """K(a, b; q) = sum over units n mod q of e((a n + b inv(n)) / q); always real."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    roots = _roots(q)
    acc = 0j
    for n, nbar in _unit_inverses(q):
        acc += roots[(a * n + b * nbar) % q]
    _check_real(acc.imag, q, f"K({a}, {b}; {q})")
    return acc.real


def kloosterman_table(q: int) -> np.ndarray:
    """Matrix of K(a, b; q) for a, b = 0..q-1, from tau(q) column transforms.

    Column d, for each divisor d of q, is one unnormalised inverse FFT over n
    of e(d inv(n) / q) on the units n, read off farey.unit_inverses(q).
    Every b is d u with d = gcd(b, q) and u the least unit that fits, and
    n -> u n gives K(a, d u; q) = K(a u, d; q), so the table is a gather
    from the tau(q) columns.  It is gathered
    _TABLE_ROWS rows at a time from each column stored twice over, so the
    index (r u mod q) + (a0 u mod q) of row a0 + r needs no reduction: the
    first term is fixed, and the block shift a0 u mod q advances by one
    addition and one conditional subtraction per block.  Memory is the table
    plus O(_TABLE_ROWS q + tau(q) q).  Float error as for `dft`: about
    eps q log2(q).
    """
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    inverses = unit_inverses(q)
    units = np.flatnonzero(inverses)
    invs = inverses[units]
    divs = np.array(list(_divisors(q)))
    terms = np.zeros((q, len(divs)), dtype=complex)
    terms[units] = np.exp(2j * np.pi * (np.outer(invs, divs) % q) / q)
    transformed = np.fft.ifft(terms, axis=0, norm="forward")  # sum_n terms[n] e(a n / q)
    _check_real(float(np.abs(transformed.imag).max()), q, f"Kloosterman table mod {q}")
    columns = np.tile(transformed.real.T, 2)  # row k: the column of d = divs[k], twice
    # b = d u first shows up, row by row, at d = divs[k] and the least unit u = units[j]
    _, first = np.unique(np.outer(divs, units) % q, return_index=True)
    k, j = np.divmod(first, len(units))
    u = units[j]
    rows = min(_TABLE_ROWS, q)
    head = np.outer(np.arange(rows), u) % q + k * (2 * q)  # r u mod q in row k of columns
    step = rows * u % q
    shift = np.zeros(q, dtype=np.int64)  # a0 u mod q
    idx = np.empty_like(head)
    table = np.empty((q, q))
    for a0 in range(0, q, rows):
        n = min(rows, q - a0)
        np.add(head[:n], shift, out=idx[:n])
        # every index is in range; a mode other than "raise" lets take write
        # straight into the table instead of through a buffer
        columns.take(idx[:n], out=table[a0 : a0 + n], mode="wrap")
        shift += step
        shift[shift >= q] -= q
    return table


def ramanujan(a: int, q: int) -> float:
    """Ramanujan sum c_q(a) = K(a, 0; q); an even function of a with c_q(0) = phi(q)."""
    return kloosterman(a, 0, q)


def _divisors(q: int) -> Iterator[int]:
    """The divisors of q >= 1 by trial division: d, then q // d, for each d <= sqrt(q)."""
    if q < 1:
        raise ValueError(f"argument must be >= 1, got {q}")
    for d in range(1, math.isqrt(q) + 1):
        if q % d == 0:
            yield from (d, q // d) if d * d < q else (d,)


def divisor_count(q: int) -> int:
    """tau(q), the number of divisors of q >= 1."""
    return sum(1 for _ in _divisors(q))


def beta(q: int) -> float:
    """beta(q) = sum over divisors d of q of log(q/d) / sqrt(d)."""
    total = 0.0
    for d in _divisors(q):
        total += math.log(q // d) / math.sqrt(d)
    return total


def weil_bound(a: int, b: int, q: int) -> float:
    """gcd(a, b, q)^(1/2) * tau(q) * sqrt(q), an upper bound for |K(a, b; q)|."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    return math.sqrt(math.gcd(a, b, q)) * divisor_count(q) * math.sqrt(q)


def b1(x: Rational) -> Fraction:
    """Sawtooth: 0 at integers, frac(x) - 1/2 elsewhere.  Odd and 1-periodic."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def b1_residue(num: int, den: int) -> Fraction:
    """b1(num/den) given den >= 1, in one mod: (2 (num mod den) - den) / (2 den)."""
    e = num % den
    return Fraction(2 * e - den, 2 * den) if e else Fraction(0)


def b1_table(q: int) -> PeriodicFunction:
    """The sawtooth sampled at n/q for n = 1..q, as a periodic function mod q."""
    if q < 1:
        raise ValueError(f"period must be >= 1, got {q}")
    e = np.arange(1, q + 1) % q
    # exact ints below 2^53: the float quotient is correctly rounded, as float(b1_residue) is
    return PeriodicFunction(q, np.where(e > 0, (2 * e - q) / (2 * q), 0.0))


def b1_hat_closed(x: int, q: int) -> complex:
    """Closed form of the sawtooth transform: 0 if q | x, else (1 + e(x/q)) / (2 (1 - e(x/q)))."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    if x % q == 0:
        return 0j
    w = cmath.exp(2j * math.pi * (x % q) / q)
    return (1 + w) / (2 * (1 - w))


def twisted_b1_sum(lo: int, hi: int, q: int, n: int) -> Fraction:
    """Exact sum of b1(n * inv(m, q) / q) over integers m in [lo, hi] coprime to q."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    total = Fraction(0)
    for m in range(lo, hi + 1):
        if math.gcd(m, q) == 1:
            total += b1_residue(n * pow(m, -1, q), q)
    return total


def twisted_b1_bound(q: int) -> float:
    """Bound (1/2) sqrt(q) tau(q) beta(q) log(q) for the twisted sawtooth sum over any interval."""
    return 0.5 * math.sqrt(q) * divisor_count(q) * beta(q) * math.log(q)


def weighted_b1_sum(s: int, a: Rational, b: Rational, n: int) -> Fraction:
    """Exact sum of (r - a) * b1(n * inv(r, s) / s) over integers r in ]a, b] coprime to s."""
    if s < 1:
        raise ValueError(f"modulus must be positive, got {s}")
    a, b = Fraction(a), Fraction(b)
    total = Fraction(0)
    for r in range(math.floor(a) + 1, math.floor(b) + 1):
        if math.gcd(r, s) == 1:
            total += (r - a) * b1_residue(n * inv_mod(r, s), s)
    return total


def weighted_b1_bound(s: int, a: Rational, b: Rational) -> float:
    """Bound (b - a) sqrt(s) tau(s) beta(s) log(s) for the weighted sawtooth sum."""
    return (
        float(Fraction(b) - Fraction(a))
        * math.sqrt(s)
        * divisor_count(s)
        * beta(s)
        * math.log(s)
    )


#: Slack absorbing float evaluation of sqrt/log/sin on the bound side.
BOUND_SLACK = 1e-12


def exact_within_bound(lhs: Rational, bound: float) -> bool:
    """|lhs| <= bound with the exact side rounded outward, so float noise never hides a violation."""
    return math.nextafter(abs(float(lhs)), math.inf) <= bound + BOUND_SLACK


def geometric_sum_bound_check(lo: int, hi: int, alpha: Fraction) -> bool:
    """Check |sum_{n=lo}^{hi} e(n alpha)| <= 1 / sin(pi alpha) for non-integer rational alpha.

    The bound is attained (at hi - lo + 1 = m terms with m alpha a half
    integer), so the check allows the float error of the sum: every partial
    sum obeys the same bound, so m roots and m additions add at most about
    4 m eps (bound + 1) to the computed modulus.
    """
    alpha = Fraction(alpha)
    if alpha.denominator == 1:
        raise ValueError("alpha must not be an integer")
    q = alpha.denominator
    roots = _roots(q)
    acc = 0j
    for n in range(lo, hi + 1):
        acc += roots[n * alpha.numerator % q]
    rhs = 1 / math.sin(math.pi * float(alpha - math.floor(alpha)))
    float_error = 4 * max(hi - lo + 1, 0) * sys.float_info.epsilon * (rhs + 1)
    return abs(acc) <= rhs + float_error + BOUND_SLACK

