"""Exact scalars: arbitrary-precision rationals and cyclotomic numbers.

Rational values are fractions.Fraction.  Character sums live in the
cyclotomic field Q(zeta_m), represented canonically as residues in
Q[x]/Phi_m(x), so equality is coefficient-wise.  A value that is
actually rational collapses back to a Fraction via simplify(), and
code that requires a rational result raises NonRationalValue when a
root-of-unity part survives.

For hot loops, integer_coefficients brings values over one common
denominator as phi(m) ints each, and CyclotomicResidues carries an
element of Z[zeta_m] as one int mod Phi_m(2^b), with zeta_m -> 2^b, so
that ring arithmetic is int arithmetic; b is wide enough that the
balanced residue reads back the canonical coefficients.  One division
at the end turns them back into Fractions or Cyclotomics.  The duality
transform in enumerators.py computes this way.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

__all__ = [
    "NonRationalValue",
    "cyclotomic_poly",
    "Cyclotomic",
    "CyclotomicResidues",
    "integer_coefficients",
    "root_of_unity",
    "simplify",
    "to_rational",
    "fraction_str",
    "scalar_to_json",
    "scalar_text",
]

class NonRationalValue(ValueError):
    """A value with a nonzero root-of-unity part was forced to a rational."""


def _divide_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # long division by a monic integer polynomial; remainder must vanish
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + len(den) - 1]
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending degree.

    Computed by exact division of x^m - 1 by Phi_d for every proper
    divisor d of m.
    """
    if m < 1:
        raise ValueError("root order must be positive")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _divide_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


def _reduce_mod(coeffs, phi: tuple[int, ...]) -> list:
    # remainder by long division by the monic phi; exact over ints and Fractions
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j, p in enumerate(phi):
                work[i - deg + j] -= c * p
    return work[:deg]


class Cyclotomic:
    """Element of Q(zeta_m) as a reduced polynomial in zeta_m.

    coeffs has fixed length deg(Phi_m); index i holds the coefficient
    of zeta_m^i.  Instances are treated as immutable.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs) -> None:
        phi = cyclotomic_poly(m)
        deg = len(phi) - 1
        work = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(work) > deg:
            work = _reduce_mod(work, phi)
        work.extend([Fraction(0)] * (deg - len(work)))
        self.m = m
        self.coeffs = tuple(work)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.m != self.m:
                raise ValueError(
                    f"mixed root orders {self.m} and {other.m} without explicit lift"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.m, (Fraction(other),))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.m, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.m, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.m, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        out[i + j] += a * b
        return Cyclotomic(self.m, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1, 1) / Fraction(other)
            return Cyclotomic(self.m, tuple(a * inv for a in self.coeffs))
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not supported")
        result = Cyclotomic(self.m, (Fraction(1),))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            if other.m == self.m:
                return self.coeffs == other.coeffs
            return (
                self.is_rational()
                and other.is_rational()
                and self.constant == other.constant
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.constant == Fraction(other)
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.constant)
        return hash((self.m, self.coeffs))

    def __repr__(self) -> str:
        return f"Cyclotomic({self.m}, {cyclo_text(self)})"

    def __str__(self) -> str:
        return cyclo_text(self)


def integer_coefficients(values):
    """(m, den, rows): the values over one denominator, as ints.

    m is the one root order among the Cyclotomics in values (1 when
    there are none; mixed orders raise ValueError), den the least common
    denominator of all their coefficients, and rows[i] is den * values[i]
    as phi(m) ints in the basis 1, zeta_m, ..., zeta_m^(phi-1).
    """
    orders = {v.m for v in values if isinstance(v, Cyclotomic)}
    if len(orders) > 1:
        raise ValueError(f"mixed root orders {sorted(orders)} without explicit lift")
    m = orders.pop() if orders else 1
    pad = (0,) * (len(cyclotomic_poly(m)) - 2)
    parts = [v.coeffs if isinstance(v, Cyclotomic) else (v, *pad) for v in values]
    den = math.lcm(*(c.denominator for p in parts for c in p))
    return m, den, [[c.numerator * (den // c.denominator) for c in p] for p in parts]


@functools.lru_cache(maxsize=None)
def unit_top(m: int) -> int:
    """The largest |coefficient| of zeta_m^t mod Phi_m over t < m."""
    phi = cyclotomic_poly(m)
    return max(abs(c) for t in range(m) for c in _reduce_mod([0] * t + [1], phi))


class CyclotomicResidues:
    """Z[zeta_m] carried as ints mod N = Phi_m(2^b), with zeta_m -> 2^b.

    Kronecker substitution: c_0 + c_1 zeta_m + ... encodes as the int
    c_0 + c_1 2^b + ... mod N, a ring map since Phi_m(2^b) = N, so sums
    and products of encodings encode the sums and products.  It is
    exact on values that are sums of at most `paths` units (integer
    times root of unity): their canonical coefficients lie at or below
    top_m * paths < 2^(b-3), where b = max(8, bitlen(top_m * paths) + 3)
    and top_m = unit_top(m), so the balanced residue mod N is the value
    at 2^b itself and its balanced base-2^b digits are the coefficients.
    Such a value is zero exactly when its residue is.
    """

    __slots__ = ("m", "phi", "bits", "modulus")

    def __init__(self, m: int, paths: int) -> None:
        poly = cyclotomic_poly(m)
        self.m, self.phi = m, len(poly) - 1
        self.bits = max(8, (unit_top(m) * paths).bit_length() + 3)
        self.modulus = sum(c << (self.bits * i) for i, c in enumerate(poly))

    def encode(self, ints) -> int:
        """The residue of sum_i ints[i] * zeta_m^i."""
        return sum(c << (self.bits * i) for i, c in enumerate(ints)) % self.modulus

    def decode(self, residue: int) -> list[int]:
        """The phi(m) coefficients of the value whose residue this is."""
        value = residue % self.modulus
        if 2 * value > self.modulus:
            value -= self.modulus
        half, coeffs = 1 << (self.bits - 1), []
        for _ in range(self.phi):
            digit = (value + half) % (2 * half) - half
            coeffs.append(digit)
            value = (value - digit) >> self.bits
        return coeffs

    def to_scalar(self, residue: int, scale: Fraction):
        """The exact scalar (decoded residue) * scale, normalized: a
        Cyclotomic only when it is not rational, a Fraction otherwise."""
        coeffs = self.decode(residue)
        if self.phi == 1:
            return coeffs[0] * scale
        return simplify(Cyclotomic(self.m, [c * scale for c in coeffs]))


def cyclo_text(value: Cyclotomic) -> str:
    sym = f"z{value.m}"
    parts = []
    for i, c in enumerate(value.coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*{sym}")
        else:
            parts.append(f"{c}*{sym}^{i}")
    return " + ".join(parts) if parts else "0"


def root_of_unity(m: int, power: int = 1):
    """zeta_m^power as an exact scalar, collapsed to Fraction when rational."""
    e = power % m
    coeffs = [Fraction(0)] * e + [Fraction(1)]
    return simplify(Cyclotomic(m, coeffs))


def simplify(value):
    """Normalize a scalar: ints become Fractions, rational Cyclotomics collapse."""
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Cyclotomic) and value.is_rational():
        return value.constant
    return value


def to_rational(value) -> Fraction:
    """Force a scalar to a Fraction; raise NonRationalValue if it is not one."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, Cyclotomic):
        if value.is_rational():
            return value.constant
        raise NonRationalValue(f"value {value} has a nonzero root-of-unity part")
    raise TypeError(f"not an exact scalar: {value!r}")


def fraction_str(value: int | Fraction) -> str:
    """Serialize a rational, an int or a Fraction, as num/den, denominator
    always present: an int n and Fraction(n) both give "n/1"."""
    return f"{value.numerator}/{value.denominator}"


def scalar_to_json(value):
    """JSON form of a scalar: "num/den" or {"m": m, "coeffs": [...]}"""
    if isinstance(value, Cyclotomic):
        if not value.is_rational():
            return {"m": value.m, "coeffs": [fraction_str(c) for c in value.coeffs]}
        value = value.constant
    return fraction_str(value)


def scalar_text(value) -> str:
    """Plain text form of a scalar for polynomial rendering; an int n and
    Fraction(n) both give "n"."""
    if isinstance(value, Cyclotomic):
        if not value.is_rational():
            return f"({cyclo_text(value)})"
        value = value.constant
    return str(value)
