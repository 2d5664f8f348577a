"""Exact scalars: arbitrary-precision rationals and cyclotomic numbers.

Rational values are fractions.Fraction.  Character sums live in the
cyclotomic field Q(zeta_m), represented canonically as residues in
Q[x]/Phi_m(x), so equality is coefficient-wise.  A value that is
actually rational collapses back to a Fraction via simplify(), and
code that requires a rational result raises NonRationalValue when a
root-of-unity part survives.

CyclotomicIntegers is the same canonical form without fractions, for
hot loops: values are brought over one common denominator and carried
as ints (phi(m) = 1) or phi(m)-tuples of ints in Z[zeta_m], multiplied
through zeta^phi mod Phi_m (from cyclotomic_poly and _reduce_mod), and
turned back into Fractions or Cyclotomics by one division at the end.
The duality transform in enumerators.py computes this way.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

__all__ = [
    "NonRationalValue",
    "cyclotomic_poly",
    "Cyclotomic",
    "CyclotomicIntegers",
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


class CyclotomicIntegers:
    """Integer arithmetic in Z[zeta_m] for scalars put over one denominator.

    Built from the scalars a kernel will meet, m is the one root order
    among their Cyclotomics (1 when there are none; mixed orders raise
    ValueError), and den is the least common denominator of all their
    coefficients.  to_ints(v, d) is d * v, which must be integral, as a
    plain int when phi(m) = 1 and otherwise as a tuple of phi(m) ints in
    the basis 1, zeta_m, ..., zeta_m^(phi-1).  A multiplier b is first
    turned into its columns zeta^j * b for j < phi, each the last one
    shifted up with its top coefficient folded back through zeta^phi
    mod Phi_m; mul(a, columns(b)) is then sum_j a_j * zeta^j * b.  For
    phi(m) = 1, mul and add are the int operators.
    """

    __slots__ = ("m", "phi", "den", "zero", "mul", "add", "_zeta_phi")

    def __init__(self, values) -> None:
        orders = {v.m for v in values if isinstance(v, Cyclotomic)}
        if len(orders) > 1:
            raise ValueError(
                f"mixed root orders {sorted(orders)} without explicit lift"
            )
        self.m = orders.pop() if orders else 1
        phi_poly = cyclotomic_poly(self.m)
        self.phi = len(phi_poly) - 1
        self._zeta_phi = tuple(_reduce_mod([0] * self.phi + [1], phi_poly))
        self.den = math.lcm(*(c.denominator for v in values for c in self._parts(v)))
        if self.phi == 1:
            self.zero, self.mul, self.add = 0, operator.mul, operator.add
        else:
            self.zero, self.mul, self.add = (0,) * self.phi, self._mul, _add_tuples

    def _parts(self, value) -> tuple:
        if isinstance(value, Cyclotomic):
            return value.coeffs
        return (Fraction(value),) + (Fraction(0),) * (self.phi - 1)

    def to_ints(self, value, den: int):
        ints = tuple(c.numerator * (den // c.denominator) for c in self._parts(value))
        return ints[0] if self.phi == 1 else ints

    def to_scalar(self, ints, scale: Fraction):
        """The exact scalar ints * scale."""
        if self.phi == 1:
            return ints * scale
        return Cyclotomic(self.m, tuple(c * scale for c in ints))

    def columns(self, b):
        if self.phi == 1:
            return b
        cols = [b]
        for _ in range(self.phi - 1):
            last = cols[-1]
            top = last[-1]
            cols.append(
                tuple(x + top * z for x, z in zip((0,) + last[:-1], self._zeta_phi))
            )
        return tuple(cols)

    def _mul(self, a, cols):
        out = [0] * self.phi
        for x, col in zip(a, cols):
            if x:
                for t, v in enumerate(col):
                    out[t] += x * v
        return tuple(out)


def _add_tuples(a, b):
    return tuple(map(operator.add, a, b))


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


def fraction_str(value: Fraction) -> str:
    """Serialize a rational as num/den, denominator always present."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def scalar_to_json(value):
    """JSON form of a scalar: "num/den" or {"m": m, "coeffs": [...]}"""
    value = simplify(value)
    if isinstance(value, Fraction):
        return fraction_str(value)
    return {"m": value.m, "coeffs": [fraction_str(c) for c in value.coeffs]}


def scalar_text(value) -> str:
    """Plain text form of a scalar for polynomial rendering."""
    value = simplify(value)
    if isinstance(value, Fraction):
        return str(value)
    return f"({cyclo_text(value)})"
