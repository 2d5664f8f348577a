"""Sparse multivariate polynomials over alphabet-indexed variables.

Variables are x_a for a in R^arity (arity 1, 2, or 3 in practice).
Internally a monomial is a dense exponent vector over all
order^arity variables listed in omega-order, which makes the
canonical term order plain lexicographic comparison of keys.
Coefficients are Fraction or Cyclotomic; zero terms are never stored
and rational-valued cyclotomics are collapsed to Fraction.
"""

from __future__ import annotations

import struct
from array import array
from fractions import Fraction

from .exactnum import fraction_str, scalar_text, scalar_to_json, simplify
from .rings import RingSpec

__all__ = ["SparsePolynomial", "monomial_layout"]


def monomial_layout(nvars: int, degree: int) -> tuple[struct.Struct, int]:
    """A monomial packed as one int, variable v's exponent at 1 << bits * v,
    in digits of the fewest of 1, 2, 4 or 8 bytes that hold degree (sums
    within degree carry nothing); the struct unpacks key.to_bytes(size, "little")."""
    formats = {1: "B", 2: "H", 4: "I", 8: "Q"}
    width = next(w for w in formats if degree >> (8 * w) == 0)
    return struct.Struct(f"<{nvars}{formats[width]}"), 8 * width


class SparsePolynomial:
    """Polynomial with exact coefficients in variables indexed by tuples."""

    __slots__ = ("ring", "arity", "terms")

    def __init__(self, ring: RingSpec, arity: int, terms=None) -> None:
        if arity < 1:
            raise ValueError("arity must be positive")
        self.ring = ring
        self.arity = arity
        clean = {}
        if terms:
            nvars = ring.order**arity
            for exps, coeff in terms.items():
                key = tuple(exps)
                if len(key) != nvars:
                    raise ValueError("exponent vector has wrong length")
                try:
                    array("Q", key)  # takes only ints (by __index__) in [0, 2^64)
                except (TypeError, OverflowError):
                    raise ValueError("exponents must be ints from 0 to 2^64 - 1") from None
                c = simplify(coeff)
                if c:
                    clean[key] = c
        self.terms = clean

    # ---- variable indexing -------------------------------------------

    @property
    def nvars(self) -> int:
        return self.ring.order**self.arity

    def var_tuple(self, index: int) -> tuple[int, ...]:
        q = self.ring.order
        digits = []
        for _ in range(self.arity):
            digits.append(index % q)
            index //= q
        return tuple(reversed(digits))

    def var_index(self, symbols) -> int:
        q = self.ring.order
        symbols = tuple(symbols)
        if len(symbols) != self.arity:
            raise ValueError(f"expected {self.arity} symbols, got {len(symbols)}")
        idx = 0
        for s in symbols:
            if not 0 <= s < q:
                raise ValueError(f"symbol {s} out of range for {self.ring.label()}")
            idx = idx * q + s
        return idx

    # ---- constructors ------------------------------------------------

    @classmethod
    def zero(cls, ring: RingSpec, arity: int) -> "SparsePolynomial":
        return cls(ring, arity)

    @classmethod
    def constant(cls, ring: RingSpec, arity: int, value) -> "SparsePolynomial":
        nvars = ring.order**arity
        return cls(ring, arity, {(0,) * nvars: value})

    @classmethod
    def variable(cls, ring: RingSpec, arity: int, index: int) -> "SparsePolynomial":
        nvars = ring.order**arity
        exps = [0] * nvars
        exps[index] = 1
        return cls(ring, arity, {tuple(exps): Fraction(1)})

    # ---- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "SparsePolynomial") -> None:
        if self.ring != other.ring or self.arity != other.arity:
            raise ValueError("ring or arity mismatch")

    def __add__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + coeff
        return SparsePolynomial(self.ring, self.arity, out)

    def __sub__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SparsePolynomial(
            self.ring, self.arity, {k: -c for k, c in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._check_compatible(other)
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return SparsePolynomial(self.ring, self.arity, out)

    def scale(self, value) -> "SparsePolynomial":
        value = simplify(value)
        if not value:
            return SparsePolynomial.zero(self.ring, self.arity)
        return SparsePolynomial(
            self.ring, self.arity, {k: c * value for k, c in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int | None:
        """Common total degree if homogeneous, else None; zero poly gives None."""
        degrees = {sum(k) for k in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    # ---- substitution and evaluation -----------------------------------

    def substitute(self, rules: dict) -> "SparsePolynomial":
        """Simultaneous substitution variable index -> SparsePolynomial.

        Every variable occurring in a term must have a rule.  The target
        polynomials must share a ring and arity among themselves (which
        may differ from the source arity).
        """
        target = next(iter(rules.values()), None)
        if target is None:
            if self.terms:
                raise ValueError("no substitution rules for a nonzero polynomial")
            return self
        result = SparsePolynomial.zero(target.ring, target.arity)
        power_memo: dict = {}
        for key, coeff in self.terms.items():
            term_poly = SparsePolynomial.constant(target.ring, target.arity, coeff)
            for var, exp in enumerate(key):
                if exp == 0:
                    continue
                if var not in rules:
                    raise ValueError(f"missing substitution rule for variable {var}")
                memo_key = (var, exp)
                if memo_key not in power_memo:
                    p = rules[var]
                    acc = p
                    for _ in range(exp - 1):
                        acc = acc * p
                    power_memo[memo_key] = acc
                term_poly = term_poly * power_memo[memo_key]
            result = result + term_poly
        return result

    def evaluate(self, point):
        """Exact value at a point given as a sequence over all variables."""
        if len(point) != self.nvars:
            raise ValueError("point length must equal the variable count")
        total = Fraction(0)
        for key, coeff in self.terms.items():
            term = coeff
            for var, exp in enumerate(key):
                if exp == 0:
                    continue
                base = point[var]
                if not base:
                    term = Fraction(0)
                    break
                term = term * base**exp
            if term:
                total = total + term
        return simplify(total)

    # ---- rendering -----------------------------------------------------

    def canonical_items(self):
        """Terms sorted lexicographically by full exponent vector."""
        return sorted(self.terms.items())

    def _var_names(self, template: str, sep: str) -> list[str]:
        """The name of every variable: template filled with its symbols
        joined by sep, built once per rendering."""
        return [
            template.format(sep.join(map(str, self.var_tuple(v))))
            for v in range(self.nvars)
        ]

    def render_text(self) -> str:
        if not self.terms:
            return "0"
        names = self._var_names("x_({})", " ")
        parts = []
        for key, coeff in self.canonical_items():
            factors = [f"{names[v]}^{e}" for v, e in enumerate(key) if e > 0]
            if factors:
                parts.append(f"{scalar_text(coeff)} * " + " ".join(factors))
            else:
                parts.append(scalar_text(coeff))
        return " + ".join(parts)

    def to_json_obj(self):
        names = self._var_names("({})", ",")
        out = []
        for key, coeff in self.canonical_items():
            exps = {names[v]: e for v, e in enumerate(key) if e > 0}
            out.append({"exps": exps, "coeff": scalar_to_json(coeff)})
        return out

    def __repr__(self) -> str:
        return (
            f"SparsePolynomial({self.ring.label()}, arity={self.arity}, "
            f"{len(self.terms)} terms)"
        )

    __hash__ = None
