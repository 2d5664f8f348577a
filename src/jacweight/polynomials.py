"""Sparse multivariate polynomials over alphabet-indexed variables.

Variables are x_a for a in R^arity (arity 1, 2, or 3 in practice) in
omega-order.  A monomial is one int packed by `monomial_layout`, variable 0
the most significant digit, so canonical term order (lexicographic on
exponent vectors) is int order.  Tables are polynomials, their counts the
coefficients, read by their keys' digits; only the algebra decodes the
dense view `terms`.  Coefficients are int counts in tables and Fraction or
Cyclotomic elsewhere, normalized where they are made: zero terms are never
stored and rational-valued cyclotomics are collapsed to Fraction.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import compress

from .exactnum import scalar_text, scalar_to_json, simplify
from .rings import RingSpec

__all__ = ["SparsePolynomial", "dense_terms", "monomial_layout"]


def monomial_layout(nvars: int, degree: int) -> tuple[struct.Struct, int]:
    """A monomial as one int, variable v's exponent at 1 << bits * (nvars - 1 - v),
    in digits of the fewest of 1, 2, 4 or 8 bytes that hold degree (sums
    within degree carry nothing); the struct unpacks key.to_bytes(size, "big")."""
    formats = {1: "B", 2: "H", 4: "I", 8: "Q"}
    width = next(w for w in formats if degree >> (8 * w) == 0)
    return struct.Struct(f">{nvars}{formats[width]}"), 8 * width


def dense_terms(packed, layout) -> dict:
    """{exponent tuple: value} of {packed monomial in layout: value}."""
    unpack, size = layout[0].unpack, layout[0].size
    return {unpack(k.to_bytes(size, "big")): value for k, value in packed.items()}


class SparsePolynomial:
    """{packed monomial: exact coefficient}, digits holding the top degree."""

    __slots__ = ("ring", "arity", "packed", "layout")

    def __init__(self, ring: RingSpec, arity: int, terms=None) -> None:
        if arity < 1:
            raise ValueError("arity must be positive")
        terms = terms or {}
        nvars = ring.order**arity
        keys = [tuple(exps) for exps in terms]
        for key in keys:
            if len(key) != nvars:
                raise ValueError("exponent vector has wrong length")
            if {*map(type, key)} - {int} or min(key) < 0 or sum(key) >> 64:
                raise ValueError("exponents must be ints from 0, summing below 2^64")
        self.ring = ring
        self.arity = arity
        self.layout = layout = monomial_layout(nvars, max(map(sum, keys), default=0))
        self.packed = {
            int.from_bytes(layout[0].pack(*key), "big"): c
            for key, coeff in zip(keys, terms.values())
            if (c := simplify(coeff))
        }

    @classmethod
    def from_packed(cls, ring: RingSpec, arity: int, pairs, layout) -> "SparsePolynomial":
        """(key, nonzero coefficient) pairs, both taken as given: keys in the
        layout monomial_layout(ring.order**arity, d), d at least their
        degrees, and coefficients normalized, int counts or Fractions or
        Cyclotomics that are not rational."""
        poly = cls.__new__(cls)
        poly.ring = ring
        poly.arity = arity
        poly.layout = layout
        poly.packed = dict(pairs)
        return poly

    @property
    def terms(self) -> dict:
        """The dense view {exponent tuple: coefficient}, decoded on each access."""
        return dense_terms(self.packed, self.layout)

    def digits(self, key: int) -> list[tuple[int, int]]:
        """(variable, exponent) of a key's nonzero digits, by variable, peeled
        from the lowest set bit: no dense vector is made."""
        bits, out = self.layout[1], []
        while key:
            d = ((key & -key).bit_length() - 1) // bits
            e = key >> d * bits & (1 << bits) - 1
            out.append((self.nvars - 1 - d, e))
            key ^= e << d * bits
        return out[::-1]

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
        return (self.ring, self.arity) == (other.ring, other.arity) and (
            self.packed == other.packed if self.layout[1] == other.layout[1]
            else self.terms == other.terms  # digits of other widths
        )

    def __bool__(self) -> bool:
        return bool(self.packed)

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

    def _canonical_digits(self, template: str, sep: str):
        """Each variable's name, template filled with its symbols joined by
        sep, and each term's (coefficient, digits) in canonical order."""
        variables = range(self.nvars)
        names = [template.format(sep.join(map(str, self.var_tuple(v)))) for v in variables]
        layout = self.layout[0]
        keys = sorted(self.packed)
        digits = (layout.unpack(k.to_bytes(layout.size, "big")) for k in keys)
        return names, variables, zip(map(self.packed.get, keys), digits)

    def render_text(self) -> str:
        names, variables, terms = self._canonical_digits("x_({})", " ")
        parts = []
        for coeff, exps in terms:
            text = " ".join([f"{names[v]}^{exps[v]}" for v in compress(variables, exps)])
            parts.append(f"{scalar_text(coeff)} * {text}" if text else scalar_text(coeff))
        return " + ".join(parts) or "0"

    def to_json_obj(self):
        names, variables, terms = self._canonical_digits("({})", ",")
        return [
            {"exps": {names[v]: exps[v] for v in compress(variables, exps)},
             "coeff": scalar_to_json(coeff)}
            for coeff, exps in terms
        ]

    def __repr__(self) -> str:
        return (
            f"SparsePolynomial({self.ring.label()}, arity={self.arity}, "
            f"{len(self.packed)} terms)"
        )

    __hash__ = None
