"""Finite alphabets: prime-power fields F_q and modular rings Z_k.

Elements are plain ints in canonical encoding.  For F_q with q = p^f
the element a0 + a1*lam + ... + a_{f-1}*lam^(f-1) encodes as
sum a_i p^i with digits a_i in [0, p); for Z_k the element is its
residue.  0 is always the additive identity omega_0.  Arithmetic goes
through tables precomputed at construction, so element operations
never touch polynomial code after make_ring returns; F_p and Z_p share
the residue tables, and only F_{p^f} with f >= 2 builds its tables from
polynomials.  A construction charges its q^2 table entries to the
enumeration budget before it builds a table.

`Record` is the base of the package's frozen records, here and in
`codes`, `averages` and `designs`: plain classes in place of frozen
dataclasses, so that no command imports `dataclasses` and `inspect`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import attrgetter

from .budget import check_budget
from .exactnum import _reduce_mod, root_of_unity

__all__ = [
    "RingSpec",
    "make_ring",
    "field_ring",
    "modular_ring",
    "ring_from_json",
    "ring_to_json",
    "DEFAULT_POLYS",
]

# default irreducible moduli, ascending coefficients, for the shipped q
DEFAULT_POLYS = {
    (2, 2): (1, 1, 1),     # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),  # x^3 + x + 1
    (3, 2): (2, 1, 1),     # x^2 + x + 2
}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _is_irreducible(poly, p) -> bool:
    # trial division by all monic polynomials of degree 1 .. f//2
    f = len(poly) - 1
    for d in range(1, f // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not any(c % p for c in _reduce_mod(poly, low + (1,))):
                return False
    return True


class Record:
    """Base of the frozen records: RingSpec, LinearCode, AverageResult,
    BlockMultiset and DesignReport.

    A record lists its field names in order as `_fields`, and may name
    fields that == and hash leave out (`_uncompared`) and fields that repr
    leaves out (`_unshown`).  Its own __init__ checks the arguments and
    passes the fields, in order, to Record.__init__.  Two records are equal
    when they are of the same class and their compared fields are, the hash
    is that of the tuple of compared fields, and repr is
    `Name(field=value, ...)`, as for a frozen dataclass.  Setting or
    deleting an attribute raises AttributeError; cached_property still
    stores into a record that has an instance __dict__.  A copy or a pickle
    is rebuilt through the constructor from the fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()
    _unshown: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*(f for f in cls._fields if f not in cls._uncompared))
        cls._shown = tuple(f for f in cls._fields if f not in cls._unshown)

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RingSpec(Record):
    """Immutable description of the alphabet with precomputed op tables.

    A frozen record whose three tables are neither compared nor shown."""

    _fields = ("kind", "order", "root_order", "p", "f", "primitive_poly", "k",
               "add_table", "mul_table", "neg_table")
    _uncompared = _unshown = ("add_table", "mul_table", "neg_table")
    __slots__ = _fields

    def __init__(
        self,
        kind: str,
        order: int,
        root_order: int,
        p: int | None = None,
        f: int | None = None,
        primitive_poly: tuple[int, ...] | None = None,
        k: int | None = None,
        add_table: tuple[tuple[int, ...], ...] = (),
        mul_table: tuple[tuple[int, ...], ...] = (),
        neg_table: tuple[int, ...] = (),
    ):
        super().__init__(kind, order, root_order, p, f, primitive_poly, k,
                         add_table, mul_table, neg_table)

    @property
    def elements(self) -> range:
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def dot(self, u, v) -> int:
        """Inner product sum u_i v_i in the ring."""
        if len(u) != len(v):
            raise ValueError("length mismatch in inner product")
        acc = 0
        for x, y in zip(u, v):
            acc = self.add_table[acc][self.mul_table[x][y]]
        return acc

    def chi(self, a: int):
        """Additive character of a: zeta_m^a with m the root order, which is
        zeta_p^(constant coefficient) for fields and zeta_k^a for Z_k."""
        return root_of_unity(self.root_order, a)

    def label(self) -> str:
        return f"F{self.order}" if self.kind == "field" else f"Z{self.order}"


def field_ring(p: int, f: int = 1, primitive_poly=None) -> RingSpec:
    """Construct F_{p^f}; the modulus is validated for irreducibility.

    Its q^2 table entries are charged to the budget once f is known to be
    the modulus's degree, before p is tested for primality.
    """
    if f < 1:
        raise ValueError("extension degree must be at least 1")
    if primitive_poly is None:
        if f == 1:
            primitive_poly = (0, 1)
        elif (p, f) in DEFAULT_POLYS:
            primitive_poly = DEFAULT_POLYS[(p, f)]
        else:
            raise ValueError(
                f"no default modulus for q = {p}^{f}; supply primitive_poly"
            )
    if len(primitive_poly) != f + 1:
        raise ValueError("modulus must be monic of degree f")
    check_budget(p, "ring table entries", power=2 * f)
    q = p**f
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    poly = tuple(int(c) % p for c in primitive_poly)
    if poly[-1] != 1:
        raise ValueError("modulus must be monic of degree f")
    if f >= 2 and not _is_irreducible(poly, p):
        raise ValueError(f"modulus {poly} is reducible over F_{p}")
    add_table, mul_table, neg_table = (
        _residue_tables(p) if f == 1 else _extension_tables(p, f, poly)
    )
    return RingSpec(
        kind="field",
        order=q,
        root_order=p,
        p=p,
        f=f,
        primitive_poly=poly,
        add_table=add_table,
        mul_table=mul_table,
        neg_table=neg_table,
    )


def _extension_tables(p: int, f: int, poly):
    """The add, mul and neg tables of F_p[x] / (poly), poly of degree f,
    each element encoded by its digits base p."""
    q = p**f

    def decode(e: int):
        digits = []
        for _ in range(f):
            digits.append(e % p)
            e //= p
        return digits

    def encode(digits) -> int:
        e = 0
        for d in reversed(digits):
            e = e * p + d
        return e

    add_rows = []
    mul_rows = []
    neg_row = []
    for a in range(q):
        da = decode(a)
        neg_row.append(encode([(-x) % p for x in da]))
        add_rows.append(
            tuple(encode([(x + y) % p for x, y in zip(da, decode(b))]) for b in range(q))
        )
        row = []
        for b in range(q):
            # the monic long division over Z, then the remainder mod p
            prod = _reduce_mod(_poly_mul_mod_p(da, decode(b), p), poly)
            row.append(encode([c % p for c in prod]))
        mul_rows.append(tuple(row))
    return tuple(add_rows), tuple(mul_rows), tuple(neg_row)


def _residue_tables(k: int):
    """The add, mul and neg tables of the residues mod k: those of Z_k,
    and of F_p for k = p prime."""
    add_rows = tuple(tuple((a + b) % k for b in range(k)) for a in range(k))
    mul_rows = tuple(tuple((a * b) % k for b in range(k)) for a in range(k))
    neg_row = tuple((-a) % k for a in range(k))
    return add_rows, mul_rows, neg_row


def modular_ring(k: int) -> RingSpec:
    """Construct Z_k, its k^2 table entries charged to the budget first."""
    if k < 2:
        raise ValueError("modulus must be at least 2")
    check_budget(k * k, "ring table entries")
    add_rows, mul_rows, neg_row = _residue_tables(k)
    return RingSpec(
        kind="modring",
        order=k,
        root_order=k,
        k=k,
        add_table=add_rows,
        mul_table=mul_rows,
        neg_table=neg_row,
    )


def make_ring(kind: str, **params) -> RingSpec:
    if kind == "field":
        _require_key(params, kind, "p")
        return field_ring(
            params["p"], params.get("f", 1), params.get("primitive_poly")
        )
    if kind == "modring":
        _require_key(params, kind, "k")
        return modular_ring(params["k"])
    raise ValueError(f"unknown ring kind {kind!r}")


def _require_key(params, kind: str, key: str) -> None:
    if key not in params:
        raise ValueError(f"a {kind!r} ring needs the key {key!r}")


def ring_from_json(obj) -> RingSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("ring object must have a 'kind' key")
    for key in ("p", "f", "k"):
        if key in obj and type(obj[key]) is not int:
            raise ValueError(f"{key!r} must be an integer, got {obj[key]!r}")
    poly = obj.get("primitive_poly")
    if poly is not None and not (
        type(poly) is list and all(type(c) is int for c in poly)
    ):
        raise ValueError(f"'primitive_poly' must be a list of integers, got {poly!r}")
    return make_ring(**obj)


def ring_to_json(ring: RingSpec):
    if ring.kind == "field":
        return {
            "kind": "field",
            "p": ring.p,
            "f": ring.f,
            "primitive_poly": list(ring.primitive_poly),
        }
    return {"kind": "modring", "k": ring.k}
