"""Weight enumerators of codes and their duality transforms.

Enumerator polynomials carry one variable per symbol tuple: complete
weight enumerators use tuples of length one, Jacobi and joint complete
weight enumerators length two, joint Jacobi polynomials length three,
and genus-g enumerators length g.  Every enumerator is the table that
the one column-tuple counting kernel in codes.py returns, over the word
lists of its codes with the mask as a fixed word.
The duality transforms are one slot-wise transform: in a chosen code
slot, each variable x_(.., a, ..) becomes the character sum
sum_b chi(ab) x_(.., b, ..), and the result is scaled by 1/|code|.
Applied to the enumerator of (C, D, w) it yields the enumerator with
C or D replaced by its dual; transforming both slots is the first slot
followed by the second.  The transform substitutes one group of
variables at a time over the whole polynomial, on terms packed into ints
and with coefficients carried as ints mod Phi_m(2^b), so every ring runs
the same integer code.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .codes import (
    LinearCode,
    _tuple_counts,
    check_budget,
    check_pair,
    comp_table,
    jacobi_table,
    joint_jacobi_table,
)
from .exactnum import CyclotomicResidues, integer_coefficients
from .polynomials import SparsePolynomial

__all__ = [
    "cwe",
    "cwe_genus",
    "jacobi",
    "joint_cwe",
    "joint_jacobi",
    "collapse",
    "macwilliams_single",
    "macwilliams_first",
    "macwilliams_second",
    "macwilliams_both",
]


def cwe(code: LinearCode) -> SparsePolynomial:
    """Complete weight enumerator: the code's cached composition table,
    shared by every caller, so do not mutate it."""
    return comp_table(code)


def cwe_genus(code: LinearCode, genus: int) -> SparsePolynomial:
    """Genus-g enumerator over g-tuples of codewords."""
    if genus < 1:
        raise ValueError("genus must be at least 1")
    # |C|^g, charged before the g copies of the word list are made
    check_budget(len(code.words), "tuples of codewords", power=genus)
    return _tuple_counts(code.ring, [code.words] * genus)


def jacobi(code: LinearCode, w) -> SparsePolynomial:
    """Jacobi polynomial of a code with respect to a fixed mask word."""
    return jacobi_table(code, w)


def joint_cwe(code_c: LinearCode, code_d: LinearCode) -> SparsePolynomial:
    """Joint complete weight enumerator over pairs in C x D."""
    check_pair(code_c, code_d)
    return _tuple_counts(code_c.ring, [code_c.words, code_d.words])


def joint_jacobi(code_c: LinearCode, code_d: LinearCode, w) -> SparsePolynomial:
    """Joint Jacobi polynomial of a pair of codes against a mask word."""
    return joint_jacobi_table(code_c, code_d, w)


def collapse(poly: SparsePolynomial, keep_slots) -> SparsePolynomial:
    """Merge variables by keeping only the given symbol slots.

    Collapsing a joint Jacobi polynomial on slots (0, 2) recovers |D|
    copies of the Jacobi polynomial of C, and so on down the chain.
    """
    slots = tuple(keep_slots)
    if not slots:
        raise ValueError("keep_slots must name at least one slot")
    if len(set(slots)) != len(slots):
        raise ValueError("keep_slots must not repeat a slot")
    for s in slots:
        if not 0 <= s < poly.arity:
            raise ValueError(f"slot {s} out of range for arity {poly.arity}")
    q = poly.ring.order
    target = []
    for idx in range(poly.nvars):
        symbols = poly.var_tuple(idx)
        new_idx = 0
        for s in slots:
            new_idx = new_idx * q + symbols[s]
        target.append(new_idx)
    nvars = q ** len(slots)
    out: dict = {}
    for key, coeff in poly.terms.items():
        vec = [0] * nvars
        for t, e in zip(target, key):
            vec[t] += e
        merged = tuple(vec)
        out[merged] = out.get(merged, 0) + coeff
    return SparsePolynomial(poly.ring, len(slots), out)


# ---- duality transforms ----------------------------------------------------


def _macwilliams(poly: SparsePolynomial, slot: int, size) -> SparsePolynomial:
    """Map each x_(.., a, ..) to sum_b chi(ab) x_(.., b, ..) in one slot; scale 1/size.

    The q variables that differ only in that slot form a group, and
    groups map to disjoint variables, so the transform is one group's
    substitution after another over the whole polynomial, in the
    natural group order, as in Yates' algorithm.  Equal terms merge and
    zeros drop after each group, so terms that cancel never reach the
    later groups.  A group image, the expansion of the substitution in
    one monomial of the group's variables, depends only on the group's
    exponents and is computed once per call.

    Terms are the polynomial's packed keys, in its layout, whose digits hold
    every exponent formed; a term's degree, its digit sum, is at most
    2^bits - 1, so casting out 2^bits - 1 finds it.  A group image is kept
    with its digits at the last group's and shifted into each group's.
    Coefficients and characters go over one common denominator den and
    are carried as exactnum.CyclotomicResidues, ints mod Phi_m(2^b) with
    zeta_m -> 2^b, so F2 and Z[zeta_m] run the same int code.  Every
    value formed is a sum of at most paths = sum over terms of
    |den * c|_1 * q^deg units, and b is chosen from that bound, so a
    value is zero exactly when its residue is; one division by size *
    den at the end gives back the Fractions and Cyclotomics.  A new
    group image charges a bound on its expansion steps, and each group's
    substitution first charges the terms it forms: each term's image
    size, or 1 for a term with no exponent in the group.
    """
    ring = poly.ring
    q = ring.order
    stride = q ** (poly.arity - 1 - slot)
    # one character per ring element; chi(ab) is read by ring.mul(a, b)
    chars = [ring.chi(x) for x in range(q)]
    m, den, rows = integer_coefficients([*poly.packed.values(), *chars])
    nvars, bits = poly.nvars, poly.layout[1]
    digit_mask = (1 << bits) - 1
    degrees = [(k - 1) % digit_mask + 1 if k else 0 for k in poly.packed]
    paths = sum(sum(map(abs, row)) * q**d for row, d in zip(rows, degrees))
    res = CyclotomicResidues(m, paths)
    modulus, encode = res.modulus, res.encode
    shifts = [(q - 1 - a) * stride * bits for a in range(q)]
    place = [1 << s for s in shifts]
    group_mask = digit_mask * sum(place)
    # the characters are units: den divides their rows exactly
    units = [encode([c // den for c in row]) for row in rows[len(degrees):]]
    forms = [[(place[b], units[ring.mul(a, b)]) for b in range(q)] for a in range(q)]

    def group_image(packed):
        # each of the d products below expands at most comb(d + q - 1, q - 1) terms
        exps = [packed >> s & digit_mask for s in shifts]
        d = sum(exps)
        check_budget(d * q * math.comb(d + q - 1, q - 1), "group image steps")
        prod = {0: 1}
        for form, e in zip(forms, exps):
            for _ in range(e):
                nxt: dict = {}
                for k1, c1 in prod.items():
                    for k2, c2 in form:
                        nxt[k1 + k2] = nxt.get(k1 + k2, 0) + c1 * c2
                prod = {k: r for k, c in nxt.items() if (r := c % modulus)}
        return list(prod.items())

    images: dict = {}
    terms = dict(zip(poly.packed, map(encode, rows)))
    # a term's degree in each group is fixed, so groups no term uses stay so
    used = functools.reduce(operator.or_, terms, 0)
    for base in range(nvars):
        shift = (nvars - 1 - base - (q - 1) * stride) * bits
        if (base // stride) % q or not used >> shift & group_mask:
            continue
        buckets: dict = {}
        for item in terms.items():
            buckets.setdefault(item[0] >> shift & group_mask, []).append(item)
        terms = dict(buckets.pop(0, ()))
        moves = {}
        for packed in buckets:
            image = images.get(packed)
            if image is None:
                image = images[packed] = group_image(packed)
            moves[packed] = [((k - packed) << shift, c) for k, c in image]
        check_budget(
            len(terms) + sum(len(v) * len(moves[k]) for k, v in buckets.items()),
            "transform terms",
        )
        out: dict = {}
        for packed, items in buckets.items():
            for move, ic in moves[packed]:
                for key, c in items:
                    k = key + move
                    out[k] = out.get(k, 0) + c * ic
        terms.update((k, r) for k, c in out.items() if (r := c % modulus))
    scale = Fraction(1, size) / den
    # enumerator coefficients repeat, so each distinct one is decoded once
    scalar = functools.lru_cache(maxsize=None)(lambda c: res.to_scalar(c, scale))
    terms = zip(terms, map(scalar, terms.values()))
    return SparsePolynomial.from_packed(ring, poly.arity, terms, poly.layout)


def macwilliams_single(poly: SparsePolynomial, size: int) -> SparsePolynomial:
    """Duality transform on the code slot of a Jacobi polynomial."""
    if poly.arity != 2:
        raise ValueError("single transform expects a two-slot polynomial")
    return _macwilliams(poly, 0, size)


def macwilliams_first(poly: SparsePolynomial, size: int) -> SparsePolynomial:
    """Duality transform on the first code slot of a joint polynomial."""
    if poly.arity != 3:
        raise ValueError("first transform expects a three-slot polynomial")
    return _macwilliams(poly, 0, size)


def macwilliams_second(poly: SparsePolynomial, size: int) -> SparsePolynomial:
    """Duality transform on the second code slot of a joint polynomial."""
    if poly.arity != 3:
        raise ValueError("second transform expects a three-slot polynomial")
    return _macwilliams(poly, 1, size)


def macwilliams_both(
    poly: SparsePolynomial, size_c: int, size_d: int
) -> SparsePolynomial:
    """Duality transform on both code slots of a joint polynomial.

    The paired character sum factors per slot, so the transform is the
    two single-slot transforms composed; expanding slot by slot keeps
    the intermediate term count at q^n per monomial instead of q^(2n).
    """
    if poly.arity != 3:
        raise ValueError("both transform expects a three-slot polynomial")
    return macwilliams_second(macwilliams_first(poly, size_c), size_d)
