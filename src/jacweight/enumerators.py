"""Weight enumerators of codes and their duality transforms.

Enumerator polynomials carry one variable per symbol tuple: complete
weight enumerators use tuples of length one, Jacobi and joint complete
weight enumerators length two, joint Jacobi polynomials length three,
and genus-g enumerators length g.  Every enumerator's coefficients come
from the one column-tuple counting kernel in codes.py, over the word
lists of its codes with the mask as a fixed word.
The duality transforms are one slot-wise transform: in a chosen code
slot, each variable x_(.., a, ..) becomes the character sum
sum_b chi(ab) x_(.., b, ..), and the result is scaled by 1/|code|.
Applied to the enumerator of (C, D, w) it yields the enumerator with
C or D replaced by its dual; transforming both slots is the first slot
followed by the second.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, itemgetter

from .codes import (
    LinearCode,
    _tuple_counts,
    check_budget,
    check_pair,
    comp_table,
    jacobi_table,
    joint_jacobi_table,
)
from .exactnum import CyclotomicIntegers
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
    """Complete weight enumerator: one monomial per codeword."""
    return SparsePolynomial(code.ring, 1, comp_table(code))


def cwe_genus(code: LinearCode, genus: int) -> SparsePolynomial:
    """Genus-g enumerator over g-tuples of codewords."""
    if genus < 1:
        raise ValueError("genus must be at least 1")
    # |C|^g, charged before the g copies of the word list are made
    check_budget(len(code.words), "tuples of codewords", power=genus)
    counts = _tuple_counts(code.ring, [code.words] * genus)
    return SparsePolynomial(code.ring, genus, counts)


def jacobi(code: LinearCode, w) -> SparsePolynomial:
    """Jacobi polynomial of a code with respect to a fixed mask word."""
    return SparsePolynomial(code.ring, 2, jacobi_table(code, w))


def joint_cwe(code_c: LinearCode, code_d: LinearCode) -> SparsePolynomial:
    """Joint complete weight enumerator over pairs in C x D."""
    check_pair(code_c, code_d)
    counts = _tuple_counts(code_c.ring, [code_c.words, code_d.words])
    return SparsePolynomial(code_c.ring, 2, counts)


def joint_jacobi(code_c: LinearCode, code_d: LinearCode, w) -> SparsePolynomial:
    """Joint Jacobi polynomial of a pair of codes against a mask word."""
    return SparsePolynomial(code_c.ring, 3, joint_jacobi_table(code_c, code_d, w))


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
    groups map to disjoint variables, so a monomial's image is the
    product of its group images.  A group image depends only on the
    group's exponents and is computed once per call.  Image terms are
    keyed by their nonzero groups until the end.

    The loops do integer arithmetic only: the coefficients are put over
    one common denominator and carried, like the characters, as
    exactnum.CyclotomicIntegers forms (ints, or phi(m)-tuples of ints
    in Z[zeta_m]).  One division by size * denominator at the end turns
    them back into Fractions and Cyclotomics.  A new group image charges
    a bound on its expansion steps to the budget, and each expansion of
    a monomial's partial image charges its term count.
    """
    scale = Fraction(1, size)
    ring = poly.ring
    q = ring.order
    nvars = poly.nvars
    stride = q ** (poly.arity - 1 - slot)
    groups = [
        tuple(base + a * stride for a in range(q))
        for base in range(nvars)
        if (base // stride) % q == 0
    ]
    getters = [itemgetter(*members) for members in groups]
    chars = [[ring.chi(ring.mul(a, b)) for b in range(q)] for a in range(q)]
    zints = CyclotomicIntegers(
        [*poly.terms.values(), *(c for row in chars for c in row)]
    )
    times, plus, zero = zints.mul, zints.add, zints.zero
    one = zints.to_ints(1, 1)
    # the image of x_a as the q terms chi(ab) x_b of the group's own variables
    unit = [tuple(int(b == c) for c in range(q)) for b in range(q)]
    forms = [
        [(unit[b], zints.columns(zints.to_ints(chars[a][b], 1))) for b in range(q)]
        for a in range(q)
    ]

    def group_image(exps):
        # each of the d products below expands at most comb(d + q - 1, q - 1) terms
        d = sum(exps)
        check_budget(d * q * math.comb(d + q - 1, q - 1), "group image steps")
        prod = {(0,) * q: one}
        for form, e in zip(forms, exps):
            for _ in range(e):
                nxt: dict = {}
                for k1, c1 in prod.items():
                    for k2, c2 in form:
                        k = tuple(map(add, k1, k2))
                        c = times(c1, c2)
                        nxt[k] = plus(nxt[k], c) if k in nxt else c
                prod = {k: c for k, c in nxt.items() if c != zero}
        return [(k, zints.columns(c)) for k, c in prod.items()]

    images: dict = {}
    out: dict = {}
    for key, coeff in poly.terms.items():
        partial = [((), zints.to_ints(coeff, zints.den))]
        for g, get in enumerate(getters):
            exps = get(key)
            if not any(exps):
                continue
            image = images.get(exps)
            if image is None:
                image = images[exps] = group_image(exps)
            check_budget(len(partial) * len(image), "transform terms")
            partial = [
                (k + ((g, ik),), times(c, ic)) for k, c in partial for ik, ic in image
            ]
        for k, c in partial:
            total = plus(out.pop(k, zero), c)
            if total != zero:
                out[k] = total
    scale /= zints.den
    terms = {}
    for k, c in out.items():
        vec = [0] * nvars
        for g, ik in k:
            for v, e in zip(groups[g], ik):
                vec[v] = e
        terms[tuple(vec)] = zints.to_scalar(c, scale)
    return SparsePolynomial(ring, poly.arity, terms)


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
