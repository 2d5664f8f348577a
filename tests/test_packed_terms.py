"""Packed monomials from the counting kernel to the text.

The kernel's tables, polynomials keyed by ints of `monomial_layout`, decode
to the literal counter; polynomials built from packed keys read, render
and compare like those built from dense exponent vectors, against a
literal renderer; the transforms of packed enumerators equal the
enumerators of the duals; and the CLI's enumerator, transform and average
commands never build a dense exponent tuple.  Rings F2, F3, F4, F8, F9, Z4
and Z6, and two-byte digits on codes of length 256 and more.
"""

import contextlib
import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacweight import cli, codes, polynomials
from jacweight.codes import (
    LinearCode,
    _code_counts,
    _direct_counts,
    _glue_cosets,
    _split_counts,
    _tuple_counts,
    comp_table,
    jacobi_table,
    joint_jacobi_table,
)
from jacweight.enumerators import (
    cwe_genus,
    jacobi,
    joint_jacobi,
    macwilliams_both,
    macwilliams_first,
    macwilliams_second,
    macwilliams_single,
)
from jacweight.exactnum import Cyclotomic, scalar_text, scalar_to_json, simplify
from jacweight.polynomials import SparsePolynomial, monomial_layout
from jacweight.rings import field_ring, modular_ring
from test_tuple_counts import RINGS, glued_cases, literal_counts


def pack_all(dense, layout):
    """[(packed key, value)] of {exponent tuple: value} in layout."""
    return [(int.from_bytes(layout[0].pack(*k), "big"), c) for k, c in dense.items()]


def code_from(draw, ring, n, max_rows):
    rows = draw(
        st.lists(st.tuples(*[st.integers(0, ring.order - 1)] * n), max_size=max_rows)
    )
    return LinearCode(ring, n, tuple(rows))


@st.composite
def tables(draw):
    """One or two codes of one length n <= 5 over a ring, and up to one
    fixed word, with at most 2048 word tuples."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    n = draw(st.integers(1, 5))
    pair = []
    for _ in range(draw(st.integers(1, 2))):
        code = code_from(draw, ring, n, 2)
        if math.prod(len(c.words) for c in pair) * code.size > 2048:
            code = LinearCode(ring, n, code.generators[:1])
        pair.append(code)
    fixed = draw(st.lists(st.tuples(*[st.integers(0, ring.order - 1)] * n), max_size=1))
    return ring, pair, tuple(fixed)


def check_packed(table, dense):
    """The table's packed keys fit the layout of its arity and degree n,
    decode to dense in its order with int counts, and sort as the dense
    keys do."""
    struct_, bits = table.layout
    nvars = len(next(iter(dense)))
    assert table.nvars == nvars
    struct_n, bits_n = monomial_layout(nvars, sum(next(iter(dense))))
    assert (struct_.format, bits) == (struct_n.format, bits_n)
    assert all(k >> 8 * struct_.size == 0 for k in table.packed)
    assert list(table.terms.items()) == list(dense.items())
    assert all(type(c) is int for c in table.packed.values())
    rows = (k.to_bytes(struct_.size, "big") for k in sorted(table.packed))
    assert list(map(struct_.unpack, rows)) == sorted(dense)
    # variable 0 is the most significant digit
    for key, vector in zip(table.packed, dense):
        assert key == sum(e << bits * (nvars - 1 - v) for v, e in enumerate(vector))
        assert table.digits(key) == [(v, e) for v, e in enumerate(vector) if e]


@given(tables())
@settings(max_examples=80, deadline=None)
def test_packed_tables_decode_to_the_direct_and_literal_counts(case):
    ring, pair, fixed = case
    word_lists = [code.words for code in pair]
    literal = literal_counts(ring, word_lists, fixed)
    direct = _direct_counts(ring, word_lists, fixed)
    assert direct.terms == literal
    check_packed(direct, literal)
    assert _tuple_counts(ring, word_lists, fixed).terms == literal
    if len(pair) == 1:
        # the route of the single-code tables, by popcount over F2
        check_packed(_code_counts(pair[0], fixed), literal)


INT_RINGS = ("F2", "F3", "F4", "Z4", "Z6")


@st.composite
def table_codes(draw):
    """Two codes of one length n <= 5 over F2, F3, F4, Z4 or Z6, a mask,
    and a genus whose tuples of the second code number at most 2048."""
    ring = RINGS[draw(st.sampled_from(INT_RINGS))]
    n = draw(st.integers(1, 5))
    pair = [code_from(draw, ring, n, 2) for _ in range(2)]
    mask = draw(st.tuples(*[st.integers(0, ring.order - 1)] * n))
    genus = draw(st.integers(1, 3))
    while pair[1].size**genus > 2048:
        genus -= 1
    return pair, mask, genus


@given(table_codes(), glued_cases(INT_RINGS))
@settings(max_examples=60, deadline=None)
def test_table_counts_are_ints_that_render_as_their_fractions(case, glued):
    """Every kernel table, by the bit-sliced route over F2, the walk and the
    split route, holds int counts, and its text and JSON are those of the
    same terms with Fraction counts through the checking constructor."""
    (code_c, code_d), mask, genus = case
    ring, word_lists, fixed = glued
    n = len(word_lists[0][0])
    cosets = [_glue_cosets(words, n // 2) for words in word_lists]
    for table in (
        comp_table(code_c),
        jacobi_table(code_c, mask),
        joint_jacobi_table(code_c, code_d, mask),
        cwe_genus(code_d, genus),
        _split_counts(ring, cosets, fixed, n),
    ):
        assert table.packed
        assert all(type(c) is int for c in table.packed.values())
        dense = {key: Fraction(c) for key, c in table.terms.items()}
        built = SparsePolynomial(table.ring, table.arity, dense)
        assert all(type(c) is Fraction for c in built.packed.values())
        assert table.render_text() == built.render_text()
        assert table.to_json_obj() == built.to_json_obj()


F2 = field_ring(2)


@pytest.mark.parametrize("n", [256, 300])
def test_two_byte_digits_on_long_codes(n):
    """An F2 code by popcount, by the walk and paired with three of its
    words, and a one-row Z16 code with a mask, whose 256 column indices are
    mostly not in use, so that most digits of its keys stay zero."""
    rng = random.Random(f"two-byte-{n}")
    rows = tuple(tuple(rng.randrange(2) for _ in range(n)) for _ in range(3))
    code = LinearCode(F2, n, rows)
    mask = tuple(rng.randrange(2) for _ in range(n))
    literal = literal_counts(F2, [code.words], (mask,))
    for counts in (_code_counts(code, (mask,)), _direct_counts(F2, [code.words], (mask,))):
        assert counts.layout[1] == 16
        check_packed(counts, literal)
    pair = [code.words, code.words[:3]]
    literal = literal_counts(F2, pair, (mask,))
    check_packed(_tuple_counts(F2, pair, (mask,)), literal)
    z16 = modular_ring(16)
    row = LinearCode(z16, n, (tuple(rng.randrange(16) for _ in range(n)),))
    literal = literal_counts(z16, [row.words], (mask,))
    table = _tuple_counts(z16, [row.words], (mask,))
    assert table.layout[1] == 16 and table.terms == literal


def test_transform_at_a_degree_filling_the_digits():
    """At n = 255 a digit of one byte holds the degree and no more: the
    repetition code's Jacobi polynomial at the zero mask transforms to the
    sum over even k of C(n, k) x_(0 0)^(n - k) x_(1 0)^k, as at n = 256."""
    n = 255
    poly = jacobi(LinearCode(F2, n, ((1,) * n,)), (0,) * n)
    assert poly.layout[1] == 8
    assert macwilliams_single(poly, 2).terms == {
        (n - k, 0, k, 0): Fraction(math.comb(n, k)) for k in range(0, n + 1, 2)
    }


def literal_text(ring, arity, dense):
    """The text of dense terms, one exponent vector at a time."""
    q = ring.order

    def name(v):
        return " ".join(str(v // q**i % q) for i in reversed(range(arity)))

    parts = []
    for key, coeff in sorted(dense.items()):
        factors = [f"x_({name(v)})^{e}" for v, e in enumerate(key) if e]
        text = scalar_text(coeff)
        parts.append(f"{text} * {' '.join(factors)}" if factors else text)
    return " + ".join(parts) or "0"


def literal_json(ring, arity, dense):
    q = ring.order

    def name(v):
        return "(" + ",".join(str(v // q**i % q) for i in reversed(range(arity))) + ")"

    return [
        {"exps": {name(v): e for v, e in enumerate(key) if e}, "coeff": scalar_to_json(c)}
        for key, c in sorted(dense.items())
    ]


@st.composite
def polynomials_both_ways(draw):
    """Nonzero terms over F2, F3, F4 or Z4 at arity 1 or 2, with Fraction and
    Cyclotomic coefficients, and a layout at least as wide as their degree."""
    ring = RINGS[draw(st.sampled_from(["F2", "F3", "F4", "Z4"]))]
    arity = draw(st.integers(1, 2))
    nvars = ring.order**arity
    top = draw(st.sampled_from([3, 300]))
    exponents = st.tuples(*[st.integers(0, top // nvars + 1)] * nvars)
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    scalars = st.one_of(
        fractions,
        st.builds(lambda m, cs: Cyclotomic(m, cs), st.sampled_from([3, 4, 6]),
                  st.lists(fractions, min_size=1, max_size=2)),
    )
    dense = draw(st.dictionaries(exponents, scalars, max_size=12))
    dense = {k: c for k, c in dense.items() if simplify(c)}
    degree = max(map(sum, dense), default=0)
    width = draw(st.sampled_from([degree, 256, 65536]))
    return ring, arity, dense, monomial_layout(nvars, max(width, degree))


@given(polynomials_both_ways())
@settings(max_examples=80, deadline=None)
def test_packed_and_dense_built_polynomials_read_alike(case):
    ring, arity, dense, layout = case
    built = SparsePolynomial(ring, arity, dense)
    made = SparsePolynomial.from_packed(ring, arity, pack_all(dense, layout), layout)
    simplified = built.terms
    assert made.terms == simplified
    assert made.canonical_items() == built.canonical_items()
    assert made.canonical_items() == sorted(simplified.items())
    assert made.render_text() == built.render_text()
    assert made.render_text() == literal_text(ring, arity, simplified)
    assert made.to_json_obj() == built.to_json_obj()
    assert made.to_json_obj() == literal_json(ring, arity, simplified)
    assert made == built and built == made


def test_equality_across_digit_widths():
    f3 = RINGS["F3"]
    dense = {(2, 0, 1): Fraction(1, 2), (0, 3, 0): Fraction(-4), (1, 1, 1): Fraction(7)}
    one = SparsePolynomial(f3, 1, dense)
    assert one.layout[1] == 8
    for degree in (256, 65536, 2**32):
        layout = monomial_layout(3, degree)
        wide = SparsePolynomial.from_packed(f3, 1, pack_all(dense, layout), layout)
        assert wide.layout[1] > one.layout[1] and wide.packed != one.packed
        assert wide == one and one == wide
        assert wide.render_text() == one.render_text()
        assert wide != SparsePolynomial(f3, 1, {**dense, (0, 3, 0): Fraction(4)})
        assert wide != SparsePolynomial(f3, 1, {**dense, (0, 0, 3): Fraction(1)})
        assert SparsePolynomial.from_packed(f3, 1, [], layout) == SparsePolynomial(f3, 1)


@st.composite
def code_pairs(draw):
    """Two codes of one length n over a ring, and a mask, with at most 81
    words in the whole space, so that the pair tables of the duals stay
    quick."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    n = draw(st.integers(1, int(math.log(81.5, ring.order))))
    pair = [code_from(draw, ring, n, 2) for _ in range(2)]
    mask = draw(st.tuples(*[st.integers(0, ring.order - 1)] * n))
    return pair, mask


@given(code_pairs())
@settings(max_examples=40, deadline=None)
def test_transforms_equal_the_enumerators_of_the_duals(case):
    (code_c, code_d), w = case
    dual_c, dual_d = code_c.dual(), code_d.dual()
    single = macwilliams_single(jacobi(code_c, w), code_c.size)
    assert single == jacobi(dual_c, w)
    assert single.render_text() == jacobi(dual_c, w).render_text()
    joint = joint_jacobi(code_c, code_d, w)
    sizes = code_c.size, code_d.size
    for transformed, direct in (
        (macwilliams_first(joint, code_c.size), joint_jacobi(dual_c, code_d, w)),
        (macwilliams_second(joint, code_d.size), joint_jacobi(code_c, dual_d, w)),
        (macwilliams_both(joint, *sizes), joint_jacobi(dual_c, dual_d, w)),
    ):
        assert transformed == direct
        assert transformed.to_json_obj() == direct.to_json_obj()


# each command line and the fewest characters it prints in text
CLI_LINES = [
    ("macwilliams f4_small f4_small --side both --w-weight 2", 1000),
    ("joint-jacobi e8x2 d16plus --w-weight 3", 1000),
    ("avg-jacobi g24 --w-weight 4", 500),
    ("avg-joint-jacobi e8x2 e8x2 --w-weight 2", 1000),
    ("avg-joint-jacobi e8x2 e8x2 --w-weight 2 --value-at intersection", 10),
    ("delta g24 d24plus --w-weight 2", 10),
    ("repro-paper --conjecture", 1000),
]


def test_the_cli_builds_no_dense_exponent_tuple(monkeypatch):
    """No dense view is decoded and no term goes through the checking
    constructor while the CLI prints enumerators, transforms and averages:
    the tables are polynomials, and the averages read their packed keys."""
    calls = []
    decode = polynomials.dense_terms

    def spy(*args):
        calls.append("dense")
        return decode(*args)

    monkeypatch.setattr(polynomials, "dense_terms", spy)
    construct = SparsePolynomial.__init__

    def checked(self, ring, arity, terms=None):
        calls.extend(["checked"] * bool(terms))
        construct(self, ring, arity, terms)

    monkeypatch.setattr(SparsePolynomial, "__init__", checked)
    for line, shortest in CLI_LINES:
        for argv in (line.split(), [*line.split(), "--format", "json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0
            assert len(out.getvalue()) > shortest
    assert calls == []
    # a table decodes nothing; the spies see the dense view, also through
    # composition(), and the checking constructor
    f4_small = codes.load_code("f4_small")
    codes.jacobi_table(f4_small, (1, 1, 0, 0))
    assert calls == []
    assert jacobi(f4_small, (1, 1, 0, 0)).terms
    assert codes.composition(f4_small.ring, (1, 1, 0, 0)) == (2, 2, 0, 0)
    SparsePolynomial(f4_small.ring, 1, {(1, 0, 0, 0): 1})
    assert calls == ["dense", "dense", "checked"]
