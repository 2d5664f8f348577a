"""The packed monomial of `polynomials.monomial_layout` at every digit width,
and the tables and transforms that use it at lengths of 256 and more, where
a digit takes two bytes, and over rings with thousands of column indices:
against the literal counter, the popcount route and a closed form."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from jacweight.averages import avg_joint_jacobi_value, delta_closed
from jacweight.codes import (
    LinearCode,
    _direct_counts,
    _glue_cosets,
    _split_counts,
    _renumber,
    _tuple_counts,
    comp_table,
    jacobi_table,
    load_code,
)
from jacweight.enumerators import jacobi, macwilliams_single
from jacweight.polynomials import monomial_layout
from jacweight.rings import field_ring, modular_ring
from test_tuple_counts import literal_counts

F2 = field_ring(2)


@pytest.mark.parametrize(
    "degree, width",
    [(0, 1), (255, 1), (256, 2), (65535, 2), (65536, 4), (2**32 - 1, 4), (2**32, 8)],
)
def test_the_layout_packs_little_endian_digits_of_the_fewest_bytes(degree, width):
    """The walk's keys hold digit r, of the layout's width, at 1 << bits * r
    for the r-th column index in use (little-endian); renumbered, they are
    keys of the layout, variable 0 the most significant digit, of a
    polynomial over Z6 with 6 variables."""
    layout, bits = monomial_layout(3, degree)
    assert (layout.size, bits) == (3 * width, 8 * width)
    one = min(degree, 1)
    corners = [(degree, 0, 0), (0, degree, 0), (0, 0, degree), (degree - one, one, 0)]
    vectors = list(dict.fromkeys(corners))
    keys = [sum(e << bits * (2 - v) for v, e in enumerate(vec)) for vec in vectors]
    assert [int.from_bytes(layout.pack(*vec), "big") for vec in vectors] == keys
    assert [layout.unpack(k.to_bytes(layout.size, "big")) for k in keys] == vectors
    # the kernel numbers column indices 4, 0, 2 of 6 as digits 0, 1, 2
    walked = [sum(e << bits * r for r, e in enumerate(vec)) for vec in vectors]
    power = {4: 1, 0: 1 << bits, 2: 1 << 2 * bits}
    sums = dict(zip(walked, range(4)))
    table = _renumber(modular_ring(6), 1, sums, power, degree)
    assert table.layout[1] == bits
    dense = {(b, 0, c, 0, a, 0): i for i, (a, b, c) in enumerate(vectors)}
    assert list(table.terms.items()) == list(dense.items())
    assert list(table.packed) == [
        int.from_bytes(table.layout[0].pack(*vec), "big") for vec in dense
    ]


def repetition(n):
    return LinearCode(F2, n, ((1,) * n,))


@pytest.mark.parametrize("n", [256, 300])
def test_popcount_tables_with_two_byte_digits(n):
    code = repetition(n)
    rng = random.Random(f"repetition-{n}")
    masks = [(0,) * n, (1,) * 20 + (0,) * (n - 20), tuple(rng.randrange(2) for _ in range(n))]
    assert comp_table(code) == _direct_counts(F2, [code.words])
    for w in masks:
        table = jacobi_table(code, w).terms
        assert list(table.items()) == list(_direct_counts(F2, [code.words], (w,)).terms.items())
        assert table == literal_counts(F2, [code.words], (w,))


def halves_and_glue(ring, n, rng):
    """Words spanned by one row on each half of the positions and one glue
    row on all of them."""
    h = n // 2
    rows = [
        tuple(rng.randrange(ring.order) if i < h else 0 for i in range(n)),
        tuple(rng.randrange(ring.order) if i >= h else 0 for i in range(n)),
        tuple(rng.randrange(ring.order) for _ in range(n)),
    ]
    return LinearCode(ring, n, tuple(rows)).words


@pytest.mark.parametrize(
    "ring, n, mask_weight", [(F2, 256, None), (modular_ring(4), 300, 10)]
)
def test_split_route_with_two_byte_digits(ring, n, mask_weight):
    rng = random.Random(f"split-{ring.label()}-{n}")
    word_lists = [halves_and_glue(ring, n, rng), [(0,) * n, (1,) * n]]
    fixed = () if mask_weight is None else ((1,) * mask_weight + (0,) * (n - mask_weight),)
    literal = literal_counts(ring, word_lists, fixed)
    cosets = [_glue_cosets(words, n // 2) for words in word_lists]
    assert _split_counts(ring, cosets, fixed, n).terms == literal
    assert _direct_counts(ring, word_lists, fixed).terms == literal


def test_the_f8_table_of_512_column_indices():
    """Three lists of 8, 512 and 1 words over F8 at n = 7; and the same words
    repeated to n = 259, whose table has every count 37 times as large."""
    f8 = field_ring(2, 3)
    rng = random.Random("f8-512-columns")

    def rows(k):
        return tuple(tuple(rng.randrange(8) for _ in range(7)) for _ in range(k))

    word_lists = [LinearCode(f8, 7, rows(k)).words for k in (1, 3)] + [[(0,) * 7]]
    assert list(map(len, word_lists)) == [8, 512, 1]
    table = _direct_counts(f8, word_lists)
    assert table.terms == literal_counts(f8, word_lists)
    assert _tuple_counts(f8, word_lists) == table
    stretched = [[u * 37 for u in words] for words in word_lists]
    assert _direct_counts(f8, stretched).terms == {
        tuple(37 * c for c in key): mult for key, mult in table.terms.items()
    }


def test_transform_with_two_byte_digits():
    """The repetition code's dual is the even-weight code: at n = 256 its
    Jacobi polynomial at the zero mask transforms to the sum over even k of
    C(n, k) x_(0 0)^(n - k) x_(1 0)^k."""
    n = 256
    dual = macwilliams_single(jacobi(repetition(n), (0,) * n), 2)
    assert dual.terms == {
        (n - k, 0, k, 0): Fraction(math.comb(n, k)) for k in range(0, n + 1, 2)
    }


def test_a_masked_table_over_z128_spends_memory_on_columns_in_use():
    """2^14 column indices, of which a word and the mask use at most 6: the
    keys of the walk carry a digit for each column index in use only, so
    memory goes to the table's 128 packed keys of 2^14 digits, not to a
    place value per column index (2^14 ints of up to 16 KB, 134 MB)."""
    z128 = modular_ring(128)
    code = LinearCode(z128, 6, ((1, 2, 64, 3, 0, 127),))
    mask = (1, 1, 0, 0, 1, 0)
    tracemalloc.start()
    try:
        table = jacobi_table(code, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert table.terms == literal_counts(z128, [code.words], (mask,))


def test_the_z128_table_is_its_packed_keys_alone():
    """The masked Jacobi table of z128_row peaks under 5 MB (18.2 MB when
    each entry was a dense tuple of 2^14 counts): its 128 keys of 16 KB,
    the rows they are read from, and no dense vector.  The averages read
    those keys: delta in closed form gives its pinned 43/15, and the
    streamed value at the point that is 1 just where the two code symbols
    agree, the mask ignored, gives 79/60, delta at the zero mask."""
    code = load_code("z128_row")
    mask = (1, 1, 0, 0, 1, 0)
    tracemalloc.start()
    try:
        table = jacobi_table(code, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20
    assert len(table.packed) == 128
    assert delta_closed(code, code, mask) == Fraction(43, 15)
    q = code.ring.order
    agree = [int(b == a2) for b in range(q) for a2 in range(q) for _ in range(q)]
    assert avg_joint_jacobi_value(code, code, mask, agree) == Fraction(79, 60)
    assert delta_closed(code, code, (0,) * 6) == Fraction(79, 60)
