"""Every composition table, joint enumerator and brute average against a
literal count, word tuple by word tuple, through the dense view `terms`;
the split route of the counting kernel against its direct route, as
polynomials compared on their packed keys, also on repeated lists whose
tuples of cosets share left tables, and when its keys are counted in
chunks of one to three; and the bit-sliced route of binary codes'
single-list tables and their words read from packed bits against both."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacweight.codes as codes_module
from conftest import get_code, literal_words, random_code, random_mask
from jacweight.averages import brute_avg_jacobi, brute_avg_joint_jacobi
from jacweight.codes import (
    SPLIT_FLOOR,
    LinearCode,
    _bit_counts,
    _column,
    _direct_counts,
    _glue_cosets,
    _patterns,
    _split_counts,
    _tuple_counts,
    comp_table,
    jacobi_table,
    joint_jacobi_table,
    permute_word,
    weight,
)
from jacweight.enumerators import cwe, cwe_genus, jacobi, joint_cwe, joint_jacobi
from jacweight.rings import field_ring, modular_ring

RINGS = {
    "F2": field_ring(2),
    "F3": field_ring(3),
    "F4": field_ring(2, 2),
    "F8": field_ring(2, 3),
    "F9": field_ring(3, 2),
    "Z4": modular_ring(4),
    "Z6": modular_ring(6),
}


def literal_counts(ring, word_lists, fixed=()):
    """Compositions of the column tuples, counted one word tuple at a time."""
    q = ring.order
    nvars = q ** (len(word_lists) + len(fixed))
    table = Counter()
    for words in itertools.product(*word_lists):
        counts = [0] * nvars
        for column in zip(*words, *fixed):
            idx = 0
            for s in column:
                idx = idx * q + s
            counts[idx] += 1
        table[tuple(counts)] += 1
    return dict(table)


def literal_average(ring, code_c, others, w):
    """S_n average of the literal counts with C permuted and the rest fixed."""
    total = Counter()
    for sigma in itertools.permutations(range(code_c.n)):
        permuted = [permute_word(u, sigma) for u in code_c.words]
        total.update(literal_counts(ring, [permuted, *others], (w,)))
    perms = math.factorial(code_c.n)
    return {key: Fraction(mult, perms) for key, mult in total.items()}


def as_fractions(table):
    return {key: Fraction(mult) for key, mult in table.items()}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_builders_match_literal_counts(name):
    ring = RINGS[name]
    rng = random.Random(f"tuple-counts-{name}")
    for n in (1, 2, 3, 4):
        code_c = random_code(ring, n, rows=rng.randint(1, 2), rng=rng)
        code_d = random_code(ring, n, rows=1, rng=rng)
        w = random_mask(ring, n, rng)
        assert comp_table(code_c).terms == literal_counts(ring, [code_c.words])
        assert list(code_c.weight_distribution().items()) == list(
            Counter(map(weight, code_c.words)).items()
        )
        assert jacobi_table(code_c, w).terms == literal_counts(ring, [code_c.words], (w,))
        pair = [code_c.words, code_d.words]
        joint = joint_jacobi_table(code_c, code_d, w)
        assert joint.terms == literal_counts(ring, pair, (w,))
        assert joint_cwe(code_c, code_d).terms == as_fractions(
            literal_counts(ring, pair)
        )
        for genus in (1, 2, 3):
            if code_d.size**genus > 2000:
                continue
            assert cwe_genus(code_d, genus).terms == as_fractions(
                literal_counts(ring, [code_d.words] * genus)
            )


@pytest.mark.parametrize("name", sorted(RINGS))
def test_brute_averages_match_literal_counts(name):
    ring = RINGS[name]
    rng = random.Random(f"tuple-averages-{name}")
    n = 3
    code_c = random_code(ring, n, rows=1, rng=rng)
    code_d = random_code(ring, n, rows=1, rng=rng)
    w = random_mask(ring, n, rng)
    assert brute_avg_jacobi(code_c, w).terms == literal_average(ring, code_c, [], w)
    assert brute_avg_joint_jacobi(code_c, code_d, w).terms == literal_average(
        ring, code_c, [code_d.words], w
    )


def test_out_of_range_mask_symbols_are_rejected():
    f2 = RINGS["F2"]
    tiny = LinearCode(f2, 2, ((1, 0),))
    with pytest.raises(ValueError, match="out of range"):
        jacobi(tiny, (0, 2))
    with pytest.raises(ValueError, match="out of range"):
        jacobi_table(tiny, (0, -1))
    with pytest.raises(ValueError, match="out of range"):
        joint_jacobi_table(tiny, tiny, (2, 0))
    e8 = get_code("e8")
    with pytest.raises(ValueError, match="out of range"):
        joint_jacobi(e8, e8, (2,) + (0,) * 7)
    with pytest.raises(ValueError, match="mask length"):
        jacobi_table(e8, (0,) * 7)


def test_comp_table_is_counted_once_per_code(monkeypatch):
    calls = []
    kernel = codes_module._tuple_counts

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(codes_module, "_tuple_counts", counting)
    code = LinearCode(RINGS["F3"], 3, ((1, 2, 0), (0, 1, 1)))
    first = comp_table(code)
    assert comp_table(code) is first
    assert len(calls) == 1
    # an equal but distinct code object counts afresh
    comp_table(LinearCode(RINGS["F3"], 3, code.generators))
    assert len(calls) == 2


# ---- the split route -------------------------------------------------------

# word tuples of a generated case, so that the literal count stays quick
TUPLE_LIMIT = 4096


@st.composite
def glued_cases(draw, rings=tuple(RINGS)):
    """Two to four lists of words of one length n <= 7 over one of rings,
    each the words of a code spanned by rows on the first n // 2 positions,
    rows on the rest and glue rows on all of them, with at most TUPLE_LIMIT
    word tuples; or, as in a genus-g table, one such code repeated, where
    tuples of cosets more often share a left table.  Then up to two
    fixed words, while a composition has at most 1024 column indices."""
    ring = RINGS[draw(st.sampled_from(sorted(rings)))]
    n = draw(st.integers(1, 7))
    h = n // 2
    symbols = st.integers(0, ring.order - 1)

    def rows_on(lo, hi):
        return st.tuples(*[symbols if lo <= i < hi else st.just(0) for i in range(n)])

    row = st.one_of(rows_on(0, h), rows_on(h, n), rows_on(0, n))
    lists = draw(st.integers(2, 4))
    repeated = draw(st.booleans())
    word_lists = []
    tuples = 1
    while len(word_lists) < lists:
        copies = lists if repeated else 1
        code = LinearCode(ring, n, ())
        for _ in range(draw(st.integers(0, 6))):
            grown = LinearCode(ring, n, code.generators + (draw(row),))
            if tuples * grown.size**copies > TUPLE_LIMIT:
                break
            code = grown
        word_lists.extend([code.words] * copies)
        tuples *= code.size**copies
    arity = len(word_lists)
    while arity < len(word_lists) + 2 and ring.order ** (arity + 1) <= 1024:
        arity += 1
    fixed = draw(st.lists(st.tuples(*[symbols] * n), max_size=arity - len(word_lists)))
    return ring, word_lists, fixed


@given(glued_cases())
@settings(max_examples=100, deadline=None)
def test_split_route_matches_the_direct_and_literal_counts(case):
    ring, word_lists, fixed = case
    n = len(word_lists[0][0])
    direct = _direct_counts(ring, word_lists, fixed)
    assert direct.terms == literal_counts(ring, word_lists, fixed)
    assert _tuple_counts(ring, word_lists, fixed) == direct
    cosets = [_glue_cosets(words, n // 2) for words in word_lists]
    for words, parts in zip(word_lists, cosets):
        glued = [a + b for lefts, rights in parts for a in lefts for b in rights]
        assert sorted(glued) == sorted(words)
    # the split route whether or not the rule would take it
    assert _split_counts(ring, cosets, fixed, n) == direct


@given(glued_cases(("F2", "F3", "F4", "Z4", "Z6")), st.sampled_from([1, 2, 3]))
@settings(max_examples=100, deadline=None)
def test_keys_counted_in_small_chunks_match_the_literal_counts(case, chunk):
    """With a Counter.update every one to three keys, each route equals the
    literal count, one list or all of them, and the direct route keeps the
    literal first-occurrence key order."""
    ring, word_lists, fixed = case
    n = len(word_lists[0][0])
    cosets = [_glue_cosets(words, n // 2) for words in word_lists]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codes_module, "COUNT_CHUNK", chunk)
        for lists in (word_lists[:1], word_lists):
            literal = literal_counts(ring, lists, fixed)
            direct = _direct_counts(ring, lists, fixed)
            assert list(direct.terms.items()) == list(literal.items())
            assert _tuple_counts(ring, lists, fixed) == direct
        assert _split_counts(ring, cosets, fixed, n) == direct


@pytest.fixture
def splits(monkeypatch):
    """The calls of the split route while the test runs."""
    calls = []
    split = codes_module._split_counts

    def counting(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(codes_module, "_split_counts", counting)
    return calls


def test_the_rule_takes_the_split_at_the_floor(splits):
    """A direct sum of two 4-word codes: 256 pair tuples stay direct below
    the floor, and its 4096 triples split."""
    f2 = RINGS["F2"]
    code = LinearCode(f2, 4, ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1)))
    assert [(len(a), len(b)) for a, b in _glue_cosets(code.words, 2)] == [(4, 4)]
    w = (1, 0, 0, 1)
    pair = [code.words] * 2
    assert len(code.words) ** 2 < SPLIT_FLOOR
    assert _tuple_counts(f2, pair, (w,)).terms == literal_counts(f2, pair, (w,))
    assert splits == []
    triple = [code.words] * 3
    assert len(code.words) ** 3 >= SPLIT_FLOOR
    assert _tuple_counts(f2, triple, (w,)).terms == literal_counts(f2, triple, (w,))
    assert len(splits) == 1


def unit_rows(n, *supports):
    return tuple(tuple(int(j in support) for j in range(n)) for support in supports)


@pytest.mark.parametrize(
    "rows, sizes",
    [
        # words (a, a): no word is zero on a half, so every coset is one word
        (unit_rows(10, *[(i, i + 5) for i in range(5)]), [(1, 1)] * 32),
        # 2-word C_L and C_R and three glue rows: 8 cosets of 2 x 2 words,
        # 8 * (16^2 + 16^2) half-table tuples against 32^2 tuples
        (unit_rows(10, (0, 1), (5, 6), (2, 7), (3, 8), (4, 9)), [(2, 2)] * 8),
    ],
)
def test_the_rule_refuses_codes_with_too_little_glue_structure(splits, rows, sizes):
    f2 = RINGS["F2"]
    code = LinearCode(f2, 10, rows)
    cosets = _glue_cosets(code.words, 5)
    assert [(len(a), len(b)) for a, b in cosets] == sizes
    pair = [code.words] * 2
    assert len(code.words) ** 2 >= SPLIT_FLOOR
    w = (1,) * 3 + (0,) * 7
    assert _tuple_counts(f2, pair, (w,)).terms == literal_counts(f2, pair, (w,))
    assert splits == []


def test_single_lists_and_repeated_words_stay_direct(splits):
    f2 = RINGS["F2"]
    # F2^6, the product of its halves: one coset
    code = LinearCode(f2, 6, unit_rows(6, *[(i,) for i in range(6)]))
    w = (0, 1, 1, 0, 0, 1)
    assert jacobi_table(code, w).terms == literal_counts(f2, [code.words], (w,))
    cwe_genus(code, 1)
    # a list that repeats its words is no set of product cosets
    doubled = list(code.words) * 2
    assert _glue_cosets(doubled, 3) is None
    lists = [doubled, code.words]
    assert _tuple_counts(f2, lists, (w,)).terms == literal_counts(f2, lists, (w,))
    assert splits == []


def test_the_fixtures_glue_cosets():
    """|C_L| = |C_R| = 16 for e8x2 (1 coset), 8 for d16plus (4 cosets) and
    32 for d24plus (4 cosets); every word of g24 is a coset."""
    for name, sizes in (
        ("e8x2", [(16, 16)]),
        ("d16plus", [(8, 8)] * 4),
        ("d24plus", [(32, 32)] * 4),
        ("g24", [(1, 1)] * 4096),
    ):
        code = get_code(name)
        cosets = _glue_cosets(code.words, code.n // 2)
        assert [(len(a), len(b)) for a, b in cosets] == sizes


def test_pair_tables_of_the_glued_fixtures_split(splits):
    """The joint Jacobi tables of e8x2 x d16plus at two masks of each weight
    1 to 8, and both orders of their joint cwe, equal the direct walk."""
    e8x2, d16plus = get_code("e8x2"), get_code("d16plus")
    rng = random.Random("e8x2-d16plus")
    masks = []
    for k in range(1, 9):
        masks.append((1,) * k + (0,) * (16 - k))
        masks.append(tuple(rng.sample([1] * k + [0] * (16 - k), 16)))
    pair = [e8x2.words, d16plus.words]
    for w in masks:
        assert joint_jacobi_table(e8x2, d16plus, w) == _direct_counts(
            e8x2.ring, pair, (w,)
        )
    for first, second in ((e8x2, d16plus), (d16plus, e8x2)):
        direct = _direct_counts(first.ring, [first.words, second.words])
        assert joint_cwe(first, second) == direct
    assert len(splits) == len(masks) + 2


def test_d24plus_pair_table_splits(splits):
    d24plus = get_code("d24plus")
    table = joint_jacobi_table(d24plus, d24plus, (1,) + (0,) * 23)
    assert len(splits) == 1
    assert sum(table.terms.values()) == 4096**2
    assert len(table.terms) == 364


def test_genus_4_of_e8_convolves_once_per_distinct_left_table(splits, monkeypatch):
    """e8 has 4 cosets of 2 x 2 words, so its genus-4 table splits into 256
    tuples of cosets; their left tables take 51 distinct values, and each is
    convolved once with the sum of its tuples' right tables."""
    groups = []
    convolve = codes_module._convolve

    def counting(*args):
        groups.append(args)
        convolve(*args)

    monkeypatch.setattr(codes_module, "_convolve", counting)
    e8 = get_code("e8")
    assert [(len(a), len(b)) for a, b in _glue_cosets(e8.words, 4)] == [(2, 2)] * 4
    genus = cwe_genus(e8, 4)
    assert len(splits) == 1
    assert len(groups) == 51
    assert genus == _direct_counts(e8.ring, [e8.words] * 4)


# ---- the bit-sliced route of binary codes ---------------------------------


def test_the_walk_reads_only_the_kept_generators():
    """f2_dep's rows are B + C, A, B, 0, C, A, D: the first is in the span
    of the rows after it, the zero row and the second A add nothing, so
    words are the walk over B, C, A, D, with D bit 0 of a word's index."""
    code = codes_module.load_code("f2_dep")
    kept = code._kept
    assert kept == tuple(code.generators[i] for i in (2, 4, 5, 6))
    assert list(code.words) == [
        tuple(sum(g[p] for b, g in enumerate(reversed(kept)) if j >> b & 1) % 2
              for p in range(code.n))
        for j in range(16)
    ]
    for fixed in ((), ((1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0),)):
        direct = _direct_counts(code.ring, [code.words], fixed).terms
        bit_counts = _bit_counts(code.ring, kept, code.n, fixed)
        assert list(bit_counts.terms.items()) == list(direct.items())


@st.composite
def binary_codes(draw):
    """A code over F2 or Z2 of length 1 to 70, so that its packed words may
    pass 64 bits, with zero, repeated and dependent generator rows; a mask of
    any weight from 0 to n; and up to one more fixed word."""
    ring = draw(st.sampled_from([RINGS["F2"], modular_ring(2)]))
    n = draw(st.integers(1, 70))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(bits, max_size=5))
    if len(rows) > 1 and draw(st.booleans()):
        rows.append(tuple(a ^ b for a, b in zip(rows[0], rows[1])))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    if draw(st.booleans()):
        rows.append((0,) * n)
    code = LinearCode(ring, n, tuple(draw(st.permutations(rows))))
    ones = set(draw(st.permutations(range(n)))[: draw(st.integers(0, n))])
    w = tuple(int(i in ones) for i in range(n))
    more = draw(st.lists(bits, max_size=1))
    return code, w, more


@given(binary_codes())
@settings(max_examples=60, deadline=None)
def test_binary_words_are_the_literal_walk_in_its_order(case):
    code = case[0]
    assert code.words == literal_words(code)


@given(binary_codes())
@settings(max_examples=150, deadline=None)
def test_popcount_tables_match_the_direct_and_literal_counts(case):
    code, w, more = case
    ring, n = code.ring, code.n
    assert [sum(s << i for i, s in enumerate(u)) for u in code.words] == list(
        code._bits
    )
    for table, fixed in ((comp_table(code), ()), (jacobi_table(code, w), (w,))):
        direct = _direct_counts(ring, [code.words], fixed)
        literal = literal_counts(ring, [code.words], fixed)
        assert table == direct
        assert table.terms == direct.terms == literal
        assert list(table.terms) == list(direct.terms) == list(literal)
    fixed = (w, *more)
    table = _bit_counts(ring, code._kept, n, fixed).terms
    assert list(table.items()) == list(_direct_counts(ring, [code.words], fixed).terms.items())
    # bit j of a position's column is word j's symbol there
    kept = code._kept
    assert len(code.words) == 1 << len(kept)
    patterns = _patterns(len(kept))
    for p in range(n):
        column = _column(patterns, [g[p] for g in kept])
        assert column >> len(code.words) == 0
        assert [column >> j & 1 for j in range(len(code.words))] == [u[p] for u in code.words]


def test_binary_single_tables_take_the_popcount_route(monkeypatch):
    """cwe, jacobi and weight_distribution of g24 and d24plus equal their
    kernel tables without calling the kernel or building a word."""
    calls = []
    monkeypatch.setattr(codes_module, "_tuple_counts", lambda *a: calls.append(a))
    w = (1,) * 5 + (0,) * 19
    tables = {}
    for name in ("g24", "d24plus"):
        code = codes_module.load_code(name)
        tables[name] = cwe(code).terms, jacobi(code, w).terms
        code.weight_distribution()
        assert "words" not in code.__dict__
        assert "_bits" not in code.__dict__
    assert calls == []
    monkeypatch.undo()
    for name, (cwe_terms, jacobi_terms) in tables.items():
        code = get_code(name)
        assert cwe_terms == _direct_counts(code.ring, [code.words]).terms
        direct = _direct_counts(code.ring, [code.words], (w,))
        assert jacobi_terms == direct.terms
