"""Linear codes over a finite alphabet.

A code is stored by its generator list and enumerated on demand, one
generator at a time, in the first-occurrence order of a walk over
coefficient vectors in lexicographic order.  One echelon form, read
from the ring's tables alone, gives every dual and every code size over
fields and Z_k alike, with no word enumerated.  One kernel counts every
composition: the column symbol tuples of each word tuple in a product of
word lists, with fixed words such as a mask; each distribution table is
one call, and is the enumerator polynomial of its counts.  It walks every
word tuple, or, for two or more lists built as direct sums plus glue,
cuts the positions in half and sums products of half tables over the glue
cosets, each composition one packed int, renumbered at the end into a key
of `polynomials.monomial_layout` (see `_renumber`).  One walk (`_coset_tables`) serves
both routes: it makes the table of every tuple of cosets, one coset from
each list, a whole list being one coset on the direct route.  It counts
its keys in chunks, one Counter.update per COUNT_CHUNK keys, so that the
interpreter's cost is paid per chunk, not per call.  The split route
walks each half once, groups the tuples of cosets by their left table,
and convolves each distinct left table once with the sum of its group's
right tables, into a plain dict.
The single-code tables, `comp_table` and `jacobi_table`, take another
route when the ring has order 2, and build no word: one |C|-bit int per
distinct column of the kept generators holds bit j for word j, and a
bit-sliced counter sums those columns, so that every word's popcount in
each class of positions with equal fixed-word symbols is counted at once
(see `_bit_counts`).  Over such a ring `words` too is read from packed
ints, the XOR walk over the kept generators (`_bits`).
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import getitem, xor
from pathlib import Path

from .budget import BudgetExceeded, check_budget, enumeration_budget
from .polynomials import SparsePolynomial, monomial_layout
from .rings import RingSpec, ring_from_json, ring_to_json

__all__ = [
    "BudgetExceeded",
    "CodeFormatError",
    "LinearCode",
    "check_budget",
    "check_mask",
    "check_pair",
    "enumeration_budget",
    "load_code",
    "code_from_json",
    "code_to_json",
    "resolve_code_path",
    "permute_word",
    "weight",
    "mask_word",
    "composition",
    "comp_table",
    "jacobi_table",
    "joint_jacobi_table",
]

# the binary digits '0' and '1' as the bytes 0 and 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class CodeFormatError(ValueError):
    """A code file or code object violates the input schema."""


def check_mask(ring: RingSpec, n: int, w) -> None:
    """Raise ValueError unless w has length n and symbols 0 <= s < q."""
    if len(w) != n:
        raise ValueError("mask length mismatch")
    for s in w:
        if not 0 <= s < ring.order:
            raise ValueError(f"symbol {s} out of range for {ring.label()}")


def check_pair(code_c: LinearCode, code_d: LinearCode) -> None:
    """Raise ValueError unless the two codes share their ring and length."""
    if code_c.ring != code_d.ring or code_c.n != code_d.n:
        raise ValueError("codes must share ring and length")


def weight(u) -> int:
    """Hamming weight: number of nonzero symbols."""
    return sum(1 for x in u if x != 0)


def permute_word(u, sigma):
    """u^sigma with entries u[sigma[i]]; sigma is 0-based images."""
    if len(sigma) != len(u):
        raise ValueError("permutation length mismatch")
    return tuple(u[sigma[i]] for i in range(len(u)))


def mask_word(u, w):
    """Masked word: keep u_i where w_i = 0, zero elsewhere."""
    if len(u) != len(w):
        raise ValueError("length mismatch in masking")
    return tuple(x if m == 0 else 0 for x, m in zip(u, w))


def composition(ring: RingSpec, *words) -> tuple[int, ...]:
    """Counts of the column tuples (u_i, v_i, ...) of one or more words.

    The tuple (a, b, ...) is counted at its omega-order index
    (a * q + b) * q + ...; one word gives the count of each symbol.
    """
    return next(iter(_tuple_counts(ring, [words[:1]], words[1:]).terms))


@dataclass(frozen=True)
class LinearCode:
    """Code spanned by generator rows over a RingSpec."""

    ring: RingSpec
    n: int
    generators: tuple[tuple[int, ...], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        for row in self.generators:
            if len(row) != self.n:
                raise CodeFormatError("generator rows must all have length n")
            for s in row:
                if not 0 <= s < self.ring.order:
                    raise CodeFormatError(
                        f"symbol {s} out of range for {self.ring.label()}"
                    )

    @cached_property
    def words(self) -> tuple[tuple[int, ...], ...]:
        """All codewords, first occurrence in coefficient-lex order.

        Over a ring of order 2 they are the packed words of `_bits` read
        back, bit i as the symbol at position i, one word from one string
        of binary digits.  Over any other ring the words of generators
        1..j are extended by the q multiples of generator j + 1, repeats
        dropped at each stage.  A word kept at a stage comes from the
        lex-least coefficients that give it, so every stage keeps the
        first-occurrence order of the full walk.  Both charge the |C| * n
        symbols of the result, known exactly before a word is built: from
        the echelon form, or as the kept generators' n * 2^k.
        """
        if self.ring.order == 2:
            digits = f"0{self.n}b"
            return tuple(
                tuple(format(x, digits)[::-1].encode().translate(_DIGIT_BYTES))
                for x in self._bits
            )
        q = self.ring.order
        check_budget(self.size * self.n, "codeword symbols")
        add = self.ring.add_table
        mul = self.ring.mul_table
        words = [(0,) * self.n]
        for gen in self.generators:
            # adding c * gen maps symbol x at position i to add[c * gen[i]][x]
            shifts = [[add[mul[c][y]] for y in gen] for c in range(1, q)]
            grown = []
            for u in words:
                grown.append(u)
                grown.extend(tuple(map(getitem, rows, u)) for rows in shifts)
            words = list(dict.fromkeys(grown))
        return tuple(words)

    @cached_property
    def _bits(self) -> tuple[int, ...]:
        """The words of a code over a ring of order 2 as ints, bit i for
        position i, in the order of `words`: the walk over the kept
        generators (`_kept`, which charges the |C| * n codeword symbols),
        each added by an XOR with its bit mask.  `words` and the design
        scans read them; the tables are counted from `_kept` alone."""
        words = [0]
        for gen in self._kept:
            mask = _pack(gen)
            words = [x for u in words for x in (u, u ^ mask)]
        return tuple(words)

    @cached_property
    def _kept(self) -> tuple[tuple[int, ...], ...]:
        """Over a ring of order 2, the generators not in the span of those
        after them, in order, found by one backward scan over an XOR basis.
        A word's lex-least coefficients are 0 on every other generator, so
        `words` is the walk over these alone, with no repeat: word j is the
        sum of those whose bits are set in j, the last one bit 0.  The
        |C| * n codeword symbols they stand for are charged, once per code,
        before a table is counted from them."""
        basis: dict[int, int] = {}
        kept = []
        for gen in reversed(self.generators):
            x = _pack(gen)
            while x and (top := x.bit_length()) in basis:
                x ^= basis[top]
            if x:
                basis[top] = x
                kept.append(gen)
        check_budget(self.n << len(kept), "codeword symbols")
        return tuple(reversed(kept))

    @cached_property
    def _comp_table(self) -> SparsePolynomial:
        return _code_counts(self, ())

    @cached_property
    def word_set(self) -> frozenset:
        return frozenset(self.words)

    @cached_property
    def size(self) -> int:
        """|C|: the product of |R p| over the pivot entries p of the
        generators' echelon form, found without enumerating a word."""
        pivots, _ = _echelon(self.ring, self.generators, self.n)
        mul = self.ring.mul_table
        return math.prod(len(set(mul[next(filter(None, row))])) for row in pivots)

    def __contains__(self, u) -> bool:
        return tuple(u) in self.word_set

    def weight_distribution(self) -> dict[int, int]:
        """{weight: codewords}, in the first-occurrence order of the words:
        a composition of weight n less its count of symbol 0, the top digit
        of its key, first occurs at the first word of that weight."""
        table = comp_table(self)
        top = table.layout[1] * (self.ring.order - 1)
        dist: dict[int, int] = {}
        for key, mult in table.packed.items():
            w = self.n - (key >> top)
            dist[w] = dist.get(w, 0) + mult
        return dist

    def permute(self, sigma) -> "LinearCode":
        gens = tuple(permute_word(g, sigma) for g in self.generators)
        return LinearCode(self.ring, self.n, gens, name=self.name)

    def dual(self) -> "LinearCode":
        """C-perp: v is in it just when (G v, v), a row combination of
        [G^T | I_n], is zero in its first k entries, and the echelon rows
        zero there span every such vector."""
        k = len(self.generators)
        identity = [tuple(int(i == j) for i in range(self.n)) for j in range(self.n)]
        rows = [
            tuple(g[j] for g in self.generators) + identity[j] for j in range(self.n)
        ]
        _, rest = _echelon(self.ring, rows, k)
        gens = tuple(tuple(row[k:]) for row in rest if any(row))
        return LinearCode(
            self.ring, self.n, gens, name=f"{self.name}_dual" if self.name else ""
        )


def _echelon(ring: RingSpec, rows, ncols: int):
    """Echelon form (pivot rows, other rows) of rows over columns < ncols.

    Every step is an invertible row operation, so the span is kept.  Each
    pivot row, once final, also adds its least nonzero annihilator multiple
    to the rows still to reduce, so that (Howell's property) the other rows,
    zero in every column < ncols, span every vector of the span that is
    zero there.  Over a field no annihilator exists and this is plain row
    reduction.
    """
    add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
    elements = range(ring.order)
    units = [u for u in elements if 1 in mul[u]]
    pivots = []
    rest = [list(row) for row in rows]
    for col in range(ncols):
        if not rest:
            break
        live = [row for row in rest if row[col]]
        if not live:
            continue
        rest = [row for row in rest if not row[col]]
        pivot = live[0]
        for row in live[1:]:
            a, b = pivot[col], row[col]
            # fold: pivot + x row, x making the new entry generate a and b
            x = next(x for x in elements if {a, b} <= set(mul[add[a][mul[x][b]]]))
            pivot = [add[p][mul[x][y]] for p, y in zip(pivot, row)]
            # clear: row - y pivot, with y times the new entry equal to b
            y = next(y for y in elements if mul[y][pivot[col]] == b)
            rest.append([add[r][neg[mul[y][p]]] for r, p in zip(row, pivot)])
        u = min(units, key=lambda u: mul[u][pivot[col]])
        pivot = [mul[u][p] for p in pivot]
        pivots.append(pivot)
        for s in elements[1:]:
            if mul[s][pivot[col]] == 0:
                rest.append([mul[s][p] for p in pivot])
                break
    return pivots, rest


# ---- distribution tables -------------------------------------------------

# Tables over fewer word tuples than this stay on the direct route.
SPLIT_FLOOR = 1024


def _tuple_counts(ring: RingSpec, word_lists, fixed=()) -> SparsePolynomial:
    """The enumerator polynomial of arity k + m, keys in
    monomial_layout(q^(k + m), n), whose coefficient of a composition is the
    number of its word tuples in word_lists[0] x ... x word_lists[k-1].

    Position i of a word tuple (u_1, ..., u_k) counts at the column index
    ((u_1[i] * q + u_2[i]) * q + ...) * q + f_m[i], f_1 ... f_m being the
    fixed words.  The |L_1| ... |L_k| word tuples of two or more lists, and
    then the q^(k + m) columns of a table entry, are charged to the budget
    before either of two routes runs:

    * the direct route (`_direct_counts`) walks every word tuple;
    * the split route (`_split_counts`) cuts each list into the product
      sets of `_glue_cosets` over the halves [0, n // 2) and [n // 2, n),
      and sums, over the tuples of cosets, the tables of their left halves
      convolved with those of their right halves: one walk per half, and
      one convolution per distinct left table.

    A table splits when it has two or more lists and at least SPLIT_FLOOR
    word tuples, and eight times the word tuples of all its half tables
    is at most its own word tuples.  Those half-table tuples are, per half,
    the product over the lists of the summed coset halves, so the rule
    costs one pass over the words.  Single lists, small tables and codes
    far from a direct sum, such as g24 (4096 one-word cosets) paired with
    itself, stay direct.
    """
    n = len(word_lists[0][0])
    for f in fixed:
        check_mask(ring, n, f)
    tuples = math.prod(map(len, word_lists))
    if len(word_lists) > 1:
        check_budget(tuples, "tuples of codewords")
    # each entry of the table unpacks into this many columns
    check_budget(ring.order, "table columns", power=len(word_lists) + len(fixed))
    if len(word_lists) > 1 and tuples >= SPLIT_FLOOR:
        cosets = [_glue_cosets(words, n // 2) for words in word_lists]
        if None not in cosets and 8 * (
            math.prod(sum(len(lefts) for lefts, _ in cs) for cs in cosets)
            + math.prod(sum(len(rights) for _, rights in cs) for cs in cosets)
        ) <= tuples:
            return _split_counts(ring, cosets, fixed, n)
    return _direct_counts(ring, word_lists, fixed)


def _glue_cosets(words, h: int):
    """The cosets of C_L + C_R in a code's words, as (lefts, rights) pairs.

    C_L holds the words zero on the positions from h on, and C_R those
    zero before h.  Each coset is the product set of its left halves and
    its right halves, and distinct cosets share neither: grouping the
    words by right half, the right halves with equal sets of left halves
    make one coset.  Any list of distinct words is cut this way into
    disjoint product sets; a list that repeats a word gives None.
    """
    lefts_of = defaultdict(list)
    for u in words:
        lefts_of[u[h:]].append(u[:h])
    groups: dict[frozenset, tuple[list, list]] = {}
    for right, lefts in lefts_of.items():
        key = frozenset(lefts)
        if len(key) < len(lefts):
            return None
        groups.setdefault(key, (lefts, []))[1].append(right)
    return list(groups.values())


def _direct_counts(ring: RingSpec, word_lists, fixed=()):
    """The table of `_tuple_counts` by the walk over every word tuple, with
    no check and no charge; the r-th column index met gets digit r."""
    n = len(word_lists[0][0])
    bits = monomial_layout(0, n)[1]
    power: defaultdict = defaultdict(lambda: 1 << bits * len(power))
    # each list as its one coset
    (sums,) = _coset_tables(ring, [[words] for words in word_lists], fixed, power)
    return _renumber(ring, len(word_lists) + len(fixed), sums, power, n)


def _split_counts(ring: RingSpec, cosets, fixed, n: int):
    """The table of `_tuple_counts` from the cosets of each list: for each
    tuple of cosets, every composition of its left halves against the
    fixed words' left halves adds to every one of its right halves, and
    the multiplicities multiply.

    One walk per half makes the half tables of every tuple of cosets.  The
    left tables become group ids as they stream, one group per distinct
    left table (keyed by the frozenset of its items), and the right tables
    of a group are added into one table as they are made; each distinct
    left table is then convolved once with its group's sum, into a plain
    dict."""
    h = n // 2
    bits = monomial_layout(0, n)[1]
    power: defaultdict = defaultdict(lambda: 1 << bits * len(power))
    groups: dict[frozenset, int] = {}
    ids = [
        groups.setdefault(frozenset(left.items()), len(groups))
        for left in _coset_tables(
            ring, [[a for a, _ in cs] for cs in cosets], [f[:h] for f in fixed], power
        )
    ]
    rights = [Counter() for _ in groups]
    right_tables = _coset_tables(
        ring, [[b for _, b in cs] for cs in cosets], [f[h:] for f in fixed], power
    )
    for g, right in zip(ids, right_tables):
        rights[g].update(right)
    sums: dict[int, int] = {}
    for left, right in zip(groups, rights):
        _convolve(sums, left, right)
    return _renumber(ring, len(cosets) + len(fixed), sums, power, n)


def _convolve(sums: dict, left, right: Counter) -> None:
    """Add to sums, for each pair (x, mx) of left and each item (y, my) of
    right, mx * my at the key x + y, a new key inserted where it is met."""
    get = sums.get
    right_items = right.items()
    for x, mx in left:
        for y, my in right_items:
            k = x + y
            sums[k] = get(k, 0) + mx * my


# keys a list collects before one Counter.update counts them: few enough to
# bound the memory of a long walk, enough that the call's cost is shared
COUNT_CHUNK = 4096


def _coset_tables(ring: RingSpec, coset_lists, fixed, power):
    """{packed composition: multiplicity} over the word tuples of each tuple
    of cosets, one coset (a list of words) from each list, in the order of
    itertools.product over the lists.

    The place-value tuples of every word of the first k - 1 lists are made
    once.  Each tuple of their words is summed with the fixed words into a
    prefix once, so that for each prefix a place-value table per position
    makes a word of any coset of the last list one sum.  Each coset of the
    last list appends its sums to its own list, counted by one
    Counter.update once it holds COUNT_CHUNK keys and once more when the
    tuple's table is done, so that the keys keep their first-occurrence
    order and at most a chunk of them per coset is held.
    """
    q = ring.order
    base = (0,) * len(coset_lists[0][0][0])
    for f in fixed:
        base = tuple(b * q + s for b, s in zip(base, f))
    place = q ** (len(coset_lists) + len(fixed))
    scaled = []
    for cosets in coset_lists[:-1]:
        place //= q
        lookup = [s * place for s in range(q)].__getitem__
        scaled.append([[tuple(map(lookup, u)) for u in words] for words in cosets])
    steps = [s * place // q for s in range(q)]
    column = list.__getitem__
    for heads in itertools.product(*scaled):
        # each coset of the last list, its keys not yet counted, its table
        slots = [(words, [], Counter()) for words in coset_lists[-1]]
        for rows in itertools.product(*heads):
            prefix = map(sum, zip(base, *rows))
            cols = [[power[x + step] for step in steps] for x in prefix]
            for words, chunk, table in slots:
                chunk.extend(sum(map(column, cols, u)) for u in words)
                if len(chunk) >= COUNT_CHUNK:
                    table.update(chunk)
                    chunk.clear()
        for _, chunk, table in slots:
            table.update(chunk)
            yield table


def _renumber(ring: RingSpec, arity: int, sums, power, n: int) -> SparsePolynomial:
    """The table of the walk's keys (digit r for the r-th column index in
    power), each as a key of monomial_layout(q^arity, n).  One strided slice
    moves a digit byte of every key from the walk's little-endian rows into
    big-endian rows of zero bytes, read back as ints."""
    nvars = ring.order**arity
    layout = monomial_layout(nvars, n)
    walked, bits = monomial_layout(len(power), n)
    width, size, out = bits // 8, walked.size, layout[0].size
    walked_rows = b"".join([k.to_bytes(size, "little") for k in sums])
    rows = bytearray(len(sums) * out)
    for r, v in enumerate(power):
        for j in range(width):
            rows[width * (v + 1) - 1 - j::out] = walked_rows[width * r + j::size]
    keys = (int.from_bytes(rows[i:i + out], "big") for i in range(0, len(rows), out))
    return SparsePolynomial.from_packed(ring, arity, zip(keys, sums.values()), layout)


def _code_counts(code: LinearCode, fixed):
    """The table of `_tuple_counts` over one code's words: bit-sliced from
    the kept generators (`_bit_counts`) when the ring has order 2, by the
    kernel otherwise.  Both charge the |C| * n codeword symbols first."""
    if code.ring.order != 2:
        return _tuple_counts(code.ring, [code.words], fixed)
    # charged before the masks are checked, in the kernel route's order
    kept = code._kept
    for f in fixed:
        check_mask(code.ring, code.n, f)
    return _bit_counts(code.ring, kept, code.n, fixed)


def _bit_counts(ring: RingSpec, kept, n: int, fixed):
    """The table of `_tuple_counts` over the words of a code over a ring of
    order 2, from its kept generators (`LinearCode._kept`), no word built.

    Word j of `words` is the sum of the kept generators whose bits are set
    in j, so a position's column, bit j set when word j has a 1 there, is
    the XOR of the index patterns (`_patterns`) of the kept generators
    with a 1 there.  Position i is in class r, r being its fixed-word
    column (f_1[i], ..., f_m[i]) read in base 2, and positions with the
    same class and kept-generator symbols share a column, so a class has at
    most 2^k distinct ones.  Each class sums them, times their counts, in a
    bit-sliced counter: plane t holds bit t of every word's count of ones
    in the class, each copy added by a ripple carry.  Splitting the words
    by every plane of every class leaves one cell per composition, a mask
    of its words; a word with k ones in class r counts k at column index
    2^m + r and the rest of the class at r, and each cell carries its key
    packed in the layout.  The cells are ordered by their first word, the
    first-occurrence order of the direct walk.
    """
    patterns = _patterns(len(kept))
    index = [0] * n
    for f in fixed:
        index = [2 * r + s for r, s in zip(index, f)]
    classes = defaultdict(list)
    for symbols, mult in Counter(zip(*kept, index)).items():
        classes[symbols[-1]].append((_column(patterns, symbols), mult))
    ones_at = 1 << len(fixed)
    layout = monomial_layout(2 * ones_at, n)
    start, splits = 0, []
    for r, columns in classes.items():
        size = index.count(r)
        planes = [0] * size.bit_length()
        for column, mult in columns:
            # one copy of the column added at plane t per bit t of mult
            for t in range(mult.bit_length()):
                carry, i = column if mult >> t & 1 else 0, t
                while carry:
                    planes[i], carry = planes[i] ^ carry, planes[i] & carry
                    i += 1
        # every word starts with the whole class at digit r, and a one at
        # plane t moves 2^t of it to digit 2^m + r
        at_one = 1 << layout[1] * (ones_at - 1 - r)
        at_zero = at_one << layout[1] * ones_at
        start += size * at_zero
        step = at_one - at_zero
        splits += [(step << t, plane) for t, plane in enumerate(planes) if plane]
    # depth first, so that only one path of masks is held at a time
    depth, cells = len(splits), []
    stack = [((1 << (1 << len(kept))) - 1, start, 0)]
    while stack:
        mask, key, i = stack.pop()
        if i == depth:
            cells.append(((mask & -mask).bit_length(), key, mask.bit_count()))
            continue
        step, plane = splits[i]
        ones = mask & plane
        if ones:
            stack.append((ones, key + step, i + 1))
        if ones != mask:
            stack.append((mask ^ ones, key, i + 1))
    cells.sort()
    pairs = ((key, count) for _, key, count in cells)
    return SparsePolynomial.from_packed(ring, 1 + len(fixed), pairs, layout)


def _patterns(k: int) -> list[int]:
    """The 2^k-bit index pattern of each of k kept generators: bit j set
    just when the generator is in word j, the last generator bit 0 of j.
    For bit b of j that is the upper half of every run of 2^(b + 1) bits,
    full // (2^(2^(b + 1)) - 1) * ((2^(2^b) - 1) << 2^b); each is made from
    the one before by a shift and an XOR, since that division is quadratic
    in 2^k (1.5 s at k = 20)."""
    full = (1 << (1 << k)) - 1
    patterns = []
    low = full >> (1 << k >> 1)
    for b in reversed(range(k)):
        # low: bit j set just when bit b of j is clear; one shift by 2^(b - 1)
        # and an XOR give the same for bit b - 1
        patterns.append(full ^ low)
        low ^= low << (1 << b >> 1)
    return patterns


def _column(patterns, symbols) -> int:
    """Bit j set just when word j has a 1 where the kept generators read
    symbols: the XOR of the patterns of those that read 1."""
    return reduce(xor, itertools.compress(patterns, symbols), 0)


def _pack(flags) -> int:
    """The int with bit i set just when flags[i] is true, read in one pass
    from a string of binary digits (int() parses base 2 in linear time)."""
    return int("0" + "".join(["1" if x else "0" for x in reversed(flags)]), 2)


def comp_table(code: LinearCode) -> SparsePolynomial:
    """Composition distribution A_L, the complete weight enumerator, counted
    once per code: do not mutate it.

    Over a ring of order 2 it is counted bit-sliced from the kept
    generators' columns (`_bit_counts`), no word built, else by
    `_tuple_counts`; the tables are equal, key order included."""
    return code._comp_table


def jacobi_table(code: LinearCode, w) -> SparsePolynomial:
    """Jacobi composition distribution B_R of a code against mask w.

    Over a ring of order 2 the mask's zeros and ones are two classes of
    positions, and every word's popcount in each is counted at once by a
    bit-sliced counter over the kept generators' columns (`_bit_counts`);
    over any other ring `_tuple_counts` walks the words."""
    return _code_counts(code, (w,))


def joint_jacobi_table(code_c: LinearCode, code_d: LinearCode, w) -> SparsePolynomial:
    """Joint composition distribution B_H over all pairs in C x D."""
    check_pair(code_c, code_d)
    return _tuple_counts(code_c.ring, [code_c.words, code_d.words], (w,))


# ---- code files ------------------------------------------------------------


def code_from_json(obj) -> LinearCode:
    if not isinstance(obj, dict):
        raise CodeFormatError("code object must be a JSON object")
    for key in ("ring", "n", "generators"):
        if key not in obj:
            raise CodeFormatError(f"missing key {key!r} in code object")
    try:
        ring = ring_from_json(obj["ring"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CodeFormatError(f"bad ring object: {exc}") from exc
    n = obj["n"]
    if type(n) is not int or n < 1:
        raise CodeFormatError("n must be a positive integer")
    gens = obj["generators"]
    if not isinstance(gens, list):
        raise CodeFormatError("generators must be a list of rows")
    rows = []
    for row in gens:
        if not isinstance(row, list) or not all(type(s) is int for s in row):
            raise CodeFormatError("generator rows must be lists of integers")
        rows.append(tuple(row))
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise CodeFormatError("name must be a string")
    return LinearCode(ring, n, tuple(rows), name=name)


def code_to_json(code: LinearCode):
    return {
        "name": code.name,
        "ring": ring_to_json(code.ring),
        "n": code.n,
        "generators": [list(row) for row in code.generators],
    }


# the default resolved once at import, as a realpath per lookup costs more
# than the lookup; JF_FIXTURES is still read on every call
FIXTURES = Path(__file__).resolve().parents[2] / "fixtures"


def fixtures_dir() -> Path:
    env = os.environ.get("JF_FIXTURES")
    return Path(env) if env else FIXTURES


def resolve_code_path(spec: str) -> Path:
    """Resolve a code argument: a real path, else a file in the fixtures dir."""
    p = Path(spec)
    if p.exists():
        return p
    candidate = fixtures_dir() / spec
    if candidate.exists():
        return candidate
    if not spec.endswith(".json"):
        candidate = fixtures_dir() / f"{spec}.json"
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"no code file found for {spec!r}")


def load_code(spec: str) -> LinearCode:
    """Load a code from a path or a fixture name."""
    path = resolve_code_path(spec)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CodeFormatError(f"invalid JSON in {path}: {exc}") from exc
    return code_from_json(obj)
