"""Permutation averages of Jacobi-type enumerators.

Averaging runs over all coordinate permutations applied to the first
code, with the mask and the second code held fixed.  Each route has one
body.  The closed forms, single and joint, are one placement kernel: the
fixed side is a table (the mask's composition, or the fixed code's Jacobi
distribution against the mask), each term's nonzero digits its cells, and
each cell is split over the averaged code's symbols with multinomial
weights, which needs only the averaged code's composition counts.  The
exact delta-type values sum ints over compositions: the streamed value
convolves the same cells, split over the symbols where its point is
nonzero, and `delta_closed` lists no split, by Vandermonde's identity.
The exhaustive polynomial averages share one loop over S_n.

An intersection count is the number of pairs (u, v) in C x D with u^sigma
equal to v on the zeros K of the mask.  Those pairs are the kernel of the
linear map (u, v) -> (u^sigma - v) restricted to K, whose image is
P_sigma + Q, with P_sigma the restriction of C to sigma(K) and Q that of D
to K; so the count is |C| |D| / |P_sigma + Q|.  `_span_counter` takes that
span's size from `codes._span_size` over any ring, for `intersection_size`
(sigma the identity) and every sample off the binary rank route.
The exhaustive delta reads sigma on K alone, so it walks the injections of
K into the positions, not S_n: each level of the walk is one packed mask
per position over the pairs of C x D that agree there, and a pair counts
for an injection when it is set in the AND of the masks along its path.
The Monte Carlo path is one sampling loop that picks its stream by width
(numpy's, or random.Random shuffles once |K| symbols pass 62 bits) and its
counter by ring and width: over F2 while |K| <= 64 a GF(2) rank per sample
of C's rows reduced modulo D's, taken over the columns of C gathered at
sigma(K) with D's reduction as a fixed XOR of those columns, else span
sizes, on either stream.  Neither counter builds a word.  A batch holds at
most DRAW_ENTRIES permutation entries, so its memory does not grow with n.

The average joint Jacobi polynomial evaluated at the point that is
zero exactly on variables with differing code symbols and zero mask
symbol equals the average intersection number: the expected number of
pairs agreeing everywhere outside the mask support.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from .budget import check_budget
from .codes import (
    LinearCode,
    _columns,
    _direct_counts,
    _echelon,
    _f2_basis,
    _pack,
    _span_size,
    _tuple_counts,
    check_mask,
    check_pair,
    comp_table,
    jacobi_table,
    permute_word,
)
from .polynomials import SparsePolynomial, monomial_layout
from .rings import Record, RingSpec

__all__ = [
    "AverageResult",
    "multinomial",
    "compositions",
    "intersection_point",
    "all_ones_point",
    "intersection_size",
    "avg_jacobi",
    "avg_joint_jacobi",
    "avg_joint_jacobi_value",
    "brute_avg_jacobi",
    "brute_avg_joint_jacobi",
    "brute_delta",
    "delta_closed",
    "monte_carlo_delta",
    "delta",
]

BRUTE_MAX_N = 8

# brute_delta's pair masks hold at most this many bits, or |D| if more.
PAIR_MASK_BITS = 1 << 16

# A Monte Carlo batch draws at most this many permutation entries.
DRAW_ENTRIES = 1 << 20


def multinomial(n: int, parts) -> int:
    """Multinomial coefficient; zero when parts do not compose n."""
    if any(p < 0 for p in parts) or sum(parts) != n:
        return 0
    r = math.factorial(n)
    for p in parts:
        r //= math.factorial(p)
    return r


def compositions(total: int, bins: int):
    """All tuples of bins nonnegative integers summing to total."""
    if bins == 0:
        if total == 0:
            yield ()
        return
    if bins == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, bins - 1):
            yield (first,) + rest


def _zero_positions(w) -> list[int]:
    return [i for i, m in enumerate(w) if m == 0]


def _require_brute(*codes: LinearCode) -> None:
    """Gate a walk over every permutation and every word tuple of codes."""
    n = codes[0].n
    if n > BRUTE_MAX_N:
        raise ValueError(
            f"exhaustive averaging is limited to length {BRUTE_MAX_N}, got {n}"
        )
    steps = math.factorial(n) * math.prod(code.size for code in codes)
    check_budget(steps, f"steps over {n}! permutations")


def _check_pair(code_c: LinearCode, code_d: LinearCode, w) -> None:
    check_pair(code_c, code_d)
    check_mask(code_c.ring, code_c.n, w)


def _split_cells(table: SparsePolynomial, bins):
    """([(cell r, count)], int multiplicity) of each term of a table, once
    the splits of every cell over its bins[r] bins are charged."""
    entries = [(table.digits(key), mult) for key, mult in table.packed.items()]
    count = sum(math.prod(math.comb(c + bins[r] - 1, c) for r, c in cells)
                for cells, _ in entries)
    check_budget(count, "composition splits")
    return entries


# ---- evaluation points -----------------------------------------------------


def intersection_point(ring: RingSpec):
    """Point over three-slot variables picking out masked agreement.

    The variable for symbols (a1, a2, a3) gets 0 when a1 != a2 while
    a3 = 0, and 1 otherwise.
    """
    q = ring.order
    zero, one = Fraction(0), Fraction(1)
    # one run of q entries per (a1, a2), all of them these two Fractions
    same, differ = (one,) * q, (zero,) + (one,) * (q - 1)
    runs = (same if a1 == a2 else differ for a1 in range(q) for a2 in range(q))
    return tuple(itertools.chain.from_iterable(runs))


def all_ones_point(ring: RingSpec, arity: int):
    return (Fraction(1),) * ring.order**arity


def intersection_size(code_c: LinearCode, code_d: LinearCode, w) -> int:
    """Pairs in C x D that agree on every position outside supp(w): the
    span counter at the identity, with no word enumerated."""
    _check_pair(code_c, code_d, w)
    count = _span_counter(code_c, code_d, _zero_positions(w))
    return count([range(code_c.n)])[0]


def _span_counter(code_c: LinearCode, code_d: LinearCode, keep):
    """Per-permutation counts for a list of permutations: |C| |D| over the
    `_span_size` of C's generators on sigma(K) and D's on K, with D's rows on
    K put in echelon form once, whose pivot rows span them."""
    ring = code_c.ring
    s = len(keep)
    fixed, _ = _echelon(ring, [[g[i] for i in keep] for g in code_d.generators], s)
    pairs = code_c.size * code_d.size

    def span_size(sigma):
        moved = [tuple(g[sigma[i]] for i in keep) for g in code_c.generators]
        return _span_size(ring, moved + fixed, s)

    return lambda perms: [pairs // span_size(sigma) for sigma in perms]


# ---- exhaustive averages ---------------------------------------------------


def _brute_average(code: LinearCode, others, w) -> SparsePolynomial:
    """Column tuples of code's permuted words against the fixed codes' words
    and w, averaged over every permutation."""
    n = code.n
    _require_brute(code, *others)
    fixed_lists = [other.words for other in others]
    counts: Counter = Counter()
    for sigma in itertools.permutations(range(n)):
        permuted = [permute_word(u, sigma) for u in code.words]
        table = _direct_counts(code.ring, [permuted, *fixed_lists], (w,))
        counts.update(table.packed)
    total = math.factorial(n)
    terms = ((key, Fraction(mult, total)) for key, mult in counts.items())
    return SparsePolynomial.from_packed(code.ring, table.arity, terms, table.layout)


def brute_avg_jacobi(code: LinearCode, w) -> SparsePolynomial:
    """Average Jacobi polynomial by running over every permutation."""
    check_mask(code.ring, code.n, w)
    return _brute_average(code, (), w)


def brute_avg_joint_jacobi(
    code_c: LinearCode, code_d: LinearCode, w
) -> SparsePolynomial:
    """Average joint Jacobi polynomial over every permutation of C."""
    _check_pair(code_c, code_d, w)
    return _brute_average(code_c, (code_d,), w)


def brute_delta(code_c: LinearCode, code_d: LinearCode, w) -> Fraction:
    """Average intersection number, exhaustively over every permutation.

    The count for sigma reads sigma only on the zeros K of w, so the sum
    over S_n is (n - s)! times the sum over the injections tau: K -> [n],
    s = |K|.  Those are walked depth first on packed pair masks
    (`_pair_masks`): a tau counts the pairs set in the AND of its masks, a
    prefix whose AND is 0 is pruned, and the last level is one sum over the
    free positions.  C's words are cut into blocks so that no mask holds
    more than max(PAIR_MASK_BITS, |D|) bits, and each block is walked once.
    """
    _check_pair(code_c, code_d, w)
    n = code_c.n
    _require_brute(code_c)
    keep = _zero_positions(w)
    words_d = code_d.words
    words_c = code_c.words
    if not keep:
        # on an empty K every pair agrees under every sigma
        return Fraction(len(words_c) * len(words_d))
    step = max(PAIR_MASK_BITS, len(words_d)) // len(words_d)
    total = 0
    for i in range(0, len(words_c), step):
        masks = _pair_masks(words_c[i : i + step], words_d, keep, n)
        # -1 has every bit set: the empty prefix keeps every pair
        total += _injection_counts(masks, 0, -1, tuple(range(n)))
    return Fraction(total * math.factorial(n - len(keep)), math.factorial(n))


def _pair_masks(block, words_d, keep, n: int):
    """masks[j][p]: the int with bit i * |D| + k set just when block[i][p]
    equals words_d[k][keep[j]], read from one string of binary digits."""
    zeros = "0" * len(words_d)
    rows = block[::-1]
    masks = []
    for k in keep:
        column = [v[k] for v in reversed(words_d)]
        digits = {
            a: "".join(["1" if x == a else "0" for x in column]) for a in set(column)
        }
        masks.append(
            [int("".join([digits.get(u[p], zeros) for u in rows]), 2) for p in range(n)]
        )
    return masks


def _injection_counts(masks, j: int, acc: int, free) -> int:
    """The sum, over the injections tau of levels j, j + 1, ... of masks into
    the positions free, of the bits set in acc AND masks[j][tau(j)] AND ...;
    the last level is one sum over the free positions."""
    head = masks[j]
    if j == len(masks) - 1:
        return sum(map(int.bit_count, map(acc.__and__, map(head.__getitem__, free))))
    total = 0
    for i, p in enumerate(free):
        prefix = acc & head[p]
        if prefix:
            total += _injection_counts(masks, j + 1, prefix, free[:i] + free[i + 1 :])
    return total


# ---- closed forms ----------------------------------------------------------


def _placements(code: LinearCode, fixed: SparsePolynomial) -> SparsePolynomial:
    """The average over permutations of code against a fixed side, a table
    of m cells per term, as a table of one more slot.

    Each nonzero cell r is split over the q symbols of code; a split whose
    symbol counts form a composition of code is weighted by that
    composition's codeword count over its number of arrangements, times the
    multinomial placements of every cell.  Variable a * m + r gets the part
    of cell r that code gives symbol a.  A split is two packed keys, its
    symbol counts and its part of the term, so picks sum to both.
    """
    q, n, m = code.ring.order, code.n, fixed.nvars
    entries = _split_cells(fixed, [q] * m)
    table = comp_table(code)
    weights = {
        key: (mult, multinomial(n, [c for _, c in table.digits(key)]))
        for key, mult in table.packed.items()
    }
    symbol_bits = table.layout[1]
    layout = monomial_layout(q * m, n)
    bits, top = layout[1], q * m - 1
    cell_splits: dict = {}
    out = []
    for cells, fixed_mult in entries:
        choices = []
        for r, cell in cells:
            splits = cell_splits.get((r, cell))
            if splits is None:
                splits = cell_splits[r, cell] = [
                    (sum(e << symbol_bits * (q - 1 - a) for a, e in enumerate(sp)),
                     sum(e << bits * (top - (a * m + r)) for a, e in enumerate(sp)),
                     multinomial(cell, sp))
                    for sp in compositions(cell, q)
                ]
            choices.append(splits)
        for picks in itertools.product(*choices):
            comps, keys, ways = zip(*picks)
            if hit := weights.get(sum(comps)):
                mult, arrangements = hit
                coeff = Fraction(mult * fixed_mult * math.prod(ways), arrangements)
                out.append((sum(keys), coeff))
    return SparsePolynomial.from_packed(code.ring, fixed.arity + 1, out, layout)


def avg_jacobi(code: LinearCode, w) -> SparsePolynomial:
    """Average Jacobi polynomial from composition counts alone: the fixed
    side is the mask's composition, each mask class a cell."""
    check_mask(code.ring, code.n, w)
    return _placements(code, _tuple_counts(code.ring, [[w]]))


def avg_joint_jacobi(code_c: LinearCode, code_d: LinearCode, w) -> SparsePolynomial:
    """Average joint Jacobi polynomial without enumerating pairs: the fixed
    side is the Jacobi distribution of the fixed code against the mask."""
    _check_pair(code_c, code_d, w)
    return _placements(code_c, jacobi_table(code_d, w))


def avg_joint_jacobi_value(code_c: LinearCode, code_d: LinearCode, w, point):
    """Value of the average joint Jacobi polynomial at a point.

    Each nonzero cell (a1, a2) of D's Jacobi table is split over the
    symbols b where the point is nonzero at (b, a1, a2), a split weighing
    its multinomial times its point powers, and the cells are convolved one
    by one into {partial composition, packed as C's table: weight}.  A
    finished composition counts C's words of it times prod_a comp_a!, and
    n! divides once; the sums are ints when every entry of the point is an
    integer.
    """
    _check_pair(code_c, code_d, w)
    q, n = code_c.ring.order, code_c.n
    m = q * q
    if len(point) != q**3:
        raise ValueError("point length must cover all three-slot variables")
    table_b = jacobi_table(code_d, w)
    plans = [[b for b, x in enumerate(point[r::m]) if x] for r in range(m)]
    entries = _split_cells(table_b, [len(allowed) for allowed in plans])
    if all(getattr(x, "denominator", None) == 1 for x in point):
        point = [int(x) for x in point]
    fact = [math.factorial(i) for i in range(n + 1)]
    table_c = comp_table(code_c)
    bits = table_c.layout[1]
    arranged = {
        key: mult * math.prod(fact[c] for _, c in table_c.digits(key))
        for key, mult in table_c.packed.items()
    }
    cell_splits = {}
    total = 0
    for cells, bcnt in entries:
        partial = {0: 1}
        for r, cell in cells:
            splits = cell_splits.get((r, cell))
            if splits is None:
                splits = cell_splits[r, cell] = []
                for parts in compositions(cell, len(plans[r])):
                    key, weight = 0, multinomial(cell, parts)
                    for b, e in zip(plans[r], parts):
                        key += e << bits * (q - 1 - b)
                        weight *= point[b * m + r] ** e
                    splits.append((key, weight))
            grown = Counter()
            for key, weight in partial.items():
                for split, ways in splits:
                    grown[key + split] += weight * ways
            partial = grown
        total += bcnt * sum(arranged.get(key, 0) * weight
                            for key, weight in partial.items())
    return Fraction(total) / fact[n]


def delta_closed(code_c: LinearCode, code_d: LinearCode, w) -> Fraction:
    """Average intersection number in closed form, by Vandermonde's identity.

    D's Jacobi table is grouped by its zero-mask column col0, which C's
    symbols must copy; the splits of the rest over the L mask-support
    positions sum to multinomial(L, comp - col0), comp a composition of C.
    So delta = L!/n! sum bcnt mult prod_a comp_a!/(comp_a - col0_a)!, a term
    0 if some comp_a < col0_a, over the groups times C's compositions.  A
    group is D's keys ANDed with the digits of col0, the variables (a, 0);
    comp_a is digit a of C's key, of the same width.
    """
    _check_pair(code_c, code_d, w)
    q, n = code_c.ring.order, code_c.n
    table_a = comp_table(code_c)
    table_b = jacobi_table(code_d, w)
    bits = table_b.layout[1]
    digit = (1 << bits) - 1
    col0 = sum(digit << bits * (q * q - 1 - a * q) for a in range(q))
    groups: Counter = Counter()
    for key, mult in table_b.packed.items():
        groups[key & col0] += mult
    check_budget(len(groups) * len(table_a.packed), "composition pairs")
    fact = [math.factorial(i) for i in range(n + 1)]
    total = 0
    for zeros, bcnt in groups.items():
        need = [(bits * (q - 1 - v // q), c) for v, c in table_b.digits(zeros)]
        for comp, mult in table_a.packed.items():
            term = bcnt * mult
            for shift, c in need:
                have = comp >> shift & digit
                if have < c:
                    break
                term *= fact[have] // fact[have - c]
            else:
                total += term
    ell = n - len(_zero_positions(w))
    return Fraction(total * fact[ell], fact[n])


# ---- sampling --------------------------------------------------------------


class AverageResult(Record):
    """Outcome of an average computation, with sampling metadata.

    A frozen record (`rings.Record`): every field is compared and shown."""

    _fields = ("value", "method", "samples", "seed", "stderr")
    __slots__ = _fields

    def __init__(
        self,
        value: object,
        method: str,
        samples: int | None = None,
        seed: int | None = None,
        stderr: float | None = None,
    ):
        super().__init__(value, method, samples, seed, stderr)


def monte_carlo_delta(
    code_c: LinearCode,
    code_d: LinearCode,
    w,
    samples: int = 10000,
    seed: int = 0,
) -> AverageResult:
    """Estimate the average intersection number from random permutations.

    One loop draws them in batches of at most 1024 and of at most
    DRAW_ENTRIES permutation entries, and counts each exactly.  The
    stream is chosen by width: numpy's, or random.Random(seed) shuffles
    once q^|K| reaches 2^62 or |K| symbols of the bit length of q - 1 pass
    62 bits.  The counter is chosen by ring: over F2 with |K| <= 64 it is
    |C| |D| / 2^(r_D + rank), r_D the rank of D's rows on K, taken once, and
    rank that of C's moved rows reduced modulo them, the column rank of C's
    packed columns at sigma(K) with D's pivots XORed in (`_rank_counter`);
    otherwise |C| |D| / |P_sigma + Q| on either stream (`_span_counter`).
    Neither builds a word.  The statistics are numpy float64 on numpy's
    stream and Python int sums on the shuffles; counts, a mean or a stderr
    past the largest float raise ValueError.  The samples are charged to the
    budget before any is drawn, and on the span counter so are the samples *
    (k_C + k_D) * |K| symbols of its generator rows.
    """
    _check_pair(code_c, code_d, w)
    if samples < 1:
        raise ValueError("samples must be positive")
    check_budget(samples, "samples")
    q = code_c.ring.order
    keep = _zero_positions(w)
    s = len(keep)
    shuffled = s * max(1, (q - 1).bit_length()) > 62 or q**max(s, 1) >= 2**62
    if shuffled:
        import contextlib
        import random

        rng = random.Random(seed)
        order = list(range(code_c.n))
        floats = contextlib.nullcontext()

        def draw(b):
            # each shuffle continues from the last one and is copied
            return [rng.shuffle(order) or list(order) for _ in range(b)]

    else:
        import numpy as np

        rng = np.random.default_rng(seed)
        floats = np.errstate(over="raise")

        def draw(b):
            return rng.permuted(np.tile(np.arange(code_c.n), (b, 1)), axis=1)

    if q == 2 and s <= 64:
        count = _rank_counter(code_c, code_d, keep)
    else:
        rows = len(code_c.generators) + len(code_d.generators)
        check_budget(samples * rows * s, "span symbols")
        count = _span_counter(code_c, code_d, keep)
    batch = min(1024, max(1, DRAW_ENTRIES // code_c.n))
    try:
        with floats:
            batches = [count(draw(min(batch, samples - i)))
                       for i in range(0, samples, batch)]
            stderr = None
            if shuffled:
                counts = [int(c) for batch in batches for c in batch]
                mean = sum(counts) / samples
                if samples > 1:
                    var = sum((c - mean) ** 2 for c in counts) / (samples - 1)
                    stderr = math.sqrt(var / samples)
            else:
                # span sizes are Python ints, an object array past int64
                counts = np.concatenate(batches).astype(np.float64)
                mean = float(counts.mean())
                if samples > 1:
                    stderr = float(counts.std(ddof=1) / math.sqrt(samples))
        if stderr == math.inf:
            # a sum of finite Python floats reaches inf with no error
            raise OverflowError
    except ArithmeticError:
        raise ValueError("the sampled statistics overflow a float") from None
    return AverageResult(
        value=mean, method="mc", samples=samples, seed=seed, stderr=stderr
    )


def _rank_counter(code_c: LinearCode, code_d: LinearCode, keep):
    """Per-permutation counts over F2 for b permutations, as a (b, n) array
    or a list of lists: |C| |D| >> (r_D + rank), by the transposed matrix.

    D's rows on K (bit j for kept slot j) are reduced once (`_f2_basis`), so
    r_D is their count; a pivot's lowest set bit is its low slot, and the
    other slots of K are free.  Reducing C's moved rows modulo their span
    XORs in the pivots whose low slots they have, so column f of the reduced
    rows, for a free slot f, is the column of C on sigma(keep[f]) XOR those
    on sigma(keep[low(p)]) for every pivot p with bit f, and rank is its
    column rank.  cols holds the `_columns` of C's `_f2_basis`.  A batch
    gathers cols at sigma(K) once, XORs each pivot's low row into the free
    rows it touches, and eliminates the free rows for all b permutations at
    once: each row pivots on its lowest set bit, which is cleared from the
    rows below, and the rows left nonzero are independent.
    """
    import numpy as np

    pivots, _ = _f2_basis(_pack([g[i] for i in keep]) for g in code_d.generators)
    lows = [(p & -p).bit_length() - 1 for p in pivots]
    free = [j for j in range(len(keep)) if j not in lows]
    slot = {j: f for f, j in enumerate(free)}
    # a pivot's bits above its low slot are all free
    touched = [
        (low, np.array([slot[j] for j in range(low + 1, len(keep)) if p >> j & 1],
                       dtype=np.intp))
        for p, low in zip(pivots, lows)
    ]
    basis, _ = _f2_basis(map(_pack, code_c.generators))
    # the narrowest unsigned dtype of dim C bits, object past 64
    dtype = np.min_scalar_type((1 << len(basis)) - 1)
    cols = np.array(_columns(basis, code_c.n), dtype=dtype)
    keep = np.array(keep, dtype=np.intp)
    free = np.array(free, dtype=np.intp)
    # |C| |D| is a power of two, so each count is exact as a float
    bits = (code_c.size * code_d.size).bit_length() - 1 - len(pivots)

    def count(perms):
        moved = cols[np.asarray(perms)[:, keep].T]
        rows = moved[free]
        for low, ix in touched:
            rows[ix] ^= moved[low]
        for r in range(len(rows) - 1):
            x = rows[r]
            rest = rows[r + 1 :]
            rest ^= ((rest & (x & -x)) != 0) * x
        return np.ldexp(1.0, bits - np.count_nonzero(rows, axis=0))

    return count


def delta(
    code_c: LinearCode,
    code_d: LinearCode,
    w,
    method: str = "closed",
    samples: int = 10000,
    seed: int = 0,
) -> AverageResult:
    """Average intersection number by the chosen method."""
    if method == "closed":
        return AverageResult(value=delta_closed(code_c, code_d, w), method="closed")
    if method == "brute":
        return AverageResult(value=brute_delta(code_c, code_d, w), method="brute")
    if method == "mc":
        return monte_carlo_delta(code_c, code_d, w, samples=samples, seed=seed)
    raise ValueError(f"unknown method {method!r}")
