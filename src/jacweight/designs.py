"""Support designs of weight classes.

The supports of the words of one weight form a multiset of blocks, one
block per word, and a class is a t-design when every t-subset of the
coordinate set is covered equally often, counted with block multiplicity.
Two routes give the same reports.

* The theorem route (`_assmus_mattson`) answers from the weight
  distributions alone, for a code over a field F_q and 1 <= t < d (Assmus
  and Mattson, "New 5-designs", J. Combin. Theory 6, 1969; MacWilliams
  and Sloane, ch. 6).  C-perp's distribution comes from C's by the
  Krawtchouk form of the MacWilliams identity, in exact ints and with no
  dual word (`_dual_distribution`).  If C-perp has at most d - t nonzero
  weights in 1..n - t, every class is a t-design, whose lam is
  A_u C(u, t) / C(n, t), no t-subset visited.  `is_t_homogeneous` and
  `class_report` (the `design-check` command) try this route first.
* The coverage scan (`_coverage`) counts every t-subset.  It serves the
  codes over Z_k, t = 0, every code and t the theorem does not reach, and
  `is_t_design`, which is always the scan; it is also the theorem route's
  oracle in the tests.

Both run the same checks first, in one order: the |C| * n codeword
symbols charged, the range of t, then the C(n, t) t-subsets charged, so
a refusal has the same text on either route.

Each word's support is one int, bit i set when position i is nonzero:
`LinearCode._bits` over a ring of order 2, one int per word of `words`
otherwise.  A weight class is the masks of one popcount, and its n
columns, each a bitset of the blocks holding one point, come from one
transpose of the masks' binary digits.  A t-subset's coverage is the bit
count of the AND of its points' columns; one scan walks the t-subsets
depth first, so the AND of each shorter prefix is taken once, and the
work does not grow with the number of blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, compress, groupby, repeat, starmap
from operator import and_

from .codes import _DIGIT_BYTES, LinearCode, _pack, check_budget

__all__ = [
    "BlockMultiset",
    "DesignReport",
    "class_report",
    "supports",
    "is_t_design",
    "is_t_homogeneous",
    "lambda_identity_holds",
]


@dataclass(frozen=True)
class BlockMultiset:
    """Multiset of k-subsets of an n-point set, kept with repeats."""

    n: int
    k: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_block_size(self.n, self.k)
        for block in self.blocks:
            if len(block) != self.k or len(set(block)) != self.k:
                raise ValueError("every block must have k distinct points")
            if any(not 0 <= p < self.n for p in block):
                raise ValueError("block point out of range")


@dataclass(frozen=True)
class DesignReport:
    """Coverage summary of a block multiset at one t.

    lam is the common coverage when every t-subset is met equally
    often, and None otherwise.  Undersized classes (block size below
    t) never report a lam.
    """

    n: int
    weight: int
    t: int
    lam: int | None
    min_coverage: int
    max_coverage: int
    block_count: int

    @property
    def is_design(self) -> bool:
        return self.lam is not None

    def to_json_obj(self):
        return {
            "weight": self.weight,
            "t": self.t,
            "lambda": self.lam,
            "min": self.min_coverage,
            "max": self.max_coverage,
        }


def _check_block_size(n: int, k: int) -> None:
    """Raise ValueError unless 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError(f"block size {k} is outside 0..{n}")


def _support_masks(code: LinearCode):
    """Each word's support as an int, bit i for position i, in the order
    of `words`, each packed in linear time; the |C| * n codeword symbols
    are charged before the first mask is built."""
    if code.ring.order == 2:
        return code._bits
    return list(map(_pack, code.words))


def supports(code: LinearCode, target_weight: int) -> BlockMultiset:
    """Blocks of coordinate supports of the words of one weight."""
    points = range(code.n)
    blocks = tuple(
        # bin(x)[:1:-1] is x's binary digits from bit 0 up
        tuple(compress(points, bin(x)[:1:-1].encode().translate(_DIGIT_BYTES)))
        for x in _support_masks(code)
        if x.bit_count() == target_weight
    )
    return BlockMultiset(code.n, target_weight, blocks)


def is_t_design(bm: BlockMultiset, t: int) -> DesignReport:
    """Exhaustive coverage scan of all t-subsets of the point set, each
    block read as its support mask: a string of n binary digits with a 1
    set at each of its points, parsed once, in time linear in n (a sum of
    one bit per point, or a table of the n bits, is quadratic)."""
    zeros = bytearray(b"0") * bm.n
    masks = []
    for b in bm.blocks:
        digits = zeros.copy()
        for p in b:
            digits[p] = 49  # ord("1")
        masks.append(int(digits[::-1], 2))
    return _coverage(bm.n, bm.k, t, masks)


def _check_range(n: int, k: int, t: int) -> None:
    """The range checks of t for blocks of size k on n points, then the
    charge of the C(n, t) t-subsets, which every route runs first."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t > k:
        raise ValueError(f"t={t} exceeds block size {k}")
    if t > n:
        raise ValueError(f"t={t} exceeds the {n} points")
    check_budget(math.comb(n, t), f"{t}-subsets of {n} points")


def _coverage(n: int, k: int, t: int, masks) -> DesignReport:
    """The report at t of the blocks of size k whose supports are masks.

    The range of t is checked and the C(n, t) t-subsets are charged to the
    budget first (`_check_range`).  At t = 0, and when every block is the
    whole point set (k = n), each t-subset is covered once per block, with
    no scan.  Otherwise column p, the bitset of the blocks holding point p,
    is read off one string of every mask's n binary digits.  The scan ANDs
    each prefix of at most t - 2 points with each later point's column
    once; past a prefix of t - 2 points, the AND of each pair of those
    is one t-subset's blocks.
    """
    _check_range(n, k, t)
    if t == 0 or k == n:
        # each block covers the empty set once, and a block of all n
        # points covers every t-subset once: no scan
        counts = {len(masks)}
    else:
        digits = "".join(map(format, masks, repeat(f"0{n}b")))
        columns = [int(digits[n - 1 - p :: n] or "0", 2) for p in range(n)]
        counts = set(map(int.bit_count, columns)) if t == 1 else set()
        # (AND of a prefix's columns, its first later point, points to add)
        stack = [((1 << len(masks)) - 1, 0, t)] if t > 1 else []
        while stack:
            acc, start, depth = stack.pop()
            rest = list(map(acc.__and__, columns[start:]))
            if depth == 2:
                counts.update(map(int.bit_count, starmap(and_, combinations(rest, 2))))
            else:
                stack.extend(
                    (a, start + i + 1, depth - 1)
                    for i, a in enumerate(rest[: len(rest) - depth + 1])
                )
    low, high = min(counts), max(counts)
    return DesignReport(
        n=n,
        weight=k,
        t=t,
        lam=low if low == high else None,
        min_coverage=low,
        max_coverage=high,
        block_count=len(masks),
    )


def _dual_distribution(n: int, q: int, dist) -> list[int]:
    """B_0 .. B_n, the weight distribution of C-perp, from C's {weight:
    words} by the MacWilliams identity |C| B_j = sum_i A_i K_j(i), where K_j
    is the Krawtchouk polynomial of length n over q symbols.  Each K_j(i)
    runs up from K_0 = 1 and K_1(i) = (q - 1) n - q i by the three-term
    recurrence (j + 1) K_(j+1)(i) = ((q - 1)(n - j) + j - q i) K_j(i)
    - (q - 1)(n - j + 1) K_(j-1)(i): exact ints, O(n) steps per weight of C,
    and no dual word (MacWilliams and Sloane, ch. 5)."""
    sums = [0] * (n + 1)
    for i, a in dist.items():
        low, k = 0, 1
        for j in range(n + 1):
            sums[j] += a * k
            step = ((q - 1) * (n - j) + j - q * i) * k - (q - 1) * (n - j + 1) * low
            low, k = k, step // (j + 1)
    size = sum(dist.values())
    dual = []
    for total in sums:
        b, rest = divmod(total, size)
        assert not rest, "the MacWilliams identity must divide by |C| exactly"
        dual.append(b)
    return dual


def _assmus_mattson(code: LinearCode, dist, t: int, weights):
    """The reports at t of the classes of these weights by the Assmus-Mattson
    theorem, or None when it does not apply: the ring is not a field, t is
    outside 1..d - 1, or C-perp has more than d - t nonzero weights in
    1..n - t.  Every class of weight u is then a t-design with one block per
    word: its report is lam = min = max = A_u C(u, t) / C(n, t) with A_u
    blocks.  The theorem's bound u - ceil(u / (q - 1)) < d, under which the
    words of one support are the q - 1 multiples of one word, is needed only
    for the distinct supports to form a design.  Each class runs
    `_check_range` before its report is made."""
    n, q = code.n, code.ring.order
    d = min(filter(None, dist), default=0)
    if code.ring.kind != "field" or not 1 <= t < d:
        return None
    dual = _dual_distribution(n, q, dist)
    if sum(1 for b in dual[1 : n - t + 1] if b) > d - t:
        return None
    reports = []
    for u in weights:
        _check_range(n, u, t)
        count = dist.get(u, 0)
        lam, rest = divmod(count * math.comb(u, t), math.comb(n, t))
        assert not rest, "a t-design's lam must be an int"
        reports.append(DesignReport(n, u, t, lam, lam, lam, count))
    return reports


def class_report(code: LinearCode, weight: int, t: int) -> DesignReport:
    """The report at t of the supports of the words of one weight: the
    theorem route where it applies, else the scan of the class's masks.

    The |C| * n codeword symbols are charged first (by
    `weight_distribution`, as the masks would charge them), then the weight
    is checked against 0..n, as `BlockMultiset` checks a block size."""
    dist = code.weight_distribution()
    _check_block_size(code.n, weight)
    reports = _assmus_mattson(code, dist, t, [weight])
    if reports is not None:
        return reports[0]
    masks = [x for x in _support_masks(code) if x.bit_count() == weight]
    return _coverage(code.n, weight, t, masks)


def is_t_homogeneous(code: LinearCode, t: int):
    """Whether every nonzero weight class is a t-design.

    Returns the overall verdict and one report per nonzero weight
    with words present; the full-support class counts, the zero word
    does not.  The theorem route answers where it applies; otherwise the
    support masks are grouped by popcount and each class is scanned.
    """
    dist = code.weight_distribution()
    reports = _assmus_mattson(code, dist, t, sorted(filter(None, dist)))
    if reports is None:
        reports = []
        masks = sorted(_support_masks(code), key=int.bit_count)
        for w, group in groupby(masks, key=int.bit_count):
            if w == 0:
                continue
            group = list(group)
            if t > w:
                reports.append(DesignReport(code.n, w, t, None, 0, 0, len(group)))
            else:
                reports.append(_coverage(code.n, w, t, group))
    return all(r.is_design for r in reports), reports


def lambda_identity_holds(report: DesignReport) -> bool:
    """Counting identity lam * C(n,t) = #blocks * C(k,t) for designs."""
    if report.lam is None:
        raise ValueError("identity applies only to verified designs")
    lhs = report.lam * math.comb(report.n, report.t)
    rhs = report.block_count * math.comb(report.weight, report.t)
    return lhs == rhs
