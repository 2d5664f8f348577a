"""Support designs of weight classes.

The supports of the words of one weight form a multiset of blocks.
The checks here are exhaustive: coverage of every t-subset of the
coordinate set is counted with block multiplicity, and a design means
that count is the same everywhere.  Each point is a bitset of the
blocks holding it, so a t-subset's coverage is the bit count of the
AND of its points' bitsets, and the work does not grow with the number
of blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .codes import LinearCode, check_budget, weight

__all__ = [
    "BlockMultiset",
    "DesignReport",
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


def supports(code: LinearCode, target_weight: int) -> BlockMultiset:
    """Blocks of coordinate supports of the words of one weight."""
    points = range(code.n)
    blocks = tuple(
        tuple(itertools.compress(points, u)) for u in code.words if weight(u) == target_weight
    )
    return BlockMultiset(code.n, target_weight, blocks)


def is_t_design(bm: BlockMultiset, t: int) -> DesignReport:
    """Exhaustive coverage scan of all t-subsets of the point set.

    The C(n, t) t-subsets are charged to the budget; each block sets
    its bit in the bitsets of its points, and each t-subset ANDs the
    bitsets of its t points.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t > bm.k:
        raise ValueError(f"t={t} exceeds block size {bm.k}")
    if t > bm.n:
        raise ValueError(f"t={t} exceeds the {bm.n} points")
    check_budget(math.comb(bm.n, t), f"{t}-subsets of {bm.n} points")
    columns = [0] * bm.n
    for r, block in enumerate(bm.blocks):
        for point in block:
            columns[point] |= 1 << r
    full = (1 << len(bm.blocks)) - 1
    counts = [
        reduce(and_, sub, full).bit_count() for sub in itertools.combinations(columns, t)
    ]
    min_cov, max_cov = min(counts), max(counts)
    lam = min_cov if min_cov == max_cov else None
    return DesignReport(
        n=bm.n,
        weight=bm.k,
        t=t,
        lam=lam,
        min_coverage=min_cov,
        max_coverage=max_cov,
        block_count=len(bm.blocks),
    )


def is_t_homogeneous(code: LinearCode, t: int):
    """Whether every nonzero weight class is a t-design.

    Returns the overall verdict and one report per nonzero weight
    with words present; the full-support class counts, the zero word
    does not.  The words are grouped by weight in one pass.
    """
    classes: dict[int, list[tuple[int, ...]]] = {}
    points = range(code.n)
    for u in code.words:
        block = tuple(itertools.compress(points, u))
        classes.setdefault(len(block), []).append(block)
    reports = []
    for w, blocks in sorted(classes.items()):
        if w == 0:
            continue
        if t > w:
            reports.append(
                DesignReport(
                    n=code.n,
                    weight=w,
                    t=t,
                    lam=None,
                    min_coverage=0,
                    max_coverage=0,
                    block_count=len(blocks),
                )
            )
        else:
            reports.append(is_t_design(BlockMultiset(code.n, w, tuple(blocks)), t))
    return all(r.is_design for r in reports), reports


def lambda_identity_holds(report: DesignReport) -> bool:
    """Counting identity lam * C(n,t) = #blocks * C(k,t) for designs."""
    if report.lam is None:
        raise ValueError("identity applies only to verified designs")
    lhs = report.lam * math.comb(report.n, report.t)
    rhs = report.block_count * math.comb(report.weight, report.t)
    return lhs == rhs
