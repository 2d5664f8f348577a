import itertools
import math
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import get_code, random_code
from jacweight.codes import BudgetExceeded, LinearCode, weight
from jacweight.designs import (
    BlockMultiset,
    DesignReport,
    is_t_design,
    is_t_homogeneous,
    lambda_identity_holds,
    supports,
)
from jacweight.enumerators import cwe
from jacweight.rings import field_ring, modular_ring

F2 = field_ring(2)
F3 = field_ring(3)


def complete_design(n, k):
    return BlockMultiset(n, k, tuple(itertools.combinations(range(n), k)))


def test_block_validation():
    with pytest.raises(ValueError):
        BlockMultiset(4, 2, ((0, 0),))
    with pytest.raises(ValueError):
        BlockMultiset(4, 2, ((0, 4),))
    with pytest.raises(ValueError):
        BlockMultiset(4, 3, ((0, 1),))


@pytest.mark.parametrize("n, k", [(8, -1), (8, 9), (0, 1)])
def test_block_size_outside_the_point_range_is_refused(n, k):
    with pytest.raises(ValueError, match=rf"^block size {k} is outside 0\.\.{n}$"):
        BlockMultiset(n, k, ())


@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_complete_design_lambda(t):
    bm = complete_design(5, 3)
    report = is_t_design(bm, t)
    assert report.lam == math.comb(5 - t, 3 - t)
    assert lambda_identity_holds(report)


def test_t_range_validation():
    bm = complete_design(5, 3)
    with pytest.raises(ValueError):
        is_t_design(bm, -1)
    with pytest.raises(ValueError):
        is_t_design(bm, 4)


def test_budget_gate(monkeypatch):
    monkeypatch.setenv("JF_BUDGET", "4")
    bm = complete_design(6, 3)
    with pytest.raises(BudgetExceeded):
        is_t_design(bm, 3)


def test_e8_weight_four_is_a_3_design():
    e8 = get_code("e8")
    bm = supports(e8, 4)
    assert len(bm.blocks) == 14
    report = is_t_design(bm, 3)
    assert report.lam == 1
    assert report.block_count == 14
    assert lambda_identity_holds(report)


def test_octads_form_a_steiner_system():
    g24 = get_code("g24")
    bm = supports(g24, 8)
    assert len(bm.blocks) == 759
    report = is_t_design(bm, 5)
    assert (report.lam, report.min_coverage, report.max_coverage) == (1, 1, 1)
    assert lambda_identity_holds(report)


def test_octad_lambda_chain():
    # coverage grows by the standard ratio as t drops
    g24 = get_code("g24")
    bm = supports(g24, 8)
    expected = {5: 1, 4: 5, 3: 21, 2: 77, 1: 253}
    for t, lam in expected.items():
        report = is_t_design(bm, t)
        assert report.lam == lam
        assert lambda_identity_holds(report)


def test_block_counts_match_enumerator_coefficients():
    e8 = get_code("e8")
    p = cwe(e8)
    bm = supports(e8, 4)
    assert p.terms[(4, 4)] == len(bm.blocks)
    assert p.terms[(0, 8)] == len(supports(e8, 8).blocks)


def test_multiset_keeps_repeated_supports():
    rep = LinearCode(F3, 2, ((1, 1),))
    bm = supports(rep, 2)
    # words 11 and 22 share the same support
    assert bm.blocks == ((0, 1), (0, 1))
    report = is_t_design(bm, 1)
    assert report.lam == 2


def test_not_a_design():
    span = LinearCode(F2, 2, ((1, 0),))
    report = is_t_design(supports(span, 1), 1)
    assert report.lam is None
    assert report.min_coverage == 0
    assert report.max_coverage == 1
    assert not report.is_design
    with pytest.raises(ValueError):
        lambda_identity_holds(report)


def test_report_json_shape():
    report = DesignReport(
        n=8, weight=4, t=3, lam=1, min_coverage=1, max_coverage=1, block_count=14
    )
    assert report.to_json_obj() == {
        "weight": 4,
        "t": 3,
        "lambda": 1,
        "min": 1,
        "max": 1,
    }


def test_e8_is_3_homogeneous():
    verdict, reports = is_t_homogeneous(get_code("e8"), 3)
    assert verdict
    lams = {r.weight: r.lam for r in reports}
    assert lams == {4: 1, 8: 1}
    assert all(lambda_identity_holds(r) for r in reports)


def test_g24_is_5_homogeneous():
    verdict, reports = is_t_homogeneous(get_code("g24"), 5)
    assert verdict
    lams = {r.weight: r.lam for r in reports}
    assert lams == {8: 1, 12: 48, 16: 78, 24: 1}
    assert all(lambda_identity_holds(r) for r in reports)
    # the all-ones word, whose class is not scanned
    assert reports[-1] == DesignReport(24, 24, 5, 1, 1, 1, 1)


def test_d24plus_is_1_homogeneous():
    verdict, reports = is_t_homogeneous(get_code("d24plus"), 1)
    assert verdict
    lams = {r.weight: r.lam for r in reports}
    assert lams == {4: 5, 8: 213, 12: 1378, 16: 426, 20: 25, 24: 1}
    assert all(lambda_identity_holds(r) for r in reports)


def test_e8x2_is_not_2_homogeneous():
    verdict, reports = is_t_homogeneous(get_code("e8x2"), 2)
    assert not verdict
    by_weight = {r.weight: r for r in reports}
    assert by_weight[4].lam is None
    assert by_weight[4].min_coverage == 0
    assert by_weight[4].max_coverage == 3
    assert by_weight[16].lam == 1


def test_undersized_class_blocks_the_verdict():
    # weight-2 words cannot carry a 3-design
    code = LinearCode(F2, 4, ((1, 1, 0, 0), (0, 0, 1, 1)))
    verdict, reports = is_t_homogeneous(code, 3)
    assert not verdict
    small = [r for r in reports if r.weight < 3]
    assert small
    for r in small:
        assert r.lam is None
        assert (r.min_coverage, r.max_coverage) == (0, 0)
    top = [r for r in reports if r.weight == 4][0]
    assert top.lam == 1


def test_zero_weight_class_is_skipped():
    code = LinearCode(F2, 3, ((1, 1, 1),))
    verdict, reports = is_t_homogeneous(code, 1)
    assert verdict
    assert [r.weight for r in reports] == [3]


def literal_report(bm, t):
    """Coverage of every t-subset, counted block by block."""
    cover = Counter()
    for block in bm.blocks:
        cover.update(itertools.combinations(block, t))
    counts = [cover[sub] for sub in itertools.combinations(range(bm.n), t)]
    low, high = min(counts), max(counts)
    return DesignReport(
        n=bm.n,
        weight=bm.k,
        t=t,
        lam=low if low == high else None,
        min_coverage=low,
        max_coverage=high,
        block_count=len(bm.blocks),
    )


def random_blocks(rng):
    n = rng.randint(1, 9)
    k = rng.randint(0, n)
    pool = [tuple(sorted(rng.sample(range(n), k))) for _ in range(rng.randint(1, 4))]
    # draws from a small pool repeat blocks; a zero draw leaves none
    blocks = tuple(rng.choice(pool) for _ in range(rng.choice([0, 1, 2, 5, 12])))
    return BlockMultiset(n, k, blocks)


@pytest.mark.parametrize("seed", range(8))
def test_coverage_scan_matches_literal_count(seed):
    rng = random.Random(seed)
    seen = Counter()
    for _ in range(60):
        bm = random_blocks(rng)
        for t in range(bm.k + 1):
            report = is_t_design(bm, t)
            assert report == literal_report(bm, t), (bm, t)
            seen["t=0" if t == 0 else "t=k" if t == bm.k else "inner"] += 1
            seen["no blocks" if not bm.blocks else "blocks"] += 1
            seen["uncovered" if report.min_coverage == 0 else "covered"] += 1
            seen["t>n/2" if 2 * t > bm.n else "t<=n/2"] += 1
            if len(set(bm.blocks)) < len(bm.blocks):
                seen["repeats"] += 1
    # every kind of case came up, each side of every split
    assert set(seen) == {
        "t=0", "t=k", "inner", "no blocks", "blocks", "uncovered", "covered",
        "t>n/2", "t<=n/2", "repeats",
    }


@pytest.mark.parametrize(
    "ring", [F2, F3, field_ring(2, 2), modular_ring(4)], ids=["F2", "F3", "F4", "Z4"]
)
def test_full_support_classes_match_the_literal_count(ring, monkeypatch):
    """Classes of words with no zero symbol skip the scan; their reports at
    every t equal the literal count, with one block per word, and the range
    checks and the budget still refuse first."""
    rng = random.Random(f"full-support-{ring.order}")
    for n in range(1, 7):
        rows = [(1,) * n]
        for _ in range(rng.randint(0, 2)):
            rows.append(tuple(rng.randrange(ring.order) for _ in range(n)))
        code = LinearCode(ring, n, tuple(rows))
        bm = supports(code, n)
        assert len(bm.blocks) == sum(1 for u in code.words if weight(u) == n) > 0
        for t in range(n + 1):
            report = is_t_design(bm, t)
            assert report == literal_report(bm, t)
            assert report.lam == len(bm.blocks)
        with pytest.raises(ValueError, match="exceeds"):
            is_t_design(bm, n + 1)
    monkeypatch.setenv("JF_BUDGET", "4")
    with pytest.raises(BudgetExceeded, match="^20 3-subsets of 6 points"):
        is_t_design(BlockMultiset(6, 6, ((0, 1, 2, 3, 4, 5),)), 3)


RANDOM_CODE_RINGS = [field_ring(3), field_ring(2, 2), modular_ring(4)]


@pytest.mark.parametrize("ring", RANDOM_CODE_RINGS, ids=["F3", "F4", "Z4"])
def test_weight_classes_of_random_codes(ring):
    rng = random.Random(ring.order)
    for _ in range(12):
        code = random_code(ring, rng.randint(2, 6), rng.randint(1, 3), rng)
        for w in range(code.n + 1):
            blocks = tuple(
                tuple(i for i, x in enumerate(u) if x)
                for u in code.words
                if sum(1 for x in u if x) == w
            )
            assert supports(code, w).blocks == blocks
        for t in range(4):
            expected = []
            for w in sorted(code.weight_distribution()):
                if w == 0:
                    continue
                bm = supports(code, w)
                if t > w:
                    expected.append(DesignReport(code.n, w, t, None, 0, 0, len(bm.blocks)))
                else:
                    report = is_t_design(bm, t)
                    assert report == literal_report(bm, t)
                    expected.append(report)
            verdict = all(r.is_design for r in expected)
            assert is_t_homogeneous(code, t) == (verdict, expected)


# One ring of each kind the scans meet, and one of order past 256; each
# with the most generators that keep |C| at most 64 (257 for Z257).
SCAN_RINGS = [
    (field_ring(2), 6),
    (modular_ring(2), 6),
    (field_ring(3), 3),
    (field_ring(2, 2), 3),
    (modular_ring(4), 3),
    (modular_ring(6), 2),
    (modular_ring(257), 1),
]


@st.composite
def scan_codes(draw):
    """A code of length n <= 9 over one of SCAN_RINGS, with zero rows,
    zero columns and repeated supports allowed."""
    ring, most = draw(st.sampled_from(SCAN_RINGS))
    n = draw(st.integers(1, 9))
    symbols = st.integers(0, ring.order - 1) | st.just(0)
    row = st.lists(symbols, min_size=n, max_size=n).map(tuple)
    gens = draw(st.lists(row, max_size=most))
    return LinearCode(ring, n, tuple(gens))


@given(scan_codes())
@settings(max_examples=120, deadline=None)
def test_scans_match_the_word_blocks_and_the_literal_count(code):
    n, words = code.n, code.words
    reports = {t: [] for t in range(n + 2)}
    for w in range(n + 1):
        blocks = tuple(
            tuple(i for i, x in enumerate(u) if x) for u in words if weight(u) == w
        )
        bm = supports(code, w)
        assert bm == BlockMultiset(n, w, blocks)
        assert bm.blocks == blocks
        for t in range(n + 2):
            if t > w:
                with pytest.raises(ValueError, match="exceeds"):
                    is_t_design(bm, t)
                if w and blocks:
                    reports[t].append(DesignReport(n, w, t, None, 0, 0, len(blocks)))
                continue
            report = literal_report(bm, t)
            assert is_t_design(bm, t) == report
            if w and blocks:
                reports[t].append(report)
    for t, expected in reports.items():
        verdict = all(r.is_design for r in expected)
        assert is_t_homogeneous(code, t) == (verdict, expected)


def test_support_masks_charge_before_they_are_built(monkeypatch):
    # the codeword symbols are charged before any mask or power of two exists
    monkeypatch.setenv("JF_BUDGET", "100")
    code = LinearCode(field_ring(3), 20000, ())
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="20000 codeword symbols"):
            supports(code, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_block_masks_pack_in_linear_time():
    # three blocks of half of 400000 points; summing a bit per point took 6 s
    n = 400000
    halves = (tuple(range(0, n, 2)), tuple(range(1, n, 2)), tuple(range(n // 2)))
    bm = BlockMultiset(n, n // 2, halves)
    start = time.perf_counter()
    report = is_t_design(bm, 1)
    assert time.perf_counter() - start < 2
    assert (report.lam, report.min_coverage, report.max_coverage) == (None, 1, 2)
