import itertools
import math
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import get_code, random_code
from jacweight import designs
from jacweight.cli import main
from jacweight.codes import BudgetExceeded, LinearCode, weight
from jacweight.designs import (
    BlockMultiset,
    DesignReport,
    _assmus_mattson,
    _coverage,
    _dual_distribution,
    _support_masks,
    class_report,
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


# ---- the theorem route ------------------------------------------------------

F4 = field_ring(2, 2)
# each field with the most generators that keep |C| at most 256
THEOREM_RINGS = [
    (F2, 8), (F3, 5), (F4, 4), (field_ring(2, 3), 2), (field_ring(3, 2), 2)
]


@st.composite
def field_codes(draw, rings=THEOREM_RINGS):
    """A code of length n <= 10 over one of the rings, zero rows and
    repeated rows allowed."""
    ring, most = draw(st.sampled_from(rings))
    n = draw(st.integers(1, 10))
    row = st.lists(st.integers(0, ring.order - 1), min_size=n, max_size=n).map(tuple)
    return LinearCode(ring, n, tuple(draw(st.lists(row, min_size=1, max_size=most))))


def class_masks(code, u):
    return [x for x in _support_masks(code) if x.bit_count() == u]


def theorem_reports(code, t):
    """The route's reports of every nonzero class, or None."""
    dist = code.weight_distribution()
    return _assmus_mattson(code, dist, t, sorted(filter(None, dist)))


def simplex_7():
    """The [7, 3, 4] binary simplex code: column j is j + 1 in binary."""
    return LinearCode(F2, 7, tuple(tuple((j + 1) >> b & 1 for j in range(7)) for b in range(3)))


def hexacode():
    """The [6, 3, 4] hexacode over F4, omega = 2 and omega^2 = 3."""
    gens = ((1, 0, 0, 1, 2, 2), (0, 1, 0, 2, 1, 2), (0, 0, 1, 2, 2, 1))
    return LinearCode(F4, 6, gens)


def sum_zero(ring, n):
    """The [n, n - 1, 2] code of the words whose symbols sum to 0."""
    minus_one = ring.neg(1)
    return LinearCode(
        ring, n, tuple(tuple(1 if j == i else minus_one if j == n - 1 else 0
                             for j in range(n)) for i in range(n - 1))
    )


# Codes that meet the theorem at some t, each with at most 256 words: random
# codes over F2 seldom do
THEOREM_BASES = [
    simplex_7(),
    simplex_7().dual(),
    get_code("e8"),
    hexacode(),
    LinearCode(F3, 4, ((1, 0, 1, 1), (0, 1, 1, 2))),  # the tetracode
    LinearCode(field_ring(2, 3), 8, ((1,) * 8, tuple(range(8)))),  # [8, 2, 7] MDS
    *(LinearCode(ring, 5, ((1,) * 5,)) for ring in (F3, F4, field_ring(3, 2))),
    sum_zero(F3, 5),
    sum_zero(F4, 5),
]


@st.composite
def monomial_images(draw):
    """A code of THEOREM_BASES with its columns permuted and scaled by
    nonzero symbols, which keeps its designs, and sometimes one more
    random generator, which seldom does."""
    base = draw(st.sampled_from(THEOREM_BASES))
    ring, n = base.ring, base.n
    sigma = draw(st.permutations(range(n)))
    scale = draw(st.lists(st.integers(1, ring.order - 1), min_size=n, max_size=n))
    gens = [tuple(ring.mul(c, g[i]) for c, i in zip(scale, sigma)) for g in base.generators]
    if draw(st.booleans()):
        gens.append(tuple(draw(st.lists(st.integers(0, ring.order - 1), min_size=n, max_size=n))))
    return LinearCode(ring, n, tuple(gens))


@given(field_codes() | monomial_images())
@settings(max_examples=200, deadline=None)
def test_theorem_reports_equal_the_scan(code):
    """Wherever the theorem answers, its report of each class of weight t..n,
    empty classes included, is the scan's; `class_report` gives the scan's
    report of `supports` at every weight and t."""
    n, dist = code.n, code.weight_distribution()
    for t in range(n + 1):
        weights = range(t, n + 1)
        reports = _assmus_mattson(code, dist, t, weights)
        if reports is not None:
            event(f"the theorem answered over F{code.ring.order}")
            assert reports == [_coverage(n, u, t, class_masks(code, u)) for u in weights]
        for u in weights:
            assert class_report(code, u, t) == is_t_design(supports(code, u), t)


@given(field_codes(THEOREM_RINGS[:3]))
@settings(max_examples=100, deadline=None)
def test_krawtchouk_dual_distribution_equals_the_dual_code(code):
    dual = _dual_distribution(code.n, code.ring.order, code.weight_distribution())
    assert {j: b for j, b in enumerate(dual) if b} == code.dual().weight_distribution()


def test_krawtchouk_dual_distribution_of_the_fixtures():
    for name in ("e8", "e8x2", "d16plus", "g24", "d24plus", "f4_small", "f9_small"):
        code = get_code(name)
        dual = _dual_distribution(code.n, code.ring.order, code.weight_distribution())
        assert {j: b for j, b in enumerate(dual) if b} == code.dual().weight_distribution()


@pytest.mark.parametrize(
    "make, t",
    [(lambda: get_code("e8"), t) for t in (1, 2, 3)]
    + [(simplex_7, 1), (simplex_7, 2)]
    + [(hexacode, t) for t in (1, 2, 3)]
    + [(lambda: get_code("e8x2"), 1), (lambda: get_code("f9_small"), 1)],
    ids=["e8-1", "e8-2", "e8-3", "simplex-1", "simplex-2", "hexacode-1",
         "hexacode-2", "hexacode-3", "e8x2-1", "f9_small-1"],
)
def test_the_theorem_answers_on_the_named_codes(make, t):
    code = make()
    reports = theorem_reports(code, t)
    assert reports is not None
    assert reports == [
        _coverage(code.n, r.weight, t, class_masks(code, r.weight)) for r in reports
    ]
    assert all(r.is_design and lambda_identity_holds(r) for r in reports)
    assert is_t_homogeneous(code, t) == (True, reports)


def test_g24_octads_keep_their_scan():
    """The scan still finds g24's t = 5 classes the theorem reports."""
    g24 = get_code("g24")
    reports = theorem_reports(g24, 5)
    assert {r.weight: r.lam for r in reports} == {8: 1, 12: 48, 16: 78, 24: 1}
    assert [r.block_count for r in reports] == [759, 2576, 759, 1]
    assert reports == [_coverage(24, r.weight, 5, class_masks(g24, r.weight)) for r in reports]


@pytest.mark.parametrize(
    "make, t",
    [
        (lambda: get_code("z4_small"), 1),  # not over a field
        (lambda: get_code("e8"), 0),  # t = 0
        (lambda: get_code("e8"), 4),  # t = d, and s = 1 > d - t
        (lambda: get_code("e8x2"), 2),  # s = 3 > d - t
        (lambda: get_code("d24plus"), 1),  # a design the theorem does not reach
        (lambda: get_code("f4_small"), 1),
        # t = d with s = 0 <= d - t: only an MDS code has no dual weight in
        # 1..n - d, and every class of one is a design, so the scan's
        # reports are the same and only the route's scope shows t < d
        (lambda: LinearCode(F2, 4, ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1))), 2),
        (lambda: LinearCode(F3, 3, ((0, 0, 0),)), 1),  # no nonzero word
    ],
    ids=["Z4", "t=0", "e8-4", "e8x2-2", "d24plus-1", "f4_small-1", "t=d", "zero code"],
)
def test_the_theorem_route_stays_inside_its_hypotheses(make, t):
    assert theorem_reports(make(), t) is None


def test_classes_past_the_weight_bound_are_answered_by_the_theorem(monkeypatch):
    """Over F4 the sum-zero [5, 4, 2] code meets the theorem at t = 1, and
    u - ceil(u / 3) < 2 holds for u = 2 alone.  Counted with one block per
    word, classes 3, 4 and 5 are designs too: the route answers them with
    the scan's reports, and no scan runs."""
    scanned = []
    scan = designs._coverage

    def spy(n, k, t, masks):
        scanned.append((k, len(masks)))
        return scan(n, k, t, masks)

    monkeypatch.setattr(designs, "_coverage", spy)
    code = LinearCode(F4, 5, tuple(tuple(int(j in (i, 4)) for j in range(5)) for i in range(4)))
    verdict, reports = is_t_homogeneous(code, 1)
    assert [class_report(code, u, 1) for u in range(2, 6)] == reports
    assert scanned == []
    assert verdict and [(r.weight, r.lam) for r in reports] == [(2, 12), (3, 36), (4, 84), (5, 60)]
    assert reports == [scan(5, u, 1, class_masks(code, u)) for u in range(2, 6)]


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_refusals_keep_their_text_and_order(monkeypatch, capsys):
    """The codeword symbols are charged first, then the weight and t are
    checked, then the C(n, t) t-subsets are charged, on either route."""
    monkeypatch.setenv("JF_BUDGET", "16")
    for argv in (("homogeneous", "g24", "--t", "5"),
                 ("design-check", "g24", "--weight", "8", "--t", "5"),
                 ("design-check", "g24", "--weight", "25", "--t", "5")):
        assert run_cli(*argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", '{"error": "98304 codeword symbols exceed the budget 16"}\n')
    monkeypatch.delenv("JF_BUDGET")
    g24 = get_code("g24")
    with pytest.raises(ValueError, match=r"^block size 25 is outside 0\.\.24$"):
        class_report(g24, 25, 5)
    with pytest.raises(ValueError, match=r"^block size -1 is outside 0\.\.24$"):
        class_report(g24, -1, 5)
    with pytest.raises(ValueError, match=r"^t=5 exceeds block size 3$"):
        class_report(g24, 3, 5)
    # the repetition code meets the theorem at t = 5, which still charges
    # the C(10, 5) 5-subsets before it answers
    rep = LinearCode(F2, 10, ((1,) * 10,))
    assert theorem_reports(rep, 5) == [DesignReport(10, 10, 5, 1, 1, 1, 1)]
    monkeypatch.setenv("JF_BUDGET", "100")
    for call in (lambda: is_t_homogeneous(rep, 5), lambda: class_report(rep, 10, 5)):
        with pytest.raises(BudgetExceeded, match="^252 5-subsets of 10 points exceed the budget 100$"):
            call()
