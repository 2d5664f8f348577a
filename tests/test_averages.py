import contextlib
import io
import itertools
import json
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacweight.averages as averages
from conftest import REFERENCE_PAIRS, get_code, random_code, random_mask
from jacweight.averages import (
    AverageResult,
    all_ones_point,
    avg_jacobi,
    avg_joint_jacobi,
    avg_joint_jacobi_value,
    brute_avg_jacobi,
    brute_avg_joint_jacobi,
    brute_delta,
    compositions,
    delta,
    delta_closed,
    intersection_point,
    intersection_size,
    monte_carlo_delta,
    multinomial,
    _rank_counter,
    _span_counter,
)
from jacweight.cli import main
from jacweight.codes import (
    BudgetExceeded,
    LinearCode,
    _unpack,
    code_to_json,
    joint_jacobi_table,
    load_code,
)
from jacweight.enumerators import (
    collapse,
    joint_cwe,
    macwilliams_second,
    macwilliams_single,
)
from jacweight.refvalues import REFERENCE_ROWS, matches_reference
from jacweight.rings import field_ring, modular_ring

F2 = field_ring(2)
F3 = field_ring(3)
Z4 = modular_ring(4)
F4 = field_ring(2, 2)
F8 = field_ring(2, 3)
F9 = field_ring(3, 2)
Z6 = modular_ring(6)
Z8 = modular_ring(8)
Z12 = modular_ring(12)

FROZEN_DELTAS = {
    ("e8", "e8", 1): Fraction(24, 5),
    ("e8", "e8", 2): Fraction(32, 5),
    ("e8", "e8", 3): Fraction(48, 5),
    ("e8x2", "e8x2", 1): Fraction(384, 65),
    ("e8x2", "e8x2", 2): Fraction(512, 65),
    ("e8x2", "e8x2", 3): Fraction(768, 65),
    ("d16plus", "e8x2", 1): Fraction(384, 65),
    ("d16plus", "e8x2", 2): Fraction(512, 65),
    ("d16plus", "e8x2", 3): Fraction(768, 65),
    ("d16plus", "d16plus", 1): Fraction(384, 65),
    ("d16plus", "d16plus", 2): Fraction(512, 65),
    ("d16plus", "d16plus", 3): Fraction(768, 65),
    ("g24", "g24", 1): Fraction(25280, 4199),
    ("g24", "g24", 2): Fraction(101120, 12597),
    ("g24", "g24", 3): Fraction(50560, 4199),
    ("g24", "g24", 4): Fraction(84224, 4199),
    ("g24", "g24", 5): Fraction(454400, 12597),
    ("d24plus", "d24plus", 1): Fraction(3482880, 572033),
    ("d24plus", "d24plus", 2): Fraction(4643840, 572033),
    ("d24plus", "d24plus", 3): Fraction(6965760, 572033),
    ("g24", "d24plus", 1): Fraction(1920, 323),
    ("g24", "d24plus", 2): Fraction(2560, 323),
    ("g24", "d24plus", 3): Fraction(3840, 323),
}


def front_mask(n: int, k: int):
    return (1,) * k + (0,) * (n - k)


def _picker(positions):
    """u -> its symbols at positions: a scalar for one position and () for
    none, so that keys made by pickers of one length compare as tuples do."""
    return itemgetter(*positions) if positions else lambda u: ()


def _agreements(code_c, code_d, w, orders):
    """The literal counter: for each sigma in orders, the pairs (u, v) in
    C x D with u[sigma[i]] equal to v[i] at every position i outside
    supp(w), found by keying every word."""
    keep = [i for i, m in enumerate(w) if m == 0]
    cnt_d = Counter(map(_picker(keep), code_d.words))
    words = code_c.words
    for sigma in orders:
        keys = map(_picker([sigma[i] for i in keep]), words)
        yield sum(map(cnt_d.get, keys, itertools.repeat(0)))


def test_multinomial_convention():
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(5, (5,)) == 1
    assert multinomial(0, ()) == 1
    # parts that do not compose n contribute zero, not an error
    assert multinomial(3, (1, 1)) == 0
    assert multinomial(2, (3, -1)) == 0


def test_compositions_lexicographic():
    got = list(compositions(3, 2))
    assert got == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert got == sorted(got)
    assert len(list(compositions(2, 3))) == 6
    assert list(compositions(0, 2)) == [(0, 0)]
    assert list(compositions(2, 0)) == []


def test_intersection_point_binary_rule():
    pt = intersection_point(F2)
    zeros = {i for i, v in enumerate(pt) if v == 0}
    # (0,1,0) and (1,0,0) in base-2 variable order
    assert zeros == {2, 4}
    assert len(pt) == 8
    q4 = intersection_point(Z4)
    assert len(q4) == 64
    for a1 in range(4):
        for a2 in range(4):
            for a3 in range(4):
                idx = (a1 * 4 + a2) * 4 + a3
                expect = Fraction(0) if a1 != a2 and a3 == 0 else Fraction(1)
                assert q4[idx] == expect


def test_intersection_size_trivials():
    e8 = get_code("e8")
    assert intersection_size(e8, e8, (1,) * 8) == e8.size * e8.size
    assert intersection_size(e8, e8, (0,) * 8) == e8.size
    rep = LinearCode(F2, 2, ((1, 1),))
    assert intersection_size(rep, rep, (0, 1)) == 2


def test_brute_average_matches_hand_computation():
    code_c = LinearCode(F2, 2, ((1, 0),))
    code_d = LinearCode(F2, 2, ((0, 0),))
    got = brute_avg_joint_jacobi(code_c, code_d, (0, 1))

    def mono(*syms):
        vec = [0] * 8
        for a1, a2, a3 in syms:
            vec[(a1 * 2 + a2) * 2 + a3] += 1
        return tuple(vec)

    assert got.terms == {
        mono((0, 0, 0), (0, 0, 1)): Fraction(1),
        mono((1, 0, 0), (0, 0, 1)): Fraction(1, 2),
        mono((0, 0, 0), (1, 0, 1)): Fraction(1, 2),
    }


def test_brute_is_gated_by_length():
    big = LinearCode(F2, 9, ((1,) * 9,))
    with pytest.raises(ValueError):
        brute_avg_jacobi(big, (0,) * 9)
    with pytest.raises(ValueError):
        brute_delta(big, big, (0,) * 9)


def test_brute_averages_charge_the_budget(monkeypatch):
    e8 = get_code("e8")
    w = front_mask(8, 1)
    monkeypatch.setenv("JF_BUDGET", "1000")
    with pytest.raises(BudgetExceeded):
        brute_avg_jacobi(e8, w)
    with pytest.raises(BudgetExceeded):
        brute_avg_joint_jacobi(e8, e8, w)
    with pytest.raises(BudgetExceeded):
        brute_delta(e8, e8, w)
    # the charge n! |C| |D| is known from the sizes before any word exists
    f4 = field_ring(2, 2)
    rows = tuple(tuple(int(i == j) for i in range(8)) for j in range(4))
    code = LinearCode(f4, 8, rows)
    with pytest.raises(BudgetExceeded, match=r"steps over 8! permutations"):
        brute_avg_joint_jacobi(code, code, w)
    assert "words" not in code.__dict__


def test_brute_delta_refuses_before_any_word(monkeypatch):
    big = LinearCode(F2, 9, ((1,) * 9,))
    message = r"^exhaustive averaging is limited to length 8, got 9$"
    with pytest.raises(ValueError, match=message):
        brute_delta(big, big, (0,) * 9)
    code_c, code_d = load_code("e8"), load_code("e8")
    monkeypatch.setenv("JF_BUDGET", str(40320 * 16 - 1))
    message = r"^645120 steps over 8! permutations exceed the budget 645119$"
    with pytest.raises(BudgetExceeded, match=message):
        brute_delta(code_c, code_d, front_mask(8, 1))
    assert "words" not in code_c.__dict__ and "words" not in code_d.__dict__
    monkeypatch.setenv("JF_BUDGET", str(40320 * 16))
    assert brute_delta(code_c, code_d, front_mask(8, 1)) == Fraction(24, 5)


BRUTE_RINGS = (F2, F3, F4, F8, F9, Z4, Z6)


@st.composite
def brute_cases(draw):
    """Two codes of length n <= 6 over one of BRUTE_RINGS, with at most two
    rows each (zero-row codes and zero rows allowed), and a mask with no
    zero, only zeros, or any symbols."""
    ring = draw(st.sampled_from(BRUTE_RINGS))
    q = ring.order
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(tuple)
    code_c = LinearCode(ring, n, tuple(draw(st.lists(row, max_size=2))))
    code_d = LinearCode(ring, n, tuple(draw(st.lists(row, max_size=2))))
    symbols = st.integers(0, q - 1) | st.just(0)
    w = draw(st.lists(symbols, min_size=n, max_size=n))
    shape = draw(st.sampled_from(["any", "any", "only zeros", "no zero"]))
    if shape == "only zeros":
        w = [0] * n
    elif shape == "no zero":
        w = [x or 1 for x in w]
    return code_c, code_d, tuple(w)


@given(brute_cases())
@settings(max_examples=200, deadline=None)
def test_brute_delta_equals_the_literal_sum_over_s_n(case):
    code_c, code_d, w = case
    n = code_c.n
    orders = itertools.permutations(range(n))
    literal = Fraction(sum(_agreements(code_c, code_d, w, orders)), math.factorial(n))
    size_c, size_d = len(code_c.words), len(code_d.words)
    pair_masks = averages._pair_masks
    # a cap of 1 bit gives one word of C per block, 8 bits a few
    for cap in (1, 8, averages.PAIR_MASK_BITS):
        widths = []

        def spy(block, words_d, keep, n):
            masks = pair_masks(block, words_d, keep, n)
            bits = max(m.bit_length() for level in masks for m in level)
            assert bits <= len(block) * len(words_d)
            widths.append(len(block) * len(words_d))
            return masks

        with mock.patch.object(averages, "PAIR_MASK_BITS", cap), mock.patch.object(
            averages, "_pair_masks", spy
        ):
            assert brute_delta(code_c, code_d, w) == literal
        if 0 in w:
            # every block walked once, none wider than the cap or |D|
            assert sum(widths) == size_c * size_d
            assert max(widths) <= max(cap, size_d)
            per_block = max(cap, size_d) // size_d
            assert len(widths) == -(-size_c // per_block)
        else:
            assert widths == []


def test_brute_delta_on_e8_at_every_front_mask():
    e8 = get_code("e8")
    for k in range(9):
        w = front_mask(8, k)
        assert brute_delta(e8, e8, w) == delta_closed(e8, e8, w)


@st.composite
def one_row_cases(draw):
    """Two one-row codes of length n <= 6 over Z_64 or Z_128, whose splits
    the closed form never walks, and a mask of zeros and ones."""
    ring = draw(st.sampled_from((modular_ring(64), modular_ring(128))))
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, ring.order - 1), min_size=n, max_size=n).map(tuple)
    code_c = LinearCode(ring, n, (draw(row),))
    code_d = LinearCode(ring, n, (draw(row),))
    w = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return code_c, code_d, tuple(w)


@given(brute_cases() | one_row_cases())
@settings(max_examples=200, deadline=None)
def test_delta_closed_equals_brute_delta(case):
    code_c, code_d, w = case
    assert delta_closed(code_c, code_d, w) == brute_delta(code_c, code_d, w)


@st.composite
def value_cases(draw):
    """Codes over one of BRUTE_RINGS, n <= 3 over the rings of order 8 and
    9 and n <= 5 otherwise, with a point of small rationals of which about
    a third are zero."""
    ring = draw(st.sampled_from(BRUTE_RINGS))
    q = ring.order
    n = draw(st.integers(1, 3 if q >= 8 else 5))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(tuple)
    code_c = LinearCode(ring, n, tuple(draw(st.lists(row, max_size=2))))
    code_d = LinearCode(ring, n, tuple(draw(st.lists(row, max_size=2))))
    w = tuple(draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
    rng = draw(st.randoms(use_true_random=False))
    point = [
        Fraction(0) if rng.random() < 1 / 3
        else Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        for _ in range(q**3)
    ]
    return code_c, code_d, w, point


@given(value_cases())
@settings(max_examples=150, deadline=None)
def test_streamed_value_equals_the_evaluated_polynomial(case):
    code_c, code_d, w, point = case
    value = avg_joint_jacobi_value(code_c, code_d, w, point)
    assert value == avg_joint_jacobi(code_c, code_d, w).evaluate(point)
    # at the intersection point the sums run in ints and give delta
    at = intersection_point(code_c.ring)
    assert avg_joint_jacobi_value(code_c, code_d, w, at) == delta_closed(code_c, code_d, w)


def test_pair_validation():
    a = LinearCode(F2, 3, ((1, 1, 0),))
    b = LinearCode(F3, 3, ((1, 1, 0),))
    c = LinearCode(F2, 2, ((1, 1),))
    with pytest.raises(ValueError):
        avg_joint_jacobi(a, b, (0, 0, 0))
    with pytest.raises(ValueError):
        avg_joint_jacobi(a, c, (0, 0, 0))
    with pytest.raises(ValueError):
        delta_closed(a, a, (0, 0))
    for call in (lambda: joint_cwe(a, b), lambda: joint_jacobi_table(a, c, (0, 0, 0))):
        with pytest.raises(ValueError, match="codes must share ring and length"):
            call()


@pytest.mark.parametrize(
    "ring,seed",
    [
        (F2, 1),
        (F3, 2),
        (Z4, 3),
        (F4, 4),
        (Z6, 5),
        (F8, 6),
        (F9, 7),
        (Z8, 8),
        (Z12, 9),
    ],
)
def test_closed_forms_match_brute(ring, seed):
    rng = random.Random(seed)
    # the points have their own stream, so the codes are drawn as before
    point_rng = random.Random(seed + 1000)
    q = ring.order
    for n in (2, 3) if q >= 8 else (4, 5):
        code_c = random_code(ring, n, rows=2, rng=rng)
        code_d = random_code(ring, n, rows=1, rng=rng)
        w = random_mask(ring, n, rng)
        assert avg_jacobi(code_c, w) == brute_avg_jacobi(code_c, w)
        joint = avg_joint_jacobi(code_c, code_d, w)
        assert joint == brute_avg_joint_jacobi(code_c, code_d, w)
        assert delta_closed(code_c, code_d, w) == brute_delta(code_c, code_d, w)
        # the streamed value prunes the variables where the point is zero
        point = [
            Fraction(point_rng.randint(-3, 3), point_rng.randint(1, 4))
            for _ in range(q**3)
        ]
        point[point_rng.randrange(q**3)] = Fraction(0)
        assert avg_joint_jacobi_value(code_c, code_d, w, point) == joint.evaluate(point)
        keep = [i for i, m in enumerate(w) if m == 0]
        agreeing = sum(
            all(u[i] == v[i] for i in keep)
            for u in code_c.words
            for v in code_d.words
        )
        assert intersection_size(code_c, code_d, w) == agreeing


def test_closed_forms_charge_their_splits(monkeypatch, tmp_path):
    code = LinearCode(F9, 6, ((1,) * 6,))
    w = (1,) * 6
    point = intersection_point(F9)
    # delta_closed walks no splits: it charges the zero-mask groups of a
    # two-row code times its compositions, 81 * 21 = 1701 composition pairs
    wide = LinearCode(F9, 6, ((1,) * 6, (0, 1, 2, 3, 4, 5)))
    calls = [
        (lambda: avg_jacobi(code, w), "composition splits"),
        (lambda: avg_joint_jacobi(code, code, w), "composition splits"),
        (lambda: avg_joint_jacobi_value(code, code, w, point), "composition splits"),
        (lambda: delta_closed(wide, wide, (0, 0, 0, 0, 1, 1)), "composition pairs"),
    ]
    # the words cost 9 * 6 codeword symbols and no table charges a product;
    # a cell of 6 split over 9 symbols has C(14, 6) = 3003 splits, once for
    # the mask alone and once per word of the fixed code against it
    monkeypatch.setenv("JF_BUDGET", "1000")
    for call, charge in calls:
        with pytest.raises(BudgetExceeded, match=charge):
            call()
    path = tmp_path / "f9.json"
    path.write_text(json.dumps(code_to_json(code)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["avg-joint-jacobi", str(path), str(path), "--w", "111111"])
    assert rc == 2
    assert out.getvalue() == ""
    assert "composition splits exceed the budget 1000" in err.getvalue()
    monkeypatch.setenv("JF_BUDGET", str(9 * 3003))
    for call, _ in calls:
        call()


def test_avg_jacobi_fixed_by_invariant_code_and_mask():
    for ring in (F2, Z4):
        rep = LinearCode(ring, 3, ((1, 1, 1),))
        w = (0, 0, 0)
        from jacweight.enumerators import jacobi

        assert avg_jacobi(rep, w) == jacobi(rep, w)


def test_avg_joint_against_zero_code_collapses_to_avg_jacobi():
    for ring in (F2, Z4):
        code = LinearCode(ring, 3, ((1, 0, 1), (0, 1, 1)))
        zero = LinearCode(ring, 3, ((0, 0, 0),))
        w = (0, 1, 0)
        joint = avg_joint_jacobi(code, zero, w)
        assert collapse(joint, (0, 2)) == avg_jacobi(code, w)


def test_left_slot_permutation_invariance():
    rng = random.Random(17)
    for ring in (F2, Z4):
        code_c = random_code(ring, 5, rows=2, rng=rng)
        code_d = random_code(ring, 5, rows=1, rng=rng)
        w = random_mask(ring, 5, rng)
        sigma = tuple(rng.sample(range(5), 5))
        assert avg_joint_jacobi(code_c.permute(sigma), code_d, w) == avg_joint_jacobi(
            code_c, code_d, w
        )


def test_distribution_sufficiency():
    # both row spans have the same Jacobi table against the zero mask
    d1 = LinearCode(F2, 2, ((1, 0),))
    d2 = LinearCode(F2, 2, ((0, 1),))
    code_c = LinearCode(F2, 2, ((1, 1),))
    w = (0, 0)
    from jacweight.codes import jacobi_table

    assert jacobi_table(d1, w) == jacobi_table(d2, w)
    assert avg_joint_jacobi(code_c, d1, w) == avg_joint_jacobi(code_c, d2, w)


def test_swapping_the_codes_changes_the_average():
    zero = LinearCode(F2, 2, ((0, 0),))
    span = LinearCode(F2, 2, ((1, 0),))
    w = (0, 0)
    assert avg_joint_jacobi(zero, span, w) != avg_joint_jacobi(span, zero, w)


def test_permuting_both_codes_changes_the_average():
    zero = LinearCode(F2, 2, ((0, 0),))
    span = LinearCode(F2, 2, ((1, 0),))
    w = (0, 1)
    sigma = (1, 0)
    moved = avg_joint_jacobi(zero.permute(sigma), span.permute(sigma), w)
    assert moved != avg_joint_jacobi(zero, span, w)


def test_all_ones_evaluations_of_averages():
    code_c = get_code("z4_small")
    code_d = LinearCode(Z4, 3, ((1, 1, 1),))
    w = (0, 1, 2)
    ones2 = all_ones_point(Z4, 2)
    ones3 = all_ones_point(Z4, 3)
    assert brute_avg_jacobi(code_c, w).evaluate(ones2) == code_c.size
    assert avg_jacobi(code_c, w).evaluate(ones2) == code_c.size
    joint = avg_joint_jacobi(code_c, code_d, w)
    assert joint.evaluate(ones3) == code_c.size * code_d.size
    assert avg_joint_jacobi_value(code_c, code_d, w, ones3) == (
        code_c.size * code_d.size
    )


def test_transforms_commute_with_averaging():
    span = LinearCode(F2, 2, ((1, 0),))
    self_dual = LinearCode(F2, 2, ((1, 1),))
    for w in ((0, 0), (0, 1)):
        joint = avg_joint_jacobi(self_dual, self_dual, w)
        assert macwilliams_second(joint, self_dual.size) == joint
    aj = macwilliams_single(avg_jacobi(span, (0, 1)), span.size)
    assert aj == avg_jacobi(span.dual(), (0, 1))
    code_c = LinearCode(F2, 4, ((1, 0, 1, 1), (0, 1, 0, 1)))
    code_d = LinearCode(F2, 4, ((1, 1, 1, 0),))
    w = (0, 1, 0, 0)
    direct = avg_joint_jacobi(code_c, code_d.dual(), w)
    routed = macwilliams_second(avg_joint_jacobi(code_c, code_d, w), code_d.size)
    assert direct == routed


def test_delta_three_routes_on_e8():
    e8 = get_code("e8")
    w = front_mask(8, 2)
    closed = delta_closed(e8, e8, w)
    point = intersection_point(F2)
    expanded = avg_joint_jacobi(e8, e8, w).evaluate(point)
    streamed = avg_joint_jacobi_value(e8, e8, w, point)
    exhaustive = brute_delta(e8, e8, w)
    assert closed == expanded == streamed == exhaustive == Fraction(32, 5)


@pytest.mark.parametrize("pair", REFERENCE_PAIRS, ids=lambda p: f"{p[0]}-{p[1]}")
def test_closed_form_equals_streamed_evaluation(pair):
    code_c = get_code(pair[0])
    code_d = get_code(pair[1])
    point = intersection_point(code_c.ring)
    for k in (1, 2, 3):
        w = front_mask(code_c.n, k)
        assert delta_closed(code_c, code_d, w) == avg_joint_jacobi_value(
            code_c, code_d, w, point
        )


def test_frozen_reference_fractions():
    for (cn, dn, k), expected in FROZEN_DELTAS.items():
        code_c = get_code(cn)
        code_d = get_code(dn)
        value = delta_closed(code_c, code_d, front_mask(code_c.n, k))
        assert value == expected, (cn, dn, k)


def test_printed_table_agreement():
    disagreements = []
    for cn, dn, k, printed in REFERENCE_ROWS:
        value = FROZEN_DELTAS[(cn, dn, k)]
        if not matches_reference(value, printed):
            disagreements.append((cn, dn, k))
    # one reference entry carries corrupted digits; see notes on g24 wt 3
    assert disagreements == [("g24", "g24", 3)]


def test_g24_weight_three_is_twice_weight_one():
    assert FROZEN_DELTAS[("g24", "g24", 3)] == 2 * FROZEN_DELTAS[("g24", "g24", 1)]
    assert FROZEN_DELTAS[("e8", "e8", 3)] == 2 * FROZEN_DELTAS[("e8", "e8", 1)]
    assert (
        FROZEN_DELTAS[("d24plus", "d24plus", 3)]
        == 2 * FROZEN_DELTAS[("d24plus", "d24plus", 1)]
    )


def test_mask_placement_invariance_on_e8():
    e8 = get_code("e8")
    for k in (1, 2):
        values = set()
        import itertools

        for support in itertools.combinations(range(8), k):
            w = tuple(1 if i in support else 0 for i in range(8))
            values.add(delta_closed(e8, e8, w))
        assert len(values) == 1


def test_delta_on_trivial_pair():
    zero = LinearCode(F3, 4, ((0, 0, 0, 0),))
    for k in range(5):
        assert delta_closed(zero, zero, front_mask(4, k)) == 1


def test_monte_carlo_determinism_and_fields():
    e8 = get_code("e8")
    w = front_mask(8, 1)
    a = monte_carlo_delta(e8, e8, w, samples=500, seed=9)
    b = monte_carlo_delta(e8, e8, w, samples=500, seed=9)
    assert a == b
    assert a.method == "mc"
    assert a.samples == 500
    assert a.seed == 9
    assert a.stderr is not None
    assert abs(a.value - 4.8) <= 3 * a.stderr
    with pytest.raises(ValueError):
        monte_carlo_delta(e8, e8, w, samples=0, seed=1)


def test_monte_carlo_all_ones_mask_has_no_variance():
    e8 = get_code("e8")
    res = monte_carlo_delta(e8, e8, (1,) * 8, samples=40, seed=3)
    assert res.value == float(e8.size * e8.size)
    assert res.stderr == 0.0


def test_monte_carlo_python_fallback():
    f9 = field_ring(3, 2)
    zero = LinearCode(f9, 16, ((0,) * 16,))
    res = monte_carlo_delta(zero, zero, (0,) * 16, samples=20, seed=4)
    assert res.value == 1.0
    assert res.stderr == 0.0
    # |K| = 63 is ranked on the shuffles, |K| = 68 counted by span sizes
    for n, k, seed in ((64, 1, 11), (70, 2, 12)):
        rng = random.Random(seed)
        code_c = _even_code(n, 9, rng)
        code_d = _even_code(n, 7, rng)
        w = front_mask(n, k)
        res = monte_carlo_delta(code_c, code_d, w, samples=2000, seed=seed)
        assert res.stderr > 0
        assert abs(res.value - float(delta_closed(code_c, code_d, w))) <= (
            4 * res.stderr
        )


# (ring, n, mask weight, counter, stream) of the sampling loop: F2 ranks on
# either stream while |K| <= 64, span sizes on either stream otherwise
ROUTE_CASES = [
    (F2, 64, 3, "_rank_counter", "numpy"),
    (F2, 64, 2, "_rank_counter", "shuffles"),
    (F2, 64, 0, "_rank_counter", "shuffles"),
    (F2, 70, 2, "_span_counter", "shuffles"),
    (F4, 12, 10, "_span_counter", "numpy"),
    (F4, 40, 0, "_span_counter", "shuffles"),
]


@pytest.mark.parametrize(
    "ring,n,k,counter,stream",
    ROUTE_CASES,
    ids=[f"{r.label()}-K{n - k}" for r, n, k, _, _ in ROUTE_CASES],
)
def test_monte_carlo_routes(monkeypatch, ring, n, k, counter, stream):
    import jacweight.averages as averages

    calls = []

    def spy(name):
        real = getattr(averages, name)

        def counter_spy(*args):
            count = real(*args)

            def spied(perms):
                calls.append((name, type(perms).__name__))
                return count(perms)

            return spied

        return counter_spy

    for name in ("_rank_counter", "_span_counter"):
        monkeypatch.setattr(averages, name, spy(name))
    rng = random.Random(n + k)
    rows = [tuple(rng.randrange(ring.order) for _ in range(n)) for _ in range(2)]
    code = LinearCode(ring, n, tuple(rows))
    monte_carlo_delta(code, code, front_mask(n, k), samples=1030, seed=5)
    kind = "ndarray" if stream == "numpy" else "list"
    # two batches: 1024 samples and 6, each counted once by one counter
    assert [name for name, _ in calls] == [counter, counter]
    assert {t for _, t in calls} == {kind}


# (value, stderr) of monte_carlo_delta as float.hex, for the sampled
# operations of the averages benchmark and acceptance criterion 6
MC_PINS = [
    (("g24", "g24", 1, 4000, 11), ("0x1.7de353f7ced91p+2", "0x1.326598c056a7dp-4")),
    (("g24", "g24", 2, 4000, 12), ("0x1.0147ae147ae14p+3", "0x1.7dde673f1bb8ep-4")),
    (("g24", "g24", 3, 4000, 13), ("0x1.823d70a3d70a4p+3", "0x1.c90720dcfdc3cp-4")),
    (
        ("e8x2", "d16plus", 1, 150000, 14),
        ("0x1.7a8e0c9d9d346p+2", "0x1.910892051ba28p-7"),
    ),
    (
        ("e8x2", "d16plus", 2, 150000, 15),
        ("0x1.f870110a137f4p+2", "0x1.cfa449e10b2cbp-7"),
    ),
    (
        ("d16plus", "d16plus", 3, 150000, 16),
        ("0x1.7a80b93f98e3ep+3", "0x1.18c5b65a915f6p-6"),
    ),
    (("g24", "g24", 1, 100000, 42), ("0x1.802363b256ffcp+2", "0x1.fa442addc4e4fp-7")),
]


@pytest.mark.parametrize("case,pinned", MC_PINS)
def test_monte_carlo_values_are_pinned(case, pinned):
    c, d, k, samples, seed = case
    code_c = get_code(c)
    res = monte_carlo_delta(
        code_c, get_code(d), front_mask(code_c.n, k), samples=samples, seed=seed
    )
    assert (res.value.hex(), res.stderr.hex()) == pinned


def test_binary_counts_build_no_words():
    g24 = load_code("g24")
    w = front_mask(24, 2)
    monte_carlo_delta(g24, g24, w, samples=300, seed=1)
    # distance 8 > 2: two words agreeing on 22 positions are equal
    assert intersection_size(g24, g24, w) == 4096
    assert "words" not in g24.__dict__


def test_sampled_span_sizes_build_no_words():
    """One batch of numpy's stream over F3 counts by span sizes: no word of
    C and no |C| x 1024 table of keys."""
    rng = random.Random(24)
    rows = tuple(tuple(rng.randrange(3) for _ in range(24)) for _ in range(8))
    code_c = LinearCode(F3, 24, rows)
    code_d = LinearCode(F3, 24, rows[:3])
    assert code_c.size == 3**8
    tracemalloc.start()
    try:
        monte_carlo_delta(code_c, code_d, front_mask(24, 4), samples=1024, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20
    assert "words" not in code_c.__dict__ and "words" not in code_d.__dict__


def test_monte_carlo_batches_are_bounded_by_length(monkeypatch):
    """At n = 16384 a batch draws 64 permutations, not 1024 (a 256 MB draw);
    numpy's stream does not depend on the batch size, so a single batch of
    every sample gives the same value and stderr."""
    n = 16384
    rng = random.Random(16384)
    rows = _unpack([rng.getrandbits(n) for _ in range(2)], n)
    code = LinearCode(F2, n, tuple(map(tuple, rows)))
    w = front_mask(n, n - 10)
    tracemalloc.start()
    try:
        monte_carlo_delta(code, code, w, samples=1024, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20
    bounded = monte_carlo_delta(code, code, w, samples=200, seed=3)
    monkeypatch.setattr(averages, "DRAW_ENTRIES", 200 * n)
    single = monte_carlo_delta(code, code, w, samples=200, seed=3)
    assert (bounded.value, bounded.stderr) == (single.value, single.stderr)
    assert bounded.stderr > 0


def test_rank_counter_set_up_is_linear_in_the_length():
    """An 8-row code at n = 200000: packing, reducing and transposing its
    rows once (the set-up was quadratic in n, 8.2 s at n = 160000)."""
    n = 200000
    rng = random.Random(200000)
    rows = tuple(map(tuple, _unpack([rng.getrandbits(n) for _ in range(8)], n)))
    code_c = LinearCode(F2, n, rows)
    code_d = LinearCode(F2, n, rows[:3])
    keep = sorted(rng.sample(range(n), 20))
    start = time.perf_counter()
    count = _rank_counter(code_c, code_d, keep)
    assert time.perf_counter() - start < 2
    assert count([list(range(n))]).tolist() == [2.0**11 / 2**8]


def test_a_shuffled_variance_summed_past_a_float_is_refused():
    """Counts of 2^512 and 2^513 on the shuffles: each squared deviation is a
    float, and their sum is not."""
    n = 582
    units = [tuple(int(j == i) for j in range(n)) for i in range(512)]
    code_c = LinearCode(F2, n, units[:1])
    code_d = LinearCode(F2, n, tuple(units))
    w = front_mask(n, 512)
    with pytest.raises(ValueError, match="^the sampled statistics overflow"):
        monte_carlo_delta(code_c, code_d, w, samples=100, seed=1)


def test_binary_closed_forms_build_no_words():
    """The closed forms read the composition and Jacobi tables, which over a
    ring of order 2 come from the packed words."""
    g24 = load_code("g24")
    w = front_mask(24, 3)
    assert delta_closed(g24, g24, w) == Fraction(50560, 4199)
    assert avg_joint_jacobi_value(g24, g24, w, intersection_point(F2)) == Fraction(
        50560, 4199
    )
    avg_jacobi(g24, w)
    assert "words" not in g24.__dict__


def test_monte_carlo_charges_its_samples(monkeypatch):
    e8 = get_code("e8")
    w = front_mask(8, 1)
    monkeypatch.setenv("JF_BUDGET", "1999")
    with pytest.raises(BudgetExceeded, match="2000 samples exceed the budget 1999"):
        monte_carlo_delta(e8, e8, w, samples=2000, seed=42)
    # the pure-Python route is charged its samples before its span symbols
    wide = _even_code(70, 3, random.Random(0))
    with pytest.raises(BudgetExceeded, match="^2000 samples exceed the budget 1999$"):
        monte_carlo_delta(wide, wide, (0,) * 70, samples=2000, seed=1)
    monkeypatch.setenv("JF_BUDGET", "2000")
    assert monte_carlo_delta(e8, e8, w, samples=2000, seed=42).value == 4.85


def test_span_counter_charges_its_symbols(monkeypatch, tmp_path):
    # two rows each on |K| = 70: 2000 samples * 4 rows * 70 symbols
    wide = _even_code(70, 3, random.Random(0))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(code_to_json(wide)))
    argv = ["delta", str(path), str(path), "--w", "0" * 70, "--method", "mc",
            "--samples", "2000", "--seed", "1"]
    monkeypatch.setenv("JF_BUDGET", "559999")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert (rc, out.getvalue()) == (2, "")
    assert json.loads(err.getvalue()) == {
        "error": "560000 span symbols exceed the budget 559999"
    }
    monkeypatch.setenv("JF_BUDGET", "560000")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0


@st.composite
def binary_cases(draw):
    """Two F2 codes of one length n <= 64, a mask and permutations of range(n).

    The generators may be empty or hold zero rows, repeated rows and sums
    of rows; the mask may have weight 0 or n.
    """
    n = draw(st.integers(1, 64))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)

    def generators():
        rows = draw(st.lists(bits, max_size=4))
        if len(rows) > 1 and draw(st.booleans()):
            rows.append(tuple(a ^ b for a, b in zip(rows[0], rows[1])))
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))
        if draw(st.booleans()):
            rows.append((0,) * n)
        return tuple(draw(st.permutations(rows)))

    code_c = LinearCode(F2, n, generators())
    code_d = LinearCode(F2, n, generators())
    w = draw(st.sampled_from([(0,) * n, (1,) * n]) | bits)
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=6))
    return code_c, code_d, w, perms


@given(binary_cases())
@settings(max_examples=200, deadline=None)
def test_rank_counts_equal_the_agreement_counts(case):
    code_c, code_d, w, perms = case
    keep = [i for i, m in enumerate(w) if m == 0]
    ranked = _rank_counter(code_c, code_d, keep)(np.array(perms, dtype=np.int64))
    assert ranked.tolist() == list(_agreements(code_c, code_d, w, perms))
    identity = [range(code_c.n)]
    assert intersection_size(code_c, code_d, w) == next(
        _agreements(code_c, code_d, w, identity)
    )


# |K| at the byte edges of _rank_counter's reduction tables: none, one
# partial byte, one whole byte, a partial second byte, and the top bytes
RANK_EDGES = (0, 7, 8, 9, 56, 57, 63, 64)


@st.composite
def rank_edge_cases(draw):
    """Two F2 codes of length |K| to |K| + 2 for |K| in RANK_EDGES, a mask
    zero on K, and permutations of range(n).

    C may be empty, and may hold the word that is 1 on every position, set
    at bit 63 of every moved row when |K| = 64.  D's rows either span all
    of K (|K| <= 9, so that the literal counter can list D's words), unit
    rows on K summed into the rows above them, so every C row reduces to 0;
    or they are few and rank-deficient: random rows, unit rows on K (pivots
    in the top byte), a zero row, a repeated row and a sum of two rows.
    """
    s = draw(st.sampled_from(RANK_EDGES))
    n = max(1, s + draw(st.integers(0, 2)))
    keep = set(draw(st.permutations(range(n)))[:s])
    w = tuple(int(i not in keep) for i in range(n))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    units = [tuple(int(i == k) for i in range(n)) for k in sorted(keep)]

    def xor(u, v):
        return tuple(a ^ b for a, b in zip(u, v))

    if s <= 9 and draw(st.booleans()):
        rows_d = units + draw(st.lists(bits, max_size=2))
        for i in reversed(range(len(rows_d) - 1)):
            if draw(st.booleans()):
                rows_d[i] = xor(rows_d[i], rows_d[i + 1])
    else:
        rows_d = draw(st.lists(bits, max_size=3))
        if units:
            rows_d += draw(st.lists(st.sampled_from(units), max_size=2))
        if len(rows_d) > 1 and draw(st.booleans()):
            rows_d.append(xor(rows_d[0], rows_d[1]))
        if rows_d and draw(st.booleans()):
            rows_d.append(draw(st.sampled_from(rows_d)))
        if draw(st.booleans()):
            rows_d.append((0,) * n)
    rows_c = draw(st.lists(bits, max_size=3))
    if draw(st.booleans()):
        rows_c.append((1,) * n)
    code_c = LinearCode(F2, n, tuple(draw(st.permutations(rows_c))))
    code_d = LinearCode(F2, n, tuple(draw(st.permutations(rows_d))))
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=6))
    return code_c, code_d, w, perms


@given(rank_edge_cases())
@settings(max_examples=200, deadline=None)
def test_rank_reduction_at_the_byte_edges(case):
    code_c, code_d, w, perms = case
    keep = [i for i, m in enumerate(w) if m == 0]
    count = _rank_counter(code_c, code_d, keep)
    ranked = count(np.array(perms, dtype=np.int64))
    assert ranked.tolist() == list(_agreements(code_c, code_d, w, perms))
    # the shuffles pass lists of lists
    assert count([list(p) for p in perms]).tolist() == ranked.tolist()


# dim C at the edges of _rank_counter's column dtypes: none, and one below,
# at and one past 8, 16, 32 and 64 bits (object columns past 64)
WIDTH_EDGES = (0, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65)


@st.composite
def width_edge_cases(draw):
    """Two F2 codes of one length n <= 72 with dim C in WIDTH_EDGES, a mask
    with 0 <= |K| <= 64 zeros, and permutations of range(n).

    C's rows are dim C independent rows, each the only one with a 1 at a
    position of its own, mixed with a sum of two of them, a repeated row
    and a zero row.  D has up to six random rows, and may be rank-deficient
    by a sum of two rows, a repeated row and a zero row.  The bits and the
    permutations come from a seeded random.Random: 65 rows of 72 bits, and
    four orders of 72 positions, are past what hypothesis draws one by one.
    """
    rnd = draw(st.randoms(use_true_random=True))
    dim = draw(st.sampled_from(WIDTH_EDGES))
    n = draw(st.integers(max(1, dim), 72))
    s = draw(st.sampled_from([0, min(n, 64)]) | st.integers(0, min(n, 64)))
    density = draw(st.sampled_from([0.1, 0.5]))

    def bits():
        return [int(rnd.random() < density) for _ in range(n)]

    def dependents(rows):
        if len(rows) > 1 and draw(st.booleans()):
            rows.append(tuple(a ^ b for a, b in zip(rows[0], rows[1])))
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))
        if draw(st.booleans()):
            rows.append((0,) * n)
        rnd.shuffle(rows)
        return tuple(rows)

    own = rnd.sample(range(n), dim)
    rows_c = []
    for i in own:
        row = bits()
        for j in own:
            row[j] = int(j == i)
        rows_c.append(tuple(row))
    code_c = LinearCode(F2, n, dependents(rows_c))
    rows_d = [tuple(bits()) for _ in range(draw(st.integers(0, 6)))]
    code_d = LinearCode(F2, n, dependents(rows_d))
    keep = set(rnd.sample(range(n), s))
    w = tuple(int(i not in keep) for i in range(n))
    perms = [rnd.sample(range(n), n) for _ in range(draw(st.integers(1, 4)))]
    return code_c, code_d, w, perms


@given(width_edge_cases())
@settings(max_examples=100, deadline=None)
def test_rank_counts_at_the_column_width_edges(case):
    code_c, code_d, w, perms = case
    keep = [i for i, m in enumerate(w) if m == 0]
    count = _rank_counter(code_c, code_d, keep)
    ranked = count(np.array(perms, dtype=np.int64)).tolist()
    assert count([list(p) for p in perms]).tolist() == ranked
    assert ranked == _span_counter(code_c, code_d, keep)(perms)
    if code_c.size * code_d.size <= 1 << 16:
        assert ranked == list(_agreements(code_c, code_d, w, perms))


SPAN_RINGS = (F2, F3, F4, F8, F9, Z4, Z6, Z8)


@st.composite
def span_cases(draw):
    """Two codes of one length n <= 70 over one of SPAN_RINGS, a mask with
    any number |K| of zeros from 0 to n, and permutations of range(n).

    The generators may be empty or hold zero rows, repeated rows and
    multiples of a row, zero divisors among the multipliers over Z_k (such
    as 2 times a row over Z4).  The permutations are lists, as the shuffles
    pass them, or an ndarray, as numpy's stream does."""
    ring = draw(st.sampled_from(SPAN_RINGS))
    q = ring.order
    n = draw(st.integers(1, 70))
    symbols = st.integers(0, q - 1)
    row = st.lists(symbols, min_size=n, max_size=n).map(tuple)

    def generators():
        rows = draw(st.lists(row, max_size=3))
        if rows and draw(st.booleans()):
            c, u = draw(symbols), draw(st.sampled_from(rows))
            rows.append(tuple(ring.mul_table[c][x] for x in u))
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))
        if draw(st.booleans()):
            rows.append((0,) * n)
        return tuple(draw(st.permutations(rows)))

    code_c = LinearCode(ring, n, generators())
    code_d = LinearCode(ring, n, generators())
    s = draw(st.sampled_from([0, n]) | st.integers(0, n))
    zeros = set(draw(st.permutations(range(n)))[:s])
    w = tuple(0 if i in zeros else draw(st.integers(1, q - 1)) for i in range(n))
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    if draw(st.booleans()):
        perms = np.array(perms, dtype=np.int64)
    return code_c, code_d, w, perms


def _small_support_code(ring, n, rng, rows):
    """rows, two rows of small support, a zero row and a repeated row, so
    that words of two such codes often agree."""
    rows = list(rows)
    for _ in range(2):
        row = [0] * n
        for i in rng.sample(range(n), 3):
            row[i] = rng.randrange(1, ring.order)
        rows.append(tuple(row))
    rows += [(0,) * n, rows[-1]]
    rng.shuffle(rows)
    return LinearCode(ring, n, tuple(rows))


# (band, ring, n, mask weight) on numpy's stream off F2, by q^|K|: up to
# 2^24 ("table"), below 2^53 ("sorted") and from there to the stream's
# limit of 2^62 ("int64")
WIDE_CASES = [
    ("table", F3, 12, 2),
    ("table", F4, 11, 1),
    ("table", F9, 9, 2),
    ("table", Z4, 10, 0),
    ("table", Z6, 10, 1),
    ("sorted", F3, 24, 3),
    ("sorted", F9, 15, 1),
    ("sorted", Z6, 18, 2),
    ("sorted", F8, 12, 2),
    ("int64", F4, 30, 2),
    ("int64", Z4, 29, 1),
    ("int64", F8, 21, 1),
    ("int64", F8, 20, 2),
]


@pytest.mark.parametrize(
    "band,ring,n,k",
    WIDE_CASES,
    ids=[f"{b}-{r.label()}-{n}-{k}" for b, r, n, k in WIDE_CASES],
)
def test_key_counts_equal_the_agreement_counts(band, ring, n, k):
    """_span_counter on numpy's stream against the literal counter, with
    q^|K| in each band.  Two codes share a row of small support and take
    13 permutations, the identity first.  C holds the all-ones word and D
    that word with a 2 at the first position of K."""
    q = ring.order
    s = n - k
    assert band == (
        "table" if q**s <= 2**24 else "sorted" if q**s < 2**53 else "int64"
    )
    assert s * (q - 1).bit_length() <= 62 and q**s < 2**62
    rng = random.Random(q * 1000 + n)
    w = [0] * n
    for i in rng.sample(range(n), k):
        w[i] = rng.randrange(1, q)
    keep = [i for i, m in enumerate(w) if m == 0]
    tweaked = [1] * n
    tweaked[keep[0]] = 2
    code_c = _small_support_code(ring, n, rng, [(1,) * n])
    shared = next(g for g in code_c.generators if 0 < sum(map(bool, g)) < n)
    code_d = _small_support_code(ring, n, rng, [shared, tuple(tweaked)])
    perms = [list(range(n))] + [rng.sample(range(n), n) for _ in range(12)]
    counts = _span_counter(code_c, code_d, keep)(np.array(perms, dtype=np.int64))
    agreeing = list(_agreements(code_c, code_d, w, perms))
    assert counts == agreeing
    # the shared row's multiples agree under the identity
    assert agreeing[0] >= q and len(set(agreeing)) > 1


@given(span_cases())
@settings(max_examples=200, deadline=None)
def test_span_counts_equal_the_agreement_counts(case):
    code_c, code_d, w, perms = case
    keep = [i for i, m in enumerate(w) if m == 0]
    counts = _span_counter(code_c, code_d, keep)(perms)
    assert counts == list(_agreements(code_c, code_d, w, perms))
    identity = [range(code_c.n)]
    assert intersection_size(code_c, code_d, w) == next(
        _agreements(code_c, code_d, w, identity)
    )


def _even_code(n, size, rng):
    """The even-weight words on a random support of the given size."""
    a, *rest = rng.sample(range(n), size)
    return LinearCode(
        F2, n, tuple(tuple(int(i in (a, b)) for i in range(n)) for b in rest)
    )


# (value, stderr) as float.hex of F2 pairs whose kept positions |K| = n - k
# pass 61, where the samples are random.Random(seed) shuffles: ranked in
# int64 rows up to |K| = 64 (bit 63 the sign bit), counted by span sizes above
FALLBACK_PINS = [
    ((64, 2, 62), ("0x1.4bc6a7ef9db23p+0", "0x1.53b2639a18645p-6")),
    ((64, 1, 63), ("0x1.374bc6a7ef9dbp+0", "0x1.ff906c9ffaf10p-7")),
    ((64, 0, 64), ("0x1.392c5f92c5f93p+0", "0x1.055c76cc65c8ap-6")),
    ((70, 2, 68), ("0x1.32dbd194237fbp+0", "0x1.c8b68e5eea288p-7")),
]


@pytest.mark.parametrize("case,pinned", FALLBACK_PINS)
def test_monte_carlo_fallback_values_are_pinned(case, pinned):
    n, k, seed = case
    rng = random.Random(seed)
    code_c = _even_code(n, 8, rng)
    code_d = _even_code(n, 6, rng)
    res = monte_carlo_delta(code_c, code_d, front_mask(n, k), samples=1500, seed=seed)
    assert (res.value.hex(), res.stderr.hex()) == pinned
    # the shuffles rank or take span sizes, and build no word
    assert "words" not in code_c.__dict__ and "words" not in code_d.__dict__


def test_wide_monte_carlo_over_f4_builds_no_words():
    rng = random.Random(40)
    rows = tuple(tuple(rng.randrange(4) for _ in range(40)) for _ in range(3))
    code_c = LinearCode(F4, 40, rows)
    code_d = LinearCode(F4, 40, rows[:2])
    w = front_mask(40, 0)
    res = monte_carlo_delta(code_c, code_d, w, samples=50, seed=7)
    assert "words" not in code_c.__dict__ and "words" not in code_d.__dict__
    # the same shuffles, counted by the literal counter, give the same mean
    shuffles = random.Random(7)
    order = list(range(40))
    perms = [shuffles.shuffle(order) or list(order) for _ in range(50)]
    assert res.value == sum(_agreements(code_c, code_d, w, perms)) / 50


def test_delta_dispatcher():
    e8 = get_code("e8")
    w = front_mask(8, 1)
    closed = delta(e8, e8, w)
    assert closed == AverageResult(value=Fraction(24, 5), method="closed")
    brute = delta(e8, e8, w, method="brute")
    assert brute.value == Fraction(24, 5)
    assert brute.method == "brute"
    mc = delta(e8, e8, w, method="mc", samples=200, seed=1)
    assert mc.samples == 200
    with pytest.raises(ValueError):
        delta(e8, e8, w, method="guess")


@pytest.mark.parametrize("mask", [(0, -1), (0, 2), (2, 0)])
def test_averages_reject_mask_symbols_out_of_range(mask):
    code = LinearCode(F2, 2, ((1, 0),))
    calls = [
        lambda: avg_jacobi(code, mask),
        lambda: avg_joint_jacobi(code, code, mask),
        lambda: avg_joint_jacobi_value(code, code, mask, intersection_point(F2)),
        lambda: delta_closed(code, code, mask),
        lambda: brute_delta(code, code, mask),
        lambda: brute_avg_jacobi(code, mask),
        lambda: intersection_size(code, code, mask),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="out of range"):
            call()
