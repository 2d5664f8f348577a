import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import get_code, random_code, random_mask
from jacweight.averages import all_ones_point
from jacweight.codes import BudgetExceeded, LinearCode
from jacweight.enumerators import (
    _macwilliams,
    collapse,
    cwe,
    cwe_genus,
    jacobi,
    joint_cwe,
    joint_jacobi,
    macwilliams_both,
    macwilliams_first,
    macwilliams_second,
    macwilliams_single,
)
from jacweight.exactnum import Cyclotomic
from jacweight.polynomials import SparsePolynomial
from jacweight.rings import field_ring, modular_ring

F2 = field_ring(2)
F3 = field_ring(3)
F4 = field_ring(2, 2)
F8 = field_ring(2, 3)
F9 = field_ring(3, 2)
Z4 = modular_ring(4)
Z6 = modular_ring(6)
Z8 = modular_ring(8)
Z12 = modular_ring(12)


def ring_cases(*cases):
    """Test parameters led by a ring and named by its label."""
    return [pytest.param(*case, id=case[0].label()) for case in cases]


def test_cwe_e8_golden():
    p = cwe(get_code("e8"))
    assert p.terms == {
        (8, 0): Fraction(1),
        (4, 4): Fraction(14),
        (0, 8): Fraction(1),
    }
    assert p.render_text() == (
        "1 * x_(1)^8 + 14 * x_(0)^4 x_(1)^4 + 1 * x_(0)^8"
    )


def test_cwe_repetition_over_f3():
    code = LinearCode(F3, 2, ((1, 1),))
    p = cwe(code)
    assert p.terms == {
        (2, 0, 0): Fraction(1),
        (0, 2, 0): Fraction(1),
        (0, 0, 2): Fraction(1),
    }


@pytest.mark.parametrize("name", ["e8", "z4_small", "f4_small"])
def test_all_ones_evaluations(name):
    code = get_code(name)
    ring = code.ring
    size = Fraction(code.size)
    assert cwe(code).evaluate(all_ones_point(ring, 1)) == size
    w = tuple(1 if i == 0 else 0 for i in range(code.n))
    assert jacobi(code, w).evaluate(all_ones_point(ring, 2)) == size
    assert joint_cwe(code, code).evaluate(all_ones_point(ring, 2)) == size * size
    assert joint_jacobi(code, code, w).evaluate(all_ones_point(ring, 3)) == size * size


def test_enumerators_are_homogeneous_of_degree_n():
    for name in ("e8", "z4_small", "f4_small"):
        code = get_code(name)
        w = (1,) + (0,) * (code.n - 1)
        assert cwe(code).total_degree() == code.n
        assert jacobi(code, w).total_degree() == code.n
        assert joint_jacobi(code, code, w).total_degree() == code.n


def test_genus_one_is_plain_cwe():
    for name in ("e8", "z4_small"):
        code = get_code(name)
        assert cwe_genus(code, 1) == cwe(code)


def test_genus_two_matches_joint_with_itself():
    e8 = get_code("e8")
    assert cwe_genus(e8, 2) == joint_cwe(e8, e8)


def test_genus_must_be_positive():
    e8 = get_code("e8")
    with pytest.raises(ValueError):
        cwe_genus(e8, 0)


def test_joint_cwe_is_sum_of_jacobi_rows():
    rng = random.Random(11)
    for ring in (F2, F3, F4, Z4):
        code_c = random_code(ring, 3, rows=1, rng=rng)
        code_d = random_code(ring, 3, rows=2, rng=rng)
        total = None
        for v in code_d.words:
            piece = jacobi(code_c, v)
            total = piece if total is None else total + piece
        assert total == joint_cwe(code_c, code_d)


def test_collapse_chain():
    code_c = get_code("z4_small")
    code_d = LinearCode(Z4, 3, ((1, 1, 1),))
    w = (0, 2, 1)
    jj = joint_jacobi(code_c, code_d, w)
    assert collapse(jj, (0, 1)) == joint_cwe(code_c, code_d)
    assert collapse(jj, (0, 2)) == jacobi(code_c, w).scale(code_d.size)
    assert collapse(jj, (1, 2)) == jacobi(code_d, w).scale(code_c.size)
    assert collapse(jacobi(code_c, w), (0,)) == cwe(code_c)
    assert collapse(jj, (0,)) == cwe(code_c).scale(code_d.size)


def test_collapse_against_zero_code():
    code_d = get_code("f4_small")
    zero = LinearCode(F4, 4, ((0, 0, 0, 0),))
    w = (1, 0, 0, 2)
    jj = joint_jacobi(zero, code_d, w)
    assert collapse(jj, (1, 2)) == jacobi(code_d, w)


def test_collapse_validates_slots():
    p = jacobi(get_code("e8"), (1,) + (0,) * 7)
    with pytest.raises(ValueError):
        collapse(p, ())
    with pytest.raises(ValueError):
        collapse(p, (0, 0))
    with pytest.raises(ValueError):
        collapse(p, (0, 2))


def test_macwilliams_single_on_self_dual_code():
    e8 = get_code("e8")
    w = (1, 1, 0, 0, 0, 0, 0, 0)
    p = jacobi(e8, w)
    assert macwilliams_single(p, e8.size) == p


@pytest.mark.parametrize(
    "ring, n, rows",
    ring_cases(
        (F2, 4, 2), (F3, 4, 2), (F4, 4, 2), (Z4, 4, 2),
        (F8, 3, 2), (F9, 3, 1), (Z6, 3, 2),
    ),
)
def test_macwilliams_single_matches_dual_enumeration(ring, n, rows):
    rng = random.Random(ring.order)
    code = random_code(ring, n, rows=rows, rng=rng)
    w = random_mask(ring, n, rng)
    lhs = macwilliams_single(jacobi(code, w), code.size)
    assert lhs == jacobi(code.dual(), w)
    assert all(isinstance(c, Fraction) for c in lhs.terms.values())


@pytest.mark.parametrize(
    "ring, n, rows_d",
    ring_cases(
        (F2, 3, 2), (F3, 3, 2), (F4, 3, 2), (Z4, 3, 2),
        (F8, 3, 1), (F9, 2, 1), (Z6, 3, 1),
    ),
)
def test_macwilliams_joint_three_sides(ring, n, rows_d):
    rng = random.Random(100 + ring.order)
    code_c = random_code(ring, n, rows=1, rng=rng)
    code_d = random_code(ring, n, rows=rows_d, rng=rng)
    w = random_mask(ring, n, rng)
    base = joint_jacobi(code_c, code_d, w)
    assert macwilliams_first(base, code_c.size) == joint_jacobi(
        code_c.dual(), code_d, w
    )
    assert macwilliams_second(base, code_d.size) == joint_jacobi(
        code_c, code_d.dual(), w
    )
    both = macwilliams_both(base, code_c.size, code_d.size)
    assert both == joint_jacobi(code_c.dual(), code_d.dual(), w)
    assert all(isinstance(c, Fraction) for c in both.terms.values())


@st.composite
def unreached_ring_pairs(draw):
    """(C, D, w) over F8, F9, Z6 or Z8, rings no benchmark transform meets:
    n <= 3 (n <= 2 over F9), one or two generator rows each, which may
    repeat or be zero (over Z_k the codes need not be free), and any mask."""
    ring = draw(st.sampled_from((F8, F9, Z6, Z8)))
    n = draw(st.integers(1, 3 if ring.order < 9 else 2))
    row = st.lists(st.integers(0, ring.order - 1), min_size=n, max_size=n)
    rows = st.lists(row.map(tuple), min_size=1, max_size=2).map(tuple)
    w = tuple(draw(row))
    return LinearCode(ring, n, draw(rows)), LinearCode(ring, n, draw(rows)), w


@given(unreached_ring_pairs())
@settings(max_examples=30, deadline=None)
def test_macwilliams_sides_give_the_duals_enumerators(case):
    code_c, code_d, w = case
    base = joint_jacobi(code_c, code_d, w)
    dual_c, dual_d = code_c.dual(), code_d.dual()
    assert macwilliams_first(base, code_c.size) == joint_jacobi(dual_c, code_d, w)
    assert macwilliams_second(base, code_d.size) == joint_jacobi(code_c, dual_d, w)
    both = macwilliams_both(base, code_c.size, code_d.size)
    assert both == joint_jacobi(dual_c, dual_d, w)


def test_macwilliams_involution():
    code = LinearCode(F2, 3, ((1, 1, 0),))
    w = (0, 0, 1)
    p = joint_jacobi(code, code, w)
    twice = macwilliams_first(
        macwilliams_first(p, code.size), code.dual().size
    )
    assert twice == p


def test_macwilliams_arity_checks():
    e8 = get_code("e8")
    p = cwe(e8)
    with pytest.raises(ValueError):
        macwilliams_single(p, e8.size)
    with pytest.raises(ValueError):
        macwilliams_first(p, e8.size)


def test_genus_budget_gate(monkeypatch):
    # the words cost 16 * 8 = 128 codeword symbols, the triples 16**3
    monkeypatch.setenv("JF_BUDGET", "1000")
    e8 = get_code("e8")
    with pytest.raises(BudgetExceeded, match="tuples of codewords"):
        cwe_genus(LinearCode(F2, 8, e8.generators), 3)


def test_joint_budget_gate(monkeypatch):
    # the words cost 8 * 3 and 4 * 3 codeword symbols, the pairs 8 * 4
    monkeypatch.setenv("JF_BUDGET", "30")
    a = LinearCode(F2, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    b = LinearCode(F2, 3, ((1, 1, 1), (1, 0, 1)))
    with pytest.raises(BudgetExceeded, match="tuples of codewords"):
        joint_cwe(a, b)


def generic_transform(poly, slot, size):
    """Oracle for _macwilliams by plain substitution.

    Each x_s becomes sum_b chi(s[slot] b) x_(s with b in slot); the
    result is scaled by 1/size.
    """
    ring = poly.ring
    rules = {}
    for v in {v for key in poly.terms for v, e in enumerate(key) if e}:
        s = poly.var_tuple(v)
        image = {}
        for b in ring.elements:
            exps = [0] * poly.nvars
            exps[poly.var_index(s[:slot] + (b,) + s[slot + 1:])] = 1
            image[tuple(exps)] = ring.chi(ring.mul(s[slot], b))
        rules[v] = SparsePolynomial(ring, poly.arity, image)
    return poly.substitute(rules).scale(Fraction(1, size))


fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def transform_cases(draw, ring):
    """(poly, slot, size): a random polynomial that is not an enumerator.

    Its coefficients are Fractions and Cyclotomics with fractional parts,
    of the ring's root order, or of order 3 to 5 when the ring's
    characters are rational.
    """
    arity = draw(st.sampled_from((2, 3)))
    nvars = ring.order**arity
    m = ring.root_order if ring.root_order > 2 else draw(st.integers(3, 5))
    scalars = st.one_of(
        fractions,
        st.builds(
            lambda cs: Cyclotomic(m, cs), st.lists(fractions, min_size=1, max_size=5)
        ),
    )
    max_degree = 3 if nvars <= 64 else 2
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        exps = [0] * nvars
        for _ in range(draw(st.integers(1, max_degree))):
            exps[draw(st.integers(0, nvars - 1))] += 1
        terms[tuple(exps)] = draw(scalars)
    sizes = st.builds(Fraction, st.integers(1, 30), st.integers(1, 7))
    size = draw(st.one_of(st.integers(1, 30), sizes))
    return SparsePolynomial(ring, arity, terms), draw(st.integers(0, arity - 1)), size


@pytest.mark.parametrize(
    "ring", ring_cases((F2,), (F3,), (F4,), (F8,), (F9,), (Z4,), (Z6,), (Z8,), (Z12,))
)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_macwilliams_matches_generic_substitution(ring, data):
    poly, slot, size = data.draw(transform_cases(ring))
    assert _macwilliams(poly, slot, size) == generic_transform(poly, slot, size)


def test_transform_term_budget_gate(monkeypatch):
    # the words cost 2 * 8 and 4 * 8 codeword symbols and the table 2 * 4
    # tuples; the group images charge at most 40 steps.  The polynomial has
    # six terms, one per u in C and v in {0, half, 1} (the two halves of D
    # give one term, of coefficient 2).  Slot 0's groups are the (v_i, w_i)
    # = (0 0), (0 1), (1 0), (1 1) in that order, and each term has group
    # exponents (4, 0) or (0, 4) (images of 5 terms), (2, 0) or (0, 2) (3
    # terms) or none (1 term).  The steps form 2 * (5 + 3 + 1) = 18 and
    # 2 * (25 + 9 + 1) = 70 terms; then the images of v = 0 for u = 0 and
    # u = 1 merge into 13 of their 50 terms, so the last two steps form
    # 13 + 2 * (27 + 5) = 77 and 13 + 2 * (81 + 25) = 225.
    code_c = LinearCode(F2, 8, ((1,) * 8,))
    code_d = LinearCode(F2, 8, ((1,) * 4 + (0,) * 4, (0,) * 4 + (1,) * 4))
    monkeypatch.setenv("JF_BUDGET", "60")
    p = joint_jacobi(code_c, code_d, (0, 1) * 4)
    with pytest.raises(BudgetExceeded, match="^70 transform terms exceed"):
        _macwilliams(p, 0, code_c.size)


def test_group_image_budget_gate(monkeypatch):
    # the words cost 3 * 6 codeword symbols and the table 3 tuples; the
    # image (x_0 + x_1 + x_2)^6 of x_(0 0)^6 takes 6 products of at most
    # 28 terms by 3 terms
    code = LinearCode(F3, 6, ((1,) * 6,))
    monkeypatch.setenv("JF_BUDGET", "100")
    p = jacobi(code, (0,) * 6)
    with pytest.raises(BudgetExceeded, match="^504 group image steps exceed"):
        _macwilliams(p, 0, code.size)
