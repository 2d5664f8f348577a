from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacweight.exactnum import root_of_unity
from jacweight.polynomials import SparsePolynomial
from jacweight.rings import field_ring, modular_ring

F2 = field_ring(2)
F3 = field_ring(3)
Z4 = modular_ring(4)


def test_variable_indexing_roundtrip():
    p = SparsePolynomial.zero(F3, 2)
    assert p.nvars == 9
    assert p.var_index((1, 2)) == 5
    assert p.var_tuple(5) == (1, 2)
    for idx in range(p.nvars):
        assert p.var_index(p.var_tuple(idx)) == idx


def test_variable_index_validation():
    p = SparsePolynomial.zero(F3, 2)
    with pytest.raises(ValueError):
        p.var_index((1, 3))
    with pytest.raises(ValueError):
        p.var_index((1,))


def test_constructors():
    zero = SparsePolynomial.zero(F2, 1)
    assert not zero
    assert zero.render_text() == "0"
    const = SparsePolynomial.constant(F2, 1, Fraction(3, 2))
    assert const.terms == {(0, 0): Fraction(3, 2)}
    var = SparsePolynomial.variable(F2, 1, 1)
    assert var.terms == {(0, 1): Fraction(1)}


def test_zero_coefficients_are_dropped():
    p = SparsePolynomial(F2, 1, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert p.terms == {(0, 1): Fraction(2)}
    q = SparsePolynomial.variable(F2, 1, 0)
    assert not (q - q)
    assert (q - q).terms == {}


@pytest.mark.parametrize(
    "key",
    [(-1, 2), (0, -3), (1.5, 0), (2.0, 0), (Fraction(1), 0), ("1", 0), (None, 1), (2**64, 0)],
)
def test_exponents_must_be_nonnegative_ints(key):
    with pytest.raises(ValueError, match="exponents must be ints"):
        SparsePolynomial(F2, 1, {key: Fraction(1), (0, 1): Fraction(3)})


@pytest.mark.parametrize("key", [(True, 0), (0, False)])
def test_bool_exponents_are_refused(key):
    with pytest.raises(ValueError, match="exponents must be ints"):
        SparsePolynomial(F2, 1, {key: Fraction(1), (0, 1): Fraction(3)})


def test_arithmetic_small():
    x0 = SparsePolynomial.variable(F2, 1, 0)
    x1 = SparsePolynomial.variable(F2, 1, 1)
    p = (x0 + x1) * (x0 + x1)
    assert p.terms == {
        (2, 0): Fraction(1),
        (1, 1): Fraction(2),
        (0, 2): Fraction(1),
    }
    assert p.scale(Fraction(1, 2)).terms[(1, 1)] == Fraction(1)
    assert (p - p).terms == {}
    assert -x0 + x0 == SparsePolynomial.zero(F2, 1)


def test_mixed_ring_or_arity_rejected():
    a = SparsePolynomial.variable(F2, 1, 0)
    b = SparsePolynomial.variable(F3, 1, 0)
    c = SparsePolynomial.variable(F2, 2, 0)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * c


def test_total_degree():
    x0 = SparsePolynomial.variable(F2, 1, 0)
    x1 = SparsePolynomial.variable(F2, 1, 1)
    assert (x0 * x0 + x0 * x1).total_degree() == 2
    assert (x0 + x0 * x1).total_degree() is None
    assert SparsePolynomial.zero(F2, 1).total_degree() is None


def test_substitute_identity():
    x0 = SparsePolynomial.variable(Z4, 1, 0)
    x2 = SparsePolynomial.variable(Z4, 1, 2)
    p = x0 * x0 * x2 + x2.scale(Fraction(5, 3))
    rules = {i: SparsePolynomial.variable(Z4, 1, i) for i in range(4)}
    assert p.substitute(rules) == p


def test_substitute_missing_rule_for_occurring_variable():
    x0 = SparsePolynomial.variable(F2, 1, 0)
    x1 = SparsePolynomial.variable(F2, 1, 1)
    p = x0 * x1
    with pytest.raises(ValueError):
        p.substitute({0: x0})


def test_substitute_then_evaluate_matches_direct():
    x0 = SparsePolynomial.variable(F2, 1, 0)
    x1 = SparsePolynomial.variable(F2, 1, 1)
    p = x0 * x0 + x0 * x1.scale(3)
    # x_0 -> x_0 + x_1, x_1 -> 2 x_1
    rules = {0: x0 + x1, 1: x1.scale(2)}
    point = (Fraction(2), Fraction(5))
    direct = p.substitute(rules).evaluate(point)
    s0 = point[0] + point[1]
    s1 = 2 * point[1]
    assert direct == s0 * s0 + 3 * s0 * s1


def test_evaluate_length_check_and_zero_shortcut():
    x0 = SparsePolynomial.variable(F2, 1, 0)
    x1 = SparsePolynomial.variable(F2, 1, 1)
    p = x0 * x1 + x1 * x1
    with pytest.raises(ValueError):
        p.evaluate((Fraction(1),))
    assert p.evaluate((Fraction(0), Fraction(3))) == Fraction(9)


def test_evaluate_with_cyclotomic_coefficients():
    z = root_of_unity(4)
    p = SparsePolynomial.variable(Z4, 1, 1).scale(z)
    val = p.evaluate((Fraction(0), Fraction(2), Fraction(0), Fraction(0)))
    assert val == 2 * z


def test_canonical_items_sorted():
    p = SparsePolynomial(
        F2,
        1,
        {(0, 2): Fraction(1), (2, 0): Fraction(1), (1, 1): Fraction(4)},
    )
    keys = [k for k, _ in p.canonical_items()]
    assert keys == sorted(keys)


def test_render_text_golden():
    x0 = SparsePolynomial.variable(F2, 1, 0)
    x1 = SparsePolynomial.variable(F2, 1, 1)
    p = x0 * x0 + (x0 * x1).scale(Fraction(1, 2))
    assert p.render_text() == "1/2 * x_(0)^1 x_(1)^1 + 1 * x_(0)^2"
    joint = SparsePolynomial.variable(F2, 2, 3)
    assert joint.render_text() == "1 * x_(1 1)^1"
    c = SparsePolynomial.constant(F2, 1, Fraction(5))
    assert c.render_text() == "5"


def test_to_json_obj_golden():
    x0 = SparsePolynomial.variable(F3, 2, 0)
    x5 = SparsePolynomial.variable(F3, 2, 5)
    p = (x0 * x5).scale(Fraction(3, 4))
    assert p.to_json_obj() == [
        {"exps": {"(0,0)": 1, "(1,2)": 1}, "coeff": "3/4"}
    ]


def test_hash_is_disabled():
    p = SparsePolynomial.variable(F2, 1, 0)
    with pytest.raises(TypeError):
        hash(p)


monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(
    monomials, st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=4
).map(lambda d: SparsePolynomial(F2, 1, d))


@given(polys, polys, polys)
@settings(max_examples=40, deadline=None)
def test_polynomial_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + SparsePolynomial.zero(F2, 1) == a


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_evaluation_is_a_homomorphism(a, b):
    point = (Fraction(2, 3), Fraction(-1, 2))
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
