from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacweight.exactnum import (
    Cyclotomic,
    CyclotomicResidues,
    NonRationalValue,
    cyclo_text,
    cyclotomic_poly,
    fraction_str,
    integer_coefficients,
    root_of_unity,
    scalar_to_json,
    scalar_text,
    simplify,
    to_rational,
    unit_top,
)


@pytest.mark.parametrize(
    "m,coeffs",
    [
        (1, (-1, 1)),
        (2, (1, 1)),
        (3, (1, 1, 1)),
        (4, (1, 0, 1)),
        (6, (1, -1, 1)),
        (8, (1, 0, 0, 0, 1)),
        (12, (1, 0, -1, 0, 1)),
    ],
)
def test_cyclotomic_poly_values(m, coeffs):
    assert cyclotomic_poly(m) == coeffs


def test_cyclotomic_poly_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 12])
def test_full_cycle_sums_to_zero(m):
    total = sum(root_of_unity(m, j) for j in range(m))
    assert total == Fraction(0)


def test_root_of_unity_low_orders_are_rational():
    assert root_of_unity(1, 0) == Fraction(1)
    assert root_of_unity(2, 1) == Fraction(-1)
    assert isinstance(root_of_unity(2, 1), Fraction)
    assert isinstance(root_of_unity(4, 1), Cyclotomic)


def test_powers_wrap_around():
    z = root_of_unity(4)
    assert z**4 == Fraction(1)
    assert z**2 == Fraction(-1)
    assert z * z * z * z == 1
    assert root_of_unity(8, 4) == Fraction(-1)


def test_difference_of_squares_collapses():
    z = root_of_unity(4)
    assert (1 + z) * (1 - z) == Fraction(2)


def test_rational_division():
    z = root_of_unity(4)
    half = z / 2
    assert half + half == z
    with pytest.raises(TypeError):
        z / z


def test_mixed_orders_raise():
    with pytest.raises(ValueError):
        root_of_unity(4) + root_of_unity(3)
    with pytest.raises(ValueError):
        root_of_unity(4) * root_of_unity(8)


def test_mixed_order_equality_of_rationals():
    a = Cyclotomic(4, (Fraction(5),))
    b = Cyclotomic(8, (Fraction(5),))
    assert a == b
    assert a == Fraction(5)
    assert hash(a) == hash(Fraction(5))
    assert root_of_unity(4) != root_of_unity(8)


def test_simplify_and_to_rational():
    assert simplify(3) == Fraction(3)
    assert isinstance(simplify(Cyclotomic(4, (Fraction(2),))), Fraction)
    z = root_of_unity(4)
    assert simplify(z) is z
    assert to_rational(z**2) == Fraction(-1)
    with pytest.raises(NonRationalValue):
        to_rational(z)
    with pytest.raises(TypeError):
        to_rational("7")


def test_serialization_shapes():
    assert fraction_str(Fraction(3)) == "3/1"
    assert fraction_str(Fraction(-2, 6)) == "-1/3"
    assert scalar_to_json(Fraction(1, 2)) == "1/2"
    z = root_of_unity(4)
    obj = scalar_to_json(z)
    assert obj["m"] == 4
    assert obj["coeffs"] == ["0/1", "1/1"]
    assert scalar_text(Fraction(7)) == "7"
    assert scalar_text(Fraction(24, 5)) == "24/5"
    assert "z4" in cyclo_text(z)


small_frac = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def cyclo12(draw_coeffs):
    return Cyclotomic(12, tuple(draw_coeffs))


@given(
    st.lists(small_frac, min_size=4, max_size=4),
    st.lists(small_frac, min_size=4, max_size=4),
    st.lists(small_frac, min_size=4, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_ring_axioms_order_twelve(a, b, c):
    x, y, z = cyclo12(a), cyclo12(b), cyclo12(c)
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == Fraction(0)


# ---- Z[zeta_m] as ints mod Phi_m(2^b) --------------------------------------

RESIDUE_ORDERS = (1, 3, 4, 5, 6, 8, 12)
# up to 2^70 unit paths, past one machine word
path_counts = st.integers(1, 40) | st.integers(1, 1 << 70)


def _phi(m):
    return len(cyclotomic_poly(m)) - 1


def _ints(value):
    return [int(c) for c in value.coeffs]


def test_unit_top():
    assert [unit_top(m) for m in RESIDUE_ORDERS] == [1, 1, 1, 1, 1, 1, 1]
    # zeta_105^t mod Phi_105 has a coefficient 2 for some t < 105
    assert unit_top(105) == 2


def test_integer_coefficients():
    z = root_of_unity(4)
    m, den, rows = integer_coefficients([Fraction(1, 2), z / 3, Fraction(-2)])
    assert (m, den, rows) == (4, 6, [[3, 0], [0, 2], [-12, 0]])
    assert integer_coefficients([Fraction(3, 4)]) == (1, 4, [[3]])
    with pytest.raises(ValueError, match="mixed root orders"):
        integer_coefficients([root_of_unity(4), root_of_unity(3)])


@given(st.sampled_from(RESIDUE_ORDERS), path_counts, st.data())
@settings(max_examples=200, deadline=None)
def test_residues_read_back_every_value_within_the_bound(m, paths, data):
    res = CyclotomicResidues(m, paths)
    bound = paths * unit_top(m)
    # b is the least width of at least 8 bits that keeps the bound below 2^(b-3)
    assert bound < 1 << (res.bits - 3)
    assert res.bits == 8 or bound >= 1 << (res.bits - 4)
    coeffs = data.draw(
        st.lists(st.integers(-bound, bound), min_size=_phi(m), max_size=_phi(m))
    )
    assert res.decode(res.encode(coeffs)) == coeffs
    # the extremes: every coefficient at plus or minus the bound
    signs = st.lists(st.sampled_from((-1, 1)), min_size=_phi(m), max_size=_phi(m))
    extreme = [s * bound for s in data.draw(signs)]
    assert res.decode(res.encode(extreme)) == extreme
    shift = res.modulus * data.draw(st.integers(-3, 3))
    assert res.decode(res.encode(extreme) + shift) == extreme
    assert (res.encode(coeffs) == 0) == (not any(coeffs))


@given(st.sampled_from(RESIDUE_ORDERS), st.data())
@settings(max_examples=200, deadline=None)
def test_residue_products_decode_to_the_cyclotomic_product(m, data):
    phi = _phi(m)
    ints = st.lists(st.integers(-50, 50), min_size=phi, max_size=phi)
    a, b = data.draw(ints), data.draw(ints)
    t = data.draw(st.integers(0, m - 1))
    unit = Cyclotomic(m, [0] * t + [1])
    # a * b * zeta^t is a sum of at most |a|_1 * |b|_1 units
    paths = max(1, sum(map(abs, a)) * sum(map(abs, b)))
    res = CyclotomicResidues(m, paths)
    product = res.encode(a) * res.encode(b) * res.encode(_ints(unit))
    expected = Cyclotomic(m, a) * Cyclotomic(m, b) * unit
    assert res.decode(product) == _ints(expected)
    scale = Fraction(1, data.draw(st.integers(1, 9)))
    assert res.to_scalar(product, scale) == expected * scale
