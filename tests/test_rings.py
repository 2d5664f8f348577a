from fractions import Fraction

import pytest

from jacweight.codes import BudgetExceeded
from jacweight.exactnum import Cyclotomic, root_of_unity
from jacweight.rings import (
    field_ring,
    make_ring,
    modular_ring,
    ring_from_json,
    ring_to_json,
)

SHIPPED_RINGS = [
    field_ring(2),
    field_ring(3),
    field_ring(5),
    field_ring(2, 2),
    field_ring(2, 3),
    field_ring(3, 2),
    modular_ring(4),
    modular_ring(6),
]


@pytest.fixture(params=SHIPPED_RINGS, ids=lambda r: r.label())
def ring(request):
    return request.param


def test_character_orthogonality(ring):
    # sum_a chi(a*b) is |ring| at b=0 and vanishes elsewhere
    for b in ring.elements:
        total = sum((ring.chi(ring.mul(a, b)) for a in ring.elements), Fraction(0))
        expected = Fraction(ring.order) if b == 0 else Fraction(0)
        assert total == expected


def test_additive_group_axioms(ring):
    for a in ring.elements:
        assert ring.add(a, 0) == a
        assert ring.add(a, ring.neg(a)) == 0
        assert ring.mul(a, 1) == a
        assert ring.sub(a, a) == 0
        for b in ring.elements:
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)


def test_field_elements_are_invertible(ring):
    if ring.kind != "field":
        return
    for a in ring.elements:
        if a == 0:
            continue
        assert any(ring.mul(a, b) == 1 for b in ring.elements)


def test_f4_multiplication_table():
    f4 = field_ring(2, 2)
    # element 2 encodes x, element 3 encodes x + 1
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.mul(3, 3) == 2
    assert f4.add(2, 3) == 1
    assert f4.add(2, 2) == 0


def test_f4_character_uses_constant_coefficient():
    f4 = field_ring(2, 2)
    assert f4.chi(0) == Fraction(1)
    assert f4.chi(1) == Fraction(-1)
    assert f4.chi(2) == Fraction(1)
    assert f4.chi(3) == Fraction(-1)


def test_f2_character_values():
    f2 = field_ring(2)
    assert f2.chi(0) == Fraction(1)
    assert f2.chi(1) == Fraction(-1)


def test_z4_character_values():
    z4 = modular_ring(4)
    assert z4.chi(1) == root_of_unity(4)
    assert z4.chi(2) == Fraction(-1)
    assert z4.chi(3) == root_of_unity(4, 3)
    assert isinstance(z4.chi(1), Cyclotomic)


def test_f9_character_order_three():
    f9 = field_ring(3, 2)
    z3 = root_of_unity(3)
    for a in f9.elements:
        chi = f9.chi(a)
        assert chi in (Fraction(1), z3, z3 * z3)


def test_dot_product():
    f3 = field_ring(3)
    assert f3.dot((1, 2, 2), (2, 1, 1)) == 0
    assert f3.dot((1, 1), (1, 1)) == 2
    with pytest.raises(ValueError):
        f3.dot((1, 2), (1, 2, 0))


def test_reducible_polynomial_rejected():
    with pytest.raises(ValueError):
        field_ring(2, 2, primitive_poly=(1, 0, 1))  # x^2 + 1 = (x + 1)^2 over F_2


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        field_ring(4)
    with pytest.raises(ValueError):
        field_ring(2, 0)
    with pytest.raises(ValueError):
        modular_ring(1)
    with pytest.raises(ValueError):
        make_ring("group", k=4)


def test_default_extension_polynomials_exist():
    for p, f in [(2, 2), (2, 3), (3, 2)]:
        r = field_ring(p, f)
        assert r.order == p**f


def test_missing_default_polynomial_requires_explicit_one():
    with pytest.raises(ValueError):
        field_ring(5, 2)


@pytest.mark.parametrize(
    "build, q",
    [
        (lambda: modular_ring(11), 11),
        (lambda: field_ring(11), 11),
        (lambda: field_ring(3, 2), 9),
        (lambda: ring_from_json({"kind": "modring", "k": 10**5}), 10**5),
        # 10^20 + 39 is prime: testing it by trial division takes 10^10 steps
        (lambda: field_ring(10**20 + 39), 10**20 + 39),
    ],
)
def test_ring_tables_charge_their_entries_first(monkeypatch, build, q):
    monkeypatch.setenv("JF_BUDGET", str(min(q * q - 1, 10**6)))
    with pytest.raises(BudgetExceeded, match=f"^{q * q} ring table entries exceed"):
        build()
    if q * q <= 10**6:
        monkeypatch.setenv("JF_BUDGET", str(q * q))
        assert build().order == q


def test_json_roundtrip(ring):
    obj = ring_to_json(ring)
    back = ring_from_json(obj)
    assert back == ring
    assert back.label() == ring.label()


def test_json_shapes():
    assert ring_to_json(field_ring(2)) == {
        "kind": "field",
        "p": 2,
        "f": 1,
        "primitive_poly": [0, 1],
    }
    assert ring_to_json(modular_ring(4)) == {"kind": "modring", "k": 4}
    assert ring_from_json({"kind": "field", "p": 3}).order == 3


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"kind": "modring", "k": 4.5}, "'k' must be an integer, got 4.5"),
        ({"kind": "modring", "k": True}, "'k' must be an integer, got True"),
        ({"kind": "field", "p": "2"}, "'p' must be an integer, got '2'"),
        ({"kind": "field", "p": 2, "f": 2.0}, "'f' must be an integer, got 2.0"),
        ({"kind": "field", "p": 2, "f": None}, "'f' must be an integer, got None"),
        (
            {"kind": "field", "p": 2, "f": 2, "primitive_poly": "111"},
            "'primitive_poly' must be a list of integers, got '111'",
        ),
        (
            {"kind": "field", "p": 2, "f": 2, "primitive_poly": [1, 1.0, 1]},
            "'primitive_poly' must be a list of integers, got [1, 1.0, 1]",
        ),
    ],
)
def test_ring_from_json_rejects_non_integer_parameters(obj, message):
    with pytest.raises(ValueError) as info:
        ring_from_json(obj)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"kind": "field"}, "a 'field' ring needs the key 'p'"),
        ({"kind": "field", "f": 2}, "a 'field' ring needs the key 'p'"),
        ({"kind": "modring"}, "a 'modring' ring needs the key 'k'"),
        ({"kind": "modring", "p": 4}, "a 'modring' ring needs the key 'k'"),
    ],
)
def test_ring_from_json_names_the_missing_size_key(obj, message):
    with pytest.raises(ValueError) as info:
        ring_from_json(obj)
    assert str(info.value) == message


def test_ring_from_json_accepts_well_formed_objects():
    f4 = {"kind": "field", "p": 2, "f": 2, "primitive_poly": [1, 1, 1]}
    assert ring_from_json(f4) == field_ring(2, 2)
    f4_default = {"kind": "field", "p": 2, "f": 2, "primitive_poly": None}
    assert ring_from_json(f4_default) == field_ring(2, 2)
    assert ring_from_json({"kind": "modring", "k": 6}) == modular_ring(6)
