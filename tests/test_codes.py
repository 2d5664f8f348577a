import itertools
import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import get_code, literal_words, random_code
from jacweight.budget import check_budget
from jacweight.codes import (
    BudgetExceeded,
    CodeFormatError,
    LinearCode,
    code_from_json,
    code_to_json,
    comp_table,
    composition,
    enumeration_budget,
    jacobi_table,
    joint_jacobi_table,
    load_code,
    mask_word,
    permute_word,
    resolve_code_path,
    weight,
)
from jacweight.rings import field_ring, modular_ring

F2 = field_ring(2)
F3 = field_ring(3)
F4 = field_ring(2, 2)
Z4 = modular_ring(4)

WORD_ORDER_RINGS = {
    "F2": F2,
    "F3": F3,
    "F4": F4,
    "F8": field_ring(2, 3),
    "F9": field_ring(3, 2),
    "Z4": Z4,
    "Z6": modular_ring(6),
}
DUAL_RINGS = {**WORD_ORDER_RINGS, "Z8": modular_ring(8), "Z12": modular_ring(12)}


def test_word_helpers():
    assert weight((0, 1, 0, 2, 3)) == 3
    assert permute_word((7, 8, 9), (2, 0, 1)) == (9, 7, 8)
    assert mask_word((1, 2, 3, 4), (0, 1, 0, 1)) == (1, 0, 3, 0)
    assert mask_word((1, 2), (1, 1)) == (0, 0)


def test_composition_counts():
    assert composition(F3, (0, 1, 1, 2)) == (1, 2, 1)
    assert sum(composition(Z4, (3, 3, 0, 1, 2))) == 5
    # index a*q + b counts positions with u_i = a, w_i = b
    jc = composition(F2, (1, 1, 0), (0, 1, 0))
    assert jc == (1, 0, 1, 1)
    jj = composition(F2, (1,), (0,), (1,))
    expected = [0] * 8
    expected[(1 * 2 + 0) * 2 + 1] = 1
    assert jj == tuple(expected)


def test_e8_words_and_distribution():
    e8 = get_code("e8")
    assert e8.size == 16
    assert e8.words[0] == (0,) * 8
    assert e8.words[1] == (0, 0, 0, 0, 1, 1, 1, 1)
    assert len(set(e8.words)) == len(e8.words)
    assert e8.weight_distribution() == {0: 1, 4: 14, 8: 1}
    assert (1, 1, 1, 1, 1, 1, 1, 1) in e8
    assert (1, 0, 0, 0, 0, 0, 0, 0) not in e8


def test_known_weight_distributions():
    assert get_code("g24").weight_distribution() == {
        0: 1,
        8: 759,
        12: 2576,
        16: 759,
        24: 1,
    }
    assert get_code("d24plus").weight_distribution() == {
        0: 1,
        4: 30,
        8: 639,
        12: 2756,
        16: 639,
        20: 30,
        24: 1,
    }


@pytest.mark.parametrize("name", ["e8", "e8x2", "d16plus", "g24", "d24plus"])
def test_bundled_binary_codes_are_self_dual(name):
    code = get_code(name)
    assert code.dual().word_set == code.word_set


@pytest.mark.parametrize("name", ["e8", "g24", "d24plus"])
def test_bundled_codes_are_doubly_even(name):
    assert all(w % 4 == 0 for w in get_code(name).weight_distribution())


def test_duality_size_identity():
    rng = random.Random(7)
    rings = [F2, F3, F4, Z4]
    for trial in range(8):
        ring = rings[trial % len(rings)]
        n = 2 + trial % 4
        code = random_code(ring, n, rows=2, rng=rng)
        dual = code.dual()
        assert code.size * dual.size == ring.order**n
        for u in code.words:
            for v in dual.words:
                assert ring.dot(u, v) == 0


def test_z4_small_fixture_dual():
    code = get_code("z4_small")
    assert code.size == 8
    dual = code.dual()
    assert code.size * dual.size == 4**3


def test_z4_rank_one_dual():
    code = LinearCode(Z4, 1, ((2,),))
    assert code.word_set == {(0,), (2,)}
    assert code.dual().word_set == {(0,), (2,)}


def test_permute_preserves_weights():
    code = get_code("f4_small")
    sigma = (2, 0, 3, 1)
    permuted = code.permute(sigma)
    assert permuted.weight_distribution() == code.weight_distribution()
    assert permuted.word_set == {permute_word(u, sigma) for u in code.words}


def test_composition_tables_are_consistent():
    code = get_code("z4_small")
    w = (0, 1, 2)
    ct = comp_table(code).terms
    assert sum(ct.values()) == code.size
    jt = jacobi_table(code, w).terms
    assert sum(jt.values()) == code.size
    # merging the w symbol recovers the plain composition table
    merged = {}
    q = code.ring.order
    for key, cnt in jt.items():
        comp = [0] * q
        for a in range(q):
            for b in range(q):
                comp[a] += key[a * q + b]
        merged[tuple(comp)] = merged.get(tuple(comp), 0) + cnt
    assert merged == ct


def test_joint_table_marginals():
    code_c = get_code("z4_small")
    code_d = LinearCode(Z4, 3, ((1, 1, 1),))
    w = (0, 0, 1)
    q = 4
    jt = joint_jacobi_table(code_c, code_d, w).terms
    assert sum(jt.values()) == code_c.size * code_d.size
    # dropping the middle symbol gives |D| copies of C's Jacobi table
    merged = {}
    for key, cnt in jt.items():
        flat = [0] * (q * q)
        for a1 in range(q):
            for a2 in range(q):
                for a3 in range(q):
                    flat[a1 * q + a3] += key[(a1 * q + a2) * q + a3]
        merged[tuple(flat)] = merged.get(tuple(flat), 0) + cnt
    expected = {
        key: cnt * code_d.size for key, cnt in jacobi_table(code_c, w).terms.items()
    }
    assert merged == expected


def test_generator_validation():
    with pytest.raises(CodeFormatError):
        LinearCode(F2, 3, ((1, 0),))
    with pytest.raises(CodeFormatError):
        LinearCode(F2, 2, ((0, 2),))


def test_word_budget_gate(monkeypatch):
    monkeypatch.setenv("JF_BUDGET", "4")
    assert enumeration_budget() == 4
    code = LinearCode(F2, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(BudgetExceeded):
        _ = code.words


def test_words_budget_charges_the_codeword_symbols(monkeypatch):
    monkeypatch.delenv("JF_BUDGET", raising=False)
    # 14 generators 2 e_i span 2^14 words, not 4^14 coefficient vectors
    rows = tuple(tuple(2 * (i == j) for i in range(14)) for j in range(14))
    assert len(LinearCode(Z4, 14, rows).words) == 16384
    # 4^13 words of 14 symbols would not fit in memory: refused before a word
    dual = LinearCode(Z4, 14, ((1,) * 14,)).dual()
    with pytest.raises(BudgetExceeded, match="codeword symbols"):
        _ = dual.words
    assert "words" not in dual.__dict__


def test_binary_words_charge_the_codeword_symbols_before_a_word(monkeypatch):
    """f2_wide's 40 rows are independent: 2^40 words of 72 symbols."""
    monkeypatch.delenv("JF_BUDGET", raising=False)
    code = load_code("f2_wide")
    with pytest.raises(BudgetExceeded) as info:
        _ = code.words
    assert str(info.value) == "79164837199872 codeword symbols exceed the budget 67108864"
    assert "words" not in code.__dict__
    assert "_bits" not in code.__dict__


def test_binary_tables_charge_the_codeword_symbols(monkeypatch):
    code = get_code("e8").permute(range(8))
    monkeypatch.setenv("JF_BUDGET", str(16 * 8 - 1))
    with pytest.raises(BudgetExceeded, match="128 codeword symbols"):
        comp_table(code)
    with pytest.raises(BudgetExceeded, match="128 codeword symbols"):
        jacobi_table(code, (1,) + (0,) * 7)
    monkeypatch.setenv("JF_BUDGET", str(16 * 8))
    assert comp_table(code).terms == {(8, 0): 1, (4, 4): 14, (0, 8): 1}
    assert "words" not in code.__dict__


def test_counts_too_long_to_print_are_written_by_bit_length(monkeypatch):
    monkeypatch.delenv("JF_BUDGET", raising=False)
    # 10**4300 has 4301 digits, past the int to str limit of Python 3.11
    for count, text in (
        (10**4299, str(10**4299)),
        (10**4300, f"at least 2^{(10**4300).bit_length() - 1}"),
        (2**40000, "at least 2^40000"),
    ):
        with pytest.raises(BudgetExceeded) as info:
            check_budget(count, "things")
        assert str(info.value) == f"{text} things exceed the budget 67108864"
    # 16^g for g past the bit length of the budget plus 2^16, unbuilt
    for power, text in ((10**9, "at least 2^4000000000"), (28, str(16**28))):
        with pytest.raises(BudgetExceeded) as info:
            check_budget(16, "tuples", power=power)
        assert str(info.value) == f"{text} tuples exceed the budget 67108864"
    check_budget(1, "tuples", power=10**12)
    check_budget(16, "tuples", power=6)


def test_long_codes_are_sized_without_a_walk_over_their_columns(monkeypatch):
    monkeypatch.delenv("JF_BUDGET", raising=False)
    start = time.perf_counter()
    assert LinearCode(F2, 10**12, ()).size == 1
    assert LinearCode(F3, 10**6, ((1,) + (0,) * (10**6 - 1),)).size == 3
    assert time.perf_counter() - start < 5
    with pytest.raises(BudgetExceeded, match="^1000000000000 codeword symbols"):
        comp_table(LinearCode(F2, 10**12, ()))


def test_binary_tables_of_long_codes_pack_in_linear_time(monkeypatch):
    monkeypatch.delenv("JF_BUDGET", raising=False)
    n = 10**6
    code = LinearCode(F2, n, ((1, 0) * (n // 2),))
    w = (0, 1, 1) * (n // 3) + (0,)
    start = time.perf_counter()
    assert comp_table(code).terms == {(n, 0): 1, (n // 2, n // 2): 1}
    # the mask's zeros are the 333334 multiples of 3, half of them even
    assert jacobi_table(code, w).terms == {
        (333334, 666666, 0, 0): 1,
        (166667, 333333, 166667, 333333): 1,
    }
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("n", [16, 24])
def test_z4_dual_scans_no_ambient_space(monkeypatch, n):
    rng = random.Random(n)
    monkeypatch.setenv("JF_BUDGET", "16")
    code = random_code(Z4, n, rows=2, rng=rng)
    dual = code.dual()
    for g in code.generators:
        for h in dual.generators:
            assert Z4.dot(g, h) == 0
    assert code.size * dual.size == 4**n


def test_joint_table_budget_gate(monkeypatch):
    code = get_code("z4_small")
    other = LinearCode(Z4, 3, ((1, 1, 1),))
    # the words cost 8 * 3 and 4 * 3 codeword symbols, the pairs 8 * 4
    monkeypatch.setenv("JF_BUDGET", "30")
    with pytest.raises(BudgetExceeded, match="tuples of codewords"):
        joint_jacobi_table(code, other, (0, 0, 0))


def test_json_roundtrip():
    code = get_code("f4_small")
    back = code_from_json(code_to_json(code))
    assert back == code
    assert back.name == code.name


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"ring": {"kind": "field", "p": 2}, "n": 2},
        {"ring": {"kind": "field", "p": 2}, "n": 0, "generators": []},
        {"ring": {"kind": "blob"}, "n": 2, "generators": []},
        {"ring": {"kind": "field", "p": 2}, "n": 2, "generators": [[1, "x"]]},
        {"ring": {"kind": "field", "p": 2}, "n": 2, "generators": [[1, 3]]},
    ],
)
def test_code_from_json_rejects_malformed(obj):
    with pytest.raises(CodeFormatError):
        code_from_json(obj)


@pytest.mark.parametrize(
    "obj, message",
    [
        (
            {"ring": {"kind": "field", "p": 2}, "n": True, "generators": [[1]]},
            "n must be a positive integer",
        ),
        (
            {"ring": {"kind": "field", "p": 2}, "n": 2, "generators": [[True, 1]]},
            "generator rows must be lists of integers",
        ),
        (
            {"ring": {"kind": "field", "p": 3}, "n": 2, "generators": [[1, False]]},
            "generator rows must be lists of integers",
        ),
    ],
)
def test_code_from_json_rejects_bools(obj, message):
    with pytest.raises(CodeFormatError) as info:
        code_from_json(obj)
    assert str(info.value) == message


def test_load_code_resolution(tmp_path, monkeypatch):
    assert resolve_code_path("e8").name == "e8.json"
    assert resolve_code_path("e8.json").name == "e8.json"
    path = tmp_path / "tiny.json"
    path.write_text(
        json.dumps(
            {
                "name": "tiny",
                "ring": {"kind": "field", "p": 2},
                "n": 2,
                "generators": [[1, 1]],
            }
        )
    )
    assert load_code(str(path)).name == "tiny"
    monkeypatch.setenv("JF_FIXTURES", str(tmp_path))
    assert load_code("tiny").size == 2
    with pytest.raises(FileNotFoundError):
        load_code("e8")


def test_load_code_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(CodeFormatError):
        load_code(str(path))


def test_e8x2_is_two_copies():
    e8 = get_code("e8")
    e8x2 = get_code("e8x2")
    assert e8x2.n == 16
    assert e8x2.size == e8.size**2
    split = {(u[:8], u[8:]) for u in e8x2.words}
    assert split == {(a, b) for a in e8.words for b in e8.words}


def test_size_matches_rank():
    code = get_code("g24")
    assert code.size == 2**12
    assert math.prod([2] * 12) == 4096


@pytest.mark.parametrize("name", sorted(WORD_ORDER_RINGS))
def test_words_keep_coefficient_lex_order(name):
    ring = WORD_ORDER_RINGS[name]
    rng = random.Random(name)
    rows = 3 if ring.order < 8 else 2
    for _ in range(6):
        code = random_code(ring, rng.randint(1, 4), rows, rng)
        gens = code.generators
        multiple = tuple(ring.mul(rng.randrange(ring.order), y) for y in gens[0])
        # the random rows, with one repeated, and with a multiple put first
        for rows_used in (gens, gens + gens[:1], (multiple,) + gens):
            variant = LinearCode(ring, code.n, rows_used)
            assert variant.words == literal_words(variant)


def test_words_of_dependent_z4_rows():
    g = (1, 3, 2, 1)
    double = tuple(Z4.mul(2, y) for y in g)
    for rows in ((double, g), (g, g), (double, double, g), ()):
        code = LinearCode(Z4, 4, rows)
        assert code.words == literal_words(code)


@st.composite
def codes_with_dependent_rows(draw):
    """A code over one of DUAL_RINGS with q^n <= 5000 whose generators may
    be empty or hold zero rows, repeated rows and multiples of a row."""
    ring = DUAL_RINGS[draw(st.sampled_from(sorted(DUAL_RINGS)))]
    q = ring.order
    n = draw(st.integers(1, int(math.log(5000, q))))
    row = st.tuples(*[st.integers(0, q - 1)] * n)
    rows = draw(st.lists(row, max_size=3))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    if rows and draw(st.booleans()):
        c = draw(st.integers(0, q - 1))
        rows.insert(0, tuple(ring.mul(c, y) for y in draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.append((0,) * n)
    return LinearCode(ring, n, tuple(draw(st.permutations(rows))))


@given(codes_with_dependent_rows())
@settings(max_examples=200, deadline=None)
def test_echelon_dual_and_size_match_an_ambient_scan(code):
    ring, n = code.ring, code.n
    scanned = {
        v
        for v in itertools.product(range(ring.order), repeat=n)
        if all(ring.dot(g, v) == 0 for g in code.generators)
    }
    dual = code.dual()
    assert dual.word_set == scanned
    assert dual.dual().word_set == code.word_set
    assert code.size == len(code.words)
    assert dual.size == len(dual.words)
    assert code.size * dual.size == ring.order**n
