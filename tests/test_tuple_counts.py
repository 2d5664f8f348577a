"""Every composition table, joint enumerator and brute average against a
literal count, word tuple by word tuple."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import jacweight.codes as codes_module
from conftest import get_code, random_code, random_mask
from jacweight.averages import brute_avg_jacobi, brute_avg_joint_jacobi
from jacweight.codes import (
    LinearCode,
    comp_table,
    jacobi_table,
    joint_jacobi_table,
    permute_word,
)
from jacweight.enumerators import cwe_genus, jacobi, joint_cwe, joint_jacobi
from jacweight.rings import field_ring, modular_ring

RINGS = {
    "F2": field_ring(2),
    "F3": field_ring(3),
    "F4": field_ring(2, 2),
    "F8": field_ring(2, 3),
    "F9": field_ring(3, 2),
    "Z4": modular_ring(4),
    "Z6": modular_ring(6),
}


def literal_counts(ring, word_lists, fixed=()):
    """Compositions of the column tuples, counted one word tuple at a time."""
    q = ring.order
    nvars = q ** (len(word_lists) + len(fixed))
    table = Counter()
    for words in itertools.product(*word_lists):
        counts = [0] * nvars
        for column in zip(*words, *fixed):
            idx = 0
            for s in column:
                idx = idx * q + s
            counts[idx] += 1
        table[tuple(counts)] += 1
    return dict(table)


def literal_average(ring, code_c, others, w):
    """S_n average of the literal counts with C permuted and the rest fixed."""
    total = Counter()
    for sigma in itertools.permutations(range(code_c.n)):
        permuted = [permute_word(u, sigma) for u in code_c.words]
        total.update(literal_counts(ring, [permuted, *others], (w,)))
    perms = math.factorial(code_c.n)
    return {key: Fraction(mult, perms) for key, mult in total.items()}


def as_fractions(table):
    return {key: Fraction(mult) for key, mult in table.items()}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_builders_match_literal_counts(name):
    ring = RINGS[name]
    rng = random.Random(f"tuple-counts-{name}")
    for n in (1, 2, 3, 4):
        code_c = random_code(ring, n, rows=rng.randint(1, 2), rng=rng)
        code_d = random_code(ring, n, rows=1, rng=rng)
        w = random_mask(ring, n, rng)
        assert comp_table(code_c) == literal_counts(ring, [code_c.words])
        assert jacobi_table(code_c, w) == literal_counts(ring, [code_c.words], (w,))
        pair = [code_c.words, code_d.words]
        assert joint_jacobi_table(code_c, code_d, w) == literal_counts(ring, pair, (w,))
        assert joint_cwe(code_c, code_d).terms == as_fractions(
            literal_counts(ring, pair)
        )
        for genus in (1, 2, 3):
            if code_d.size**genus > 2000:
                continue
            assert cwe_genus(code_d, genus).terms == as_fractions(
                literal_counts(ring, [code_d.words] * genus)
            )


@pytest.mark.parametrize("name", sorted(RINGS))
def test_brute_averages_match_literal_counts(name):
    ring = RINGS[name]
    rng = random.Random(f"tuple-averages-{name}")
    n = 3
    code_c = random_code(ring, n, rows=1, rng=rng)
    code_d = random_code(ring, n, rows=1, rng=rng)
    w = random_mask(ring, n, rng)
    assert brute_avg_jacobi(code_c, w).terms == literal_average(ring, code_c, [], w)
    assert brute_avg_joint_jacobi(code_c, code_d, w).terms == literal_average(
        ring, code_c, [code_d.words], w
    )


def test_out_of_range_mask_symbols_are_rejected():
    f2 = RINGS["F2"]
    tiny = LinearCode(f2, 2, ((1, 0),))
    with pytest.raises(ValueError, match="out of range"):
        jacobi(tiny, (0, 2))
    with pytest.raises(ValueError, match="out of range"):
        jacobi_table(tiny, (0, -1))
    with pytest.raises(ValueError, match="out of range"):
        joint_jacobi_table(tiny, tiny, (2, 0))
    e8 = get_code("e8")
    with pytest.raises(ValueError, match="out of range"):
        joint_jacobi(e8, e8, (2,) + (0,) * 7)
    with pytest.raises(ValueError, match="mask length"):
        jacobi_table(e8, (0,) * 7)


def test_comp_table_is_counted_once_per_code(monkeypatch):
    calls = []
    kernel = codes_module._tuple_counts

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(codes_module, "_tuple_counts", counting)
    code = LinearCode(RINGS["F3"], 3, ((1, 2, 0), (0, 1, 1)))
    first = comp_table(code)
    assert comp_table(code) is first
    assert len(calls) == 1
    # an equal but distinct code object counts afresh
    comp_table(LinearCode(RINGS["F3"], 3, code.generators))
    assert len(calls) == 2
