"""Shared fixtures: bundled codes, seeded random code builders and the
literal walk over coefficient vectors that every word order is held to."""

import itertools
import random

import pytest
from hypothesis import Phase, settings

from jacweight.codes import LinearCode, load_code
from jacweight.rings import RingSpec

# Hypothesis's explain phase reruns a failing example under a line tracer
# to annotate it.  On a failing split-route test of the kernel that held
# 1.4 to 1.7 GB, against at most a few hundred MB without it (a mutant of
# the split convolution, shrunk to F8 pair tables), so every test runs
# without it: which tests pass and fail is the same.
settings.register_profile("jacweight", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("jacweight")

_CODE_CACHE: dict[str, LinearCode] = {}

FIXTURE_NAMES = (
    "e8",
    "e8x2",
    "d16plus",
    "g24",
    "d24plus",
    "z4_small",
    "f4_small",
)

REFERENCE_PAIRS = (
    ("e8", "e8"),
    ("e8x2", "e8x2"),
    ("d16plus", "e8x2"),
    ("d16plus", "d16plus"),
    ("g24", "g24"),
    ("d24plus", "d24plus"),
    ("g24", "d24plus"),
)


def get_code(name: str) -> LinearCode:
    if name not in _CODE_CACHE:
        _CODE_CACHE[name] = load_code(name)
    return _CODE_CACHE[name]


@pytest.fixture(scope="session")
def codes():
    return get_code


def random_code(ring: RingSpec, n: int, rows: int, rng: random.Random) -> LinearCode:
    """Random generator matrix with at least one nonzero row."""
    while True:
        gens = tuple(
            tuple(rng.randrange(ring.order) for _ in range(n)) for _ in range(rows)
        )
        if any(any(row) for row in gens):
            return LinearCode(ring=ring, n=n, generators=gens)


def random_mask(ring: RingSpec, n: int, rng: random.Random):
    return tuple(rng.randrange(ring.order) for _ in range(n))


def literal_words(code):
    """Every coefficient vector in lex order, keeping first occurrences."""
    ring = code.ring
    words = []
    for coeffs in itertools.product(range(ring.order), repeat=len(code.generators)):
        word = (0,) * code.n
        for c, gen in zip(coeffs, code.generators):
            word = tuple(ring.add(x, ring.mul(c, y)) for x, y in zip(word, gen))
        if word not in words:
            words.append(word)
    return tuple(words)
