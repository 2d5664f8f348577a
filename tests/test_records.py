"""The five records behave as the frozen dataclasses they replace.

Each record has a twin here, the frozen dataclass of the same name,
fields, defaults and checks, which serves as the oracle: equality, hash,
repr, construction, copying and the refusal of assignment must be the
twin's, for field values drawn by hypothesis.
"""

import copy
import inspect
import pickle
from dataclasses import dataclass, field, fields
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacweight import codes
from jacweight.averages import AverageResult
from jacweight.codes import CodeFormatError, LinearCode
from jacweight.designs import BlockMultiset, DesignReport, _check_block_size
from jacweight.rings import RingSpec, field_ring, modular_ring


def twin(cls):
    """The frozen dataclass of cls, named as its record is, so that the two
    reprs can be compared as they are."""
    cls.__name__ = cls.__qualname__ = cls.__name__.removesuffix("Twin")
    return dataclass(frozen=True)(cls)


@twin
class RingSpecTwin:
    kind: str
    order: int
    root_order: int
    p: int | None = None
    f: int | None = None
    primitive_poly: tuple[int, ...] | None = None
    k: int | None = None
    add_table: tuple = field(default=(), compare=False, repr=False)
    mul_table: tuple = field(default=(), compare=False, repr=False)
    neg_table: tuple = field(default=(), compare=False, repr=False)


@twin
class LinearCodeTwin:
    ring: RingSpec
    n: int
    generators: tuple
    name: str = field(default="", compare=False)

    def __post_init__(self):
        for row in self.generators:
            if len(row) != self.n:
                raise CodeFormatError("generator rows must all have length n")
            for s in row:
                if not 0 <= s < self.ring.order:
                    raise CodeFormatError(
                        f"symbol {s} out of range for {self.ring.label()}"
                    )


@twin
class AverageResultTwin:
    value: object
    method: str
    samples: int | None = None
    seed: int | None = None
    stderr: float | None = None


@twin
class BlockMultisetTwin:
    n: int
    k: int
    blocks: tuple

    def __post_init__(self):
        _check_block_size(self.n, self.k)
        for block in self.blocks:
            if len(block) != self.k or len(set(block)) != self.k:
                raise ValueError("every block must have k distinct points")
            if any(not 0 <= p < self.n for p in block):
                raise ValueError("block point out of range")


@twin
class DesignReportTwin:
    n: int
    weight: int
    t: int
    lam: int | None
    min_coverage: int
    max_coverage: int
    block_count: int


small = st.integers(-3, 9)
maybe_small = st.none() | small
table = st.lists(st.lists(small, max_size=3).map(tuple), max_size=3).map(tuple)
RINGS = [field_ring(2), field_ring(3), field_ring(2, 2), modular_ring(4)]


def rows(n):
    # a row of length n + 1 or a symbol of 4 is out of range for some rings
    return st.lists(
        st.lists(st.integers(0, 4), min_size=n, max_size=n + 1).map(tuple),
        max_size=3,
    ).map(tuple)


# each record with its twin and a strategy for its whole argument list
CASES = {
    "RingSpec": (RingSpec, RingSpecTwin, st.tuples(
        st.sampled_from(["field", "modring"]), small, small, maybe_small,
        maybe_small, st.none() | st.lists(small, max_size=3).map(tuple),
        maybe_small, table, table, st.lists(small, max_size=3).map(tuple))),
    "LinearCode": (LinearCode, LinearCodeTwin, st.integers(0, 3).flatmap(
        lambda n: st.tuples(st.sampled_from(RINGS), st.just(n), rows(n),
                            st.sampled_from(["", "e8", "g24"])))),
    "AverageResult": (AverageResult, AverageResultTwin, st.tuples(
        small | st.fractions(max_denominator=5), st.sampled_from(["closed", "mc"]),
        maybe_small, maybe_small,
        st.none() | st.floats(allow_nan=False, width=16))),
    "BlockMultiset": (BlockMultiset, BlockMultisetTwin, st.tuples(
        st.integers(-1, 4), st.integers(-1, 3),
        st.lists(st.lists(st.integers(-1, 4), max_size=3).map(tuple),
                 max_size=3).map(tuple))),
    "DesignReport": (DesignReport, DesignReportTwin, st.tuples(
        small, small, small, maybe_small, small, small, small)),
}
RECORDS = pytest.mark.parametrize("name", CASES)


def names(twin_cls):
    return [f.name for f in fields(twin_cls)]


def build(cls, args):
    """The record or twin built from args, or the (type, text) it raised."""
    try:
        return cls(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def pairs(name):
    """Two argument lists of one record, the second made of the first's
    fields and a third list's, so that equal pairs are drawn often; no
    record has more than ten fields."""
    args = CASES[name][2]
    return st.tuples(args, args, st.lists(st.booleans(), min_size=10, max_size=10)).map(
        lambda t: (t[0], tuple(b if swap else a for a, b, swap in zip(t[0], t[1], t[2])))
    )


@RECORDS
@given(data=st.data())
def test_construction_checks_and_repr_are_the_twins(name, data):
    cls, twin_cls, args = CASES[name]
    values = data.draw(args)
    record, expected = build(cls, values), build(twin_cls, values)
    if isinstance(expected, tuple):
        assert record == expected
        return
    assert repr(record) == repr(expected)
    assert cls(**dict(zip(names(twin_cls), values))) == record
    assert all(getattr(record, f) is v for f, v in zip(names(twin_cls), values))


@RECORDS
def test_signature_is_the_twins(name):
    cls, twin_cls, _ = CASES[name]

    def params(c):
        return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

    assert params(cls) == params(twin_cls)


@RECORDS
@given(data=st.data())
def test_equality_and_hash_are_the_twins(name, data):
    cls, twin_cls, _ = CASES[name]
    left, right = data.draw(pairs(name))
    a, b = build(cls, left), build(cls, right)
    ta, tb = build(twin_cls, left), build(twin_cls, right)
    if isinstance(ta, tuple) or isinstance(tb, tuple):
        return
    assert (a == b) is (ta == tb)
    assert (a != b) is (ta != tb)
    assert hash(a) == hash(ta) and hash(b) == hash(tb)
    assert a.__eq__(ta) is NotImplemented
    assert a != ta and a != left


def valid_codes():
    def rows_over(ring, n):
        row = st.lists(st.integers(0, ring.order - 1), min_size=n, max_size=n).map(tuple)
        return st.lists(row, max_size=3).map(tuple)

    return st.tuples(st.sampled_from(RINGS), st.integers(0, 3)).flatmap(
        lambda rn: st.tuples(st.just(rn[0]), st.just(rn[1]), rows_over(*rn),
                             st.sampled_from(["", "e8"])))


@given(
    code=valid_codes(),
    other_name=st.sampled_from(["", "copy", "d16plus"]),
    tables=st.tuples(table, table, table),
)
def test_fields_left_out_of_comparison_change_neither_eq_nor_hash(code, other_name, tables):
    ring, n, gens, name = code
    a, b = LinearCode(ring, n, gens, name), LinearCode(ring, n, gens, other_name)
    assert a == b and hash(a) == hash(b)
    assert LinearCodeTwin(ring, n, gens, name) == LinearCodeTwin(ring, n, gens, other_name)
    assert repr(b) == repr(LinearCodeTwin(ring, n, gens, other_name))
    ring_fields = (ring.kind, ring.order, ring.root_order, ring.p, ring.f, ring.primitive_poly, ring.k)
    bare = RingSpec(*ring_fields, *tables)
    assert bare == ring and hash(bare) == hash(ring)
    assert repr(bare) == repr(ring) == repr(RingSpecTwin(*ring_fields, *tables))


@RECORDS
@given(data=st.data())
def test_assignment_and_deletion_are_refused_as_by_the_twin(name, data):
    cls, twin_cls, args = CASES[name]
    values = data.draw(args)
    record, expected = build(cls, values), build(twin_cls, values)
    if isinstance(expected, tuple):
        return
    before = repr(record)
    for attr in (*names(twin_cls), "other"):
        for obj in (record, expected):
            with pytest.raises(AttributeError):
                setattr(obj, attr, 0)
            with pytest.raises(AttributeError):
                delattr(obj, attr)
    assert repr(record) == before


@RECORDS
@given(data=st.data())
def test_copies_equal_the_record(name, data):
    cls, twin_cls, args = CASES[name]
    values = data.draw(args)
    record = build(cls, values)
    if isinstance(record, tuple):
        return
    for made in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(made) is cls and made == record and repr(made) == repr(record)


def test_defaults_are_the_twins():
    ring = field_ring(2)
    assert repr(RingSpec("field", 2, 2)) == repr(RingSpecTwin("field", 2, 2))
    assert RingSpec("field", 2, 2).add_table == ()
    assert repr(LinearCode(ring, 2, ((1, 1),))) == repr(LinearCodeTwin(ring, 2, ((1, 1),)))
    assert repr(AverageResult(Fraction(1, 2), "closed")) == repr(
        AverageResultTwin(Fraction(1, 2), "closed"))


def test_a_code_computes_its_words_once_into_its_dict(monkeypatch):
    charged = []
    real = codes.check_budget
    monkeypatch.setattr(codes, "check_budget", lambda *a: charged.append(a) or real(*a))
    code = LinearCode(field_ring(3), 3, ((1, 2, 0), (0, 1, 1)), "t")
    assert set(vars(code)) == {"ring", "n", "generators", "name"}
    words = code.words
    assert len(words) == 9
    assert code.__dict__["words"] is words and code.words is words
    assert [a for a in charged if a[1] == "codeword symbols"] == [(27, "codeword symbols")]
    with pytest.raises(AttributeError):
        code.words = ()


def test_only_the_code_has_an_instance_dict():
    ring = field_ring(2)
    assert hasattr(LinearCode(ring, 1, ()), "__dict__")
    for record in (ring, AverageResult(1, "closed"), BlockMultiset(2, 1, ((0,),)),
                   DesignReport(2, 1, 1, 1, 1, 1, 2)):
        assert not hasattr(record, "__dict__")
