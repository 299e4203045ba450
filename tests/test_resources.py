from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resbound import OrderRelation, ResourceVector, compare, pareto_min, vec
from resbound.errors import DimensionMismatch


def rationals():
    return st.fractions(min_value=0, max_value=10, max_denominator=8)


def vectors(n=4):
    return st.lists(rationals(), min_size=n, max_size=n).map(
        lambda xs: ResourceVector(tuple(xs))
    )


def test_leq_reflexive_example():
    assert vec(1, 2, 3, 4).leq(vec(1, 2, 3, 4))


def test_leq_incomparable_pair():
    assert not vec(1, 2).leq(vec(2, 1))
    assert not vec(2, 1).leq(vec(1, 2))


def test_leq_componentwise():
    assert vec(1, 1, 1, 1).leq(vec(2, 1, 3, 1))


def test_compare_examples():
    assert compare(vec(1, 1), vec(1, 1)) is OrderRelation.EQUAL
    assert compare(vec(1, 3), vec(3, 1)) is OrderRelation.INCOMPARABLE
    assert compare(vec(1, 1), vec(2, 5)) is OrderRelation.LESS_EQ
    assert compare(vec(2, 5), vec(1, 1)) is OrderRelation.GREATER_EQ


def test_arithmetic_examples():
    assert vec(1, 2).add(vec(3, 4)) == vec(4, 6)
    assert vec(1, 2).sub_saturating(vec(3, 1)) == vec(0, 1)
    assert vec(1, 3).join(vec(3, 1)) == vec(3, 3)
    assert vec(1, 3).meet(vec(3, 1)) == vec(1, 1)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        vec(1, 2).leq(vec(1, 2, 3, 4))
    with pytest.raises(DimensionMismatch):
        vec(1, 2).add(vec(1, 2, 3, 4))


def test_negative_rejected():
    with pytest.raises(ValueError):
        vec(1, -1)


def test_odd_length_rejected():
    with pytest.raises(ValueError):
        ResourceVector((Fraction(1), Fraction(2), Fraction(3)))


def test_indices():
    r = vec(1, 2, 3, 4, 5, 6)  # d=2: space 1,2; time 3; momentum 4,5; energy 6
    assert r.d == 2
    assert r.time == 3
    assert r.energy == 6


def test_pareto_min_examples():
    assert pareto_min({vec(1, 1)}) == frozenset({vec(1, 1)})
    got = pareto_min({vec(1, 3), vec(2, 2), vec(3, 1), vec(2, 3)})
    assert got == frozenset({vec(1, 3), vec(2, 2), vec(3, 1)})
    assert pareto_min([vec(1, 1), vec(1, 1)]) == frozenset({vec(1, 1)})
    assert pareto_min([(2, 0, 1), (1, 3, 0), (2, 1, 1), (1, 3, 0)]) == {(2, 0, 1), (1, 3, 0)}


def test_pareto_min_mixed_lengths():
    with pytest.raises(DimensionMismatch):
        pareto_min({vec(1, 1), vec(0, 0, 0, 0)})
    with pytest.raises(DimensionMismatch):
        pareto_min([(1, 1), (0, 0, 0, 0)])


def test_pareto_min_empty():
    with pytest.raises(ValueError):
        pareto_min([])


def test_serialization_roundtrip():
    r = vec("3/2", 2, 0, "7/3")
    assert r.to_strings() == ["3/2", "2", "0", "7/3"]
    assert ResourceVector.from_strings(r.to_strings()) == r


@given(vectors(), vectors(), vectors())
def test_order_laws(a, b, c):
    assert a.leq(a)
    if a.leq(b) and b.leq(a):
        assert a == b
    if a.leq(b) and b.leq(c):
        assert a.leq(c)


@given(vectors(), vectors())
def test_lattice_laws(a, b):
    assert a.join(b) == b.join(a)
    assert a.meet(b) == b.meet(a)
    assert a.join(a) == a and a.meet(a) == a
    assert a.join(a.meet(b)) == a
    assert a.meet(a.join(b)) == a
    assert a.meet(b).leq(a)
    assert a.leq(a.join(b))


@given(vectors(), vectors(), vectors())
def test_add_laws(a, b, c):
    assert a.add(b) == b.add(a)
    assert a.add(b).add(c) == a.add(b.add(c))
    assert a.sub_saturating(a.add(b)) == ResourceVector.zeros(4)


@given(st.sets(vectors(), min_size=1, max_size=8))
def test_pareto_antichain_and_coverage(vs):
    front = pareto_min(vs)
    for x in front:
        for y in front:
            if x != y:
                assert compare(x, y) is OrderRelation.INCOMPARABLE
    for v in vs:
        assert any(f.leq(v) for f in front)
