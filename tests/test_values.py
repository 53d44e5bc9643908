"""Every value type is a frozen dataclass: no field of a value, shared from a
cache or not, can be reassigned, and equality and hashing agree however a
value was built."""

from dataclasses import FrozenInstanceError, fields

import pytest

from macmahon.fforacle import ChainInstance, GridInstance
from macmahon.motivic import MotivicClass, fixed_component_class, limit_class
from macmahon.partitions import (
    DiagramTuple,
    PlanePartition,
    YoungDiagram,
    enumerate_diagram_tuples,
    enumerate_plane_partitions,
)
from macmahon.series import FactorProduct, TruncatedSeries, TruncationProfile, gl_class, q_factorial
from macmahon.vuletic import little_f

# one value of each type, with the names of all its fields
VALUES = [
    (YoungDiagram([2, 1]), ("rows",)),
    (PlanePartition([[2, 1], [1]]), ("rows",)),
    (DiagramTuple([YoungDiagram([1]), YoungDiagram(())]), ("diagrams",)),
    (TruncationProfile(q=2, t=3), ("vars", "caps", "cells", "_inside", "_outside")),
    (FactorProduct.from_factor({"q": 1}).expand(TruncationProfile(q=2)), ("profile", "coeffs")),
    (FactorProduct.monomial({"q": 1}) / FactorProduct.from_factor({"t": 1}), ("coeff", "mono", "factors")),
    (MotivicClass(q_factorial(2, "L")), ("factors", "_poly")),
    (ChainInstance((2, 1), (1, 1)), ("mu", "nu", "h", "budget")),
    (GridInstance(PlanePartition([[1]])), ("partition", "budget")),
]


@pytest.mark.parametrize("value, names", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_no_field_can_be_reassigned_or_deleted(value, names):
    assert tuple(f.name for f in fields(value)) == names
    for name in names:
        before = getattr(value, name)
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    assert not hasattr(value, "__dict__")


SHARED = {
    "q_factorial": q_factorial(2, "L"),
    "gl_class": gl_class(2),
    "little_f": little_f(2, 1),
    "limit_class": limit_class(PlanePartition([[2, 1], [1]])),
}


@pytest.mark.parametrize("shared", SHARED.values(), ids=SHARED.keys())
def test_shared_products_refuse_writes(shared):
    for name, value in (("coeff", -1), ("mono", (1, 0, 0, 0)), ("factors", {})):
        with pytest.raises(AttributeError):
            setattr(shared, name, value)
    with pytest.raises(TypeError):
        shared.factors[(0, 0, 0, 9)] = 1


def test_a_refused_write_leaves_later_classes_unchanged():
    with pytest.raises(AttributeError):
        q_factorial(2, "L").coeff = -1
    gl_class.cache_clear()  # rebuilt from the shared q-factorial
    assert MotivicClass(gl_class(2)).polynomial() == {1: 1, 2: -1, 3: -1, 4: 1}

    shared = fixed_component_class(3, PlanePartition([[1]]))
    with pytest.raises(AttributeError):
        shared.factors = FactorProduct()
    again = fixed_component_class(3, PlanePartition([[1]]))
    assert again is shared
    assert again.factors == FactorProduct.from_factor({"L": 3}) / FactorProduct.from_factor({"L": 1})
    assert again.polynomial() == {0: 1, 1: 1, 2: 1}


def test_series_coefficients_are_read_only():
    series = FactorProduct.from_factor({"q": 1}).expand(TruncationProfile(q=2))
    with pytest.raises(TypeError):
        series.coeffs[(0,)] = 5
    assert dict(series.coeffs) == {(0,): 1, (1,): -1}
    source = {(1,): 3}
    built = TruncatedSeries(TruncationProfile(q=2), source)
    source[(1,)] = 4
    assert dict(built.coeffs) == {(1,): 3}


def _equal_with_equal_hashes(a, b):
    return a == b and b == a and hash(a) == hash(b)


def test_equal_values_hash_equally_however_built():
    listed = next(pi for pi in enumerate_plane_partitions(3) if pi.rows == ((2, 1),))
    assert _equal_with_equal_hashes(PlanePartition([[2, 1, 0], []]), listed)
    pair = next(tup for tup in enumerate_diagram_tuples(2, 1) if tup.diagrams[0].rows == (1,))
    assert _equal_with_equal_hashes(DiagramTuple([YoungDiagram([1, 0]), YoungDiagram(())]), pair)

    x, y = FactorProduct.from_factor({"q": 1}), FactorProduct.from_factor({"t": 2}, -2)
    sign, below = FactorProduct.monomial({"s": 1}, -1), FactorProduct.from_factor({"q": 3})
    forward = FactorProduct.prod((x, y, sign), (below,))
    backward = FactorProduct.prod((sign, y, x), (below,))
    assert list(forward.factors) != list(backward.factors)
    assert _equal_with_equal_hashes(forward, backward)
    assert repr(forward) == repr(backward)
    assert len({forward, backward, forward * FactorProduct()}) == 1

    assert _equal_with_equal_hashes(TruncationProfile(q=2, t=3), TruncationProfile(t=3, q=2))


def test_values_differing_in_type_or_in_a_field_are_unequal():
    assert YoungDiagram(()).rows == PlanePartition(()).rows
    assert YoungDiagram(()) != PlanePartition(())
    assert TruncationProfile(q=2) != TruncationProfile(q=3)
    assert FactorProduct() != FactorProduct(-1)
    assert FactorProduct.monomial({"q": 1}) != FactorProduct.from_factor({"q": 1})


def test_a_class_is_equal_to_itself_only():
    a, b = MotivicClass(q_factorial(2, "L")), MotivicClass(q_factorial(2, "L"))
    assert a == a and a != b
    assert len({a, b}) == 2
