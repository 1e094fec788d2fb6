"""Flat-lattice laws (property tests)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.lattice import (
    FLAT_BOT,
    FLAT_TOP,
    FlatValue,
    flat_const,
    flat_join,
)

flat_values = st.one_of(
    st.just(FLAT_BOT),
    st.just(FLAT_TOP),
    st.integers(min_value=-5, max_value=5).map(flat_const),
)


@given(flat_values, flat_values)
def test_join_commutative(a, b):
    assert flat_join(a, b) == flat_join(b, a)


@given(flat_values, flat_values, flat_values)
def test_join_associative(a, b, c):
    assert flat_join(flat_join(a, b), c) == flat_join(a, flat_join(b, c))


@given(flat_values)
def test_join_idempotent(a):
    assert flat_join(a, a) == a


@given(flat_values)
def test_bot_identity_top_absorbing(a):
    assert flat_join(FLAT_BOT, a) == a
    assert flat_join(FLAT_TOP, a) == FLAT_TOP


def test_distinct_constants_join_to_top():
    assert flat_join(flat_const(1), flat_const(2)) == FLAT_TOP


def test_equal_constants_join_to_self():
    assert flat_join(flat_const(3), flat_const(3)) == flat_const(3)


def test_flags():
    assert FLAT_BOT.is_bot and not FLAT_BOT.is_const
    assert FLAT_TOP.is_top
    assert flat_const(0).is_const


def test_const_requires_value():
    import pytest

    with pytest.raises(ValueError):
        FlatValue("const")
    with pytest.raises(ValueError):
        FlatValue("weird")
