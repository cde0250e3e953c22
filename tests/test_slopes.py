from math import gcd

import pytest
from hypothesis import given, strategies as st

from coilbounds.bounds import CONSTANTS
from coilbounds.errors import NonHyperbolicSlope, ZeroOverZero
from coilbounds.slopes import (
    CoilSpec,
    ContinuedFraction,
    Slope,
    canonical_coil_slope,
    cfrac_eval,
    cfrac_expand,
    mirror_slope,
    reduce_slope,
)
from coilbounds.slopes import _cfrac_length


def test_reduce_examples():
    assert reduce_slope(4, 10) == Slope(2, 5)
    assert reduce_slope(3, -5) == Slope(-3, 5)
    assert reduce_slope(7, 0) == Slope(1, 0)


def test_zero_over_zero():
    with pytest.raises(ZeroOverZero):
        reduce_slope(0, 0)
    with pytest.raises(ZeroOverZero):
        Slope(0, 0)


def test_slope_must_be_normalized():
    for (p, q), message in (((1, -2), "denominator must be normalized non-negative"),
                            ((2, 0), "the infinite slope must be written 1/0"),
                            ((2, 4), "2/4 is not reduced")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Slope(p, q)


def test_slope_text_roundtrip():
    for text in ("2/5", "-3/5", "1/0"):
        assert str(Slope.parse(text)) == text


def test_canonical_examples():
    assert canonical_coil_slope(Slope.parse("7/5")) == Slope(2, 5)
    assert canonical_coil_slope(Slope.parse("-2/5")) == Slope(3, 5)
    with pytest.raises(NonHyperbolicSlope):
        canonical_coil_slope(Slope.parse("3/1"))
    with pytest.raises(NonHyperbolicSlope):
        canonical_coil_slope(Slope.parse("0/1"))
    with pytest.raises(NonHyperbolicSlope):
        canonical_coil_slope(Slope.parse("1/0"))


def test_cfrac_examples():
    assert cfrac_expand(Slope(2, 5)).terms == (2, 2)
    assert cfrac_expand(Slope(3, 5)).terms == (1, 1, 2)
    assert cfrac_expand(Slope(1, 2)).terms == (2,)
    assert cfrac_eval(ContinuedFraction((2, 2))) == Slope(2, 5)
    assert cfrac_eval(ContinuedFraction((1, 1, 2))) == Slope(3, 5)
    for q in (2, 3, 9):
        assert cfrac_eval(ContinuedFraction((q,))) == Slope(1, q)
    with pytest.raises(ValueError, match=r"^cfrac_expand needs 0 < p < q, got 3/2$"):
        cfrac_expand(Slope(3, 2))


def test_cfrac_canonicality_enforced():
    with pytest.raises(ValueError):
        ContinuedFraction((1, 1))
    with pytest.raises(ValueError):
        ContinuedFraction(())
    with pytest.raises(ValueError):
        ContinuedFraction((2, 0))
    assert ContinuedFraction((1,)).length == 1  # single term may be 1 by convention


def test_cfrac_text():
    c = ContinuedFraction((1, 1, 2))
    assert str(c) == "[1,1,2]"
    assert ContinuedFraction.parse("[1,1,2]") == c


def test_value_records():
    """Named tuples behave as the frozen records they replaced: the same
    repr, equal values hash equal, and no field can be assigned."""
    s, spec, c = Slope(2, 5), CoilSpec(2, 5, 4, 4), ContinuedFraction((2, 2))
    assert repr(s) == "Slope(p=2, q=5)"
    assert repr(spec) == "CoilSpec(p=2, q=5, n1=4, n2=4)"
    assert repr(c) == "ContinuedFraction(terms=(2, 2))"
    assert hash(s) == hash(reduce_slope(4, 10)) and s == reduce_slope(4, 10)
    assert hash(spec) == hash(CoilSpec(2, 5, 4, 4))
    assert hash(c) == hash(cfrac_expand(s)) and c == cfrac_expand(s)
    for record, field in ((s, "p"), (spec, "n1"), (c, "terms"), (CONSTANTS, "v3")):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
    assert tuple(CoilSpec(2, 5, 4, 4)._asdict()) == ("p", "q", "n1", "n2")


def test_mirror_examples():
    assert mirror_slope(Slope(2, 5)) == Slope(3, 5)
    assert mirror_slope(Slope(1, 2)) == Slope(1, 2)
    assert mirror_slope(Slope(3, 7)) == Slope(4, 7)
    with pytest.raises(ValueError, match=r"^mirror_slope needs 0 < p < q, got 1/0$"):
        mirror_slope(Slope(1, 0))


def test_mirror_involution():
    for q in range(2, 60):
        for p in range(1, q):
            if gcd(p, q) == 1:
                s = Slope(p, q)
                assert mirror_slope(mirror_slope(s)) == s


def test_k_at_least_one():
    for q in range(2, 80):
        for p in range(1, q):
            if gcd(p, q) == 1:
                assert cfrac_expand(Slope(p, q)).length >= 1


def test_cfrac_uniqueness_exhaustive():
    """No two canonical term sequences evaluate to the same slope (q <= 200)."""
    cap = 200
    seen = {}

    def denominator(terms):
        num, den = terms[-1], 1
        for a in reversed(terms[:-1]):
            num, den = a * num + den, num
        return num

    def explore(prefix):
        if denominator(prefix) > cap:
            return False  # appending terms only grows the denominator
        if prefix[-1] >= 2 or len(prefix) == 1:
            s = cfrac_eval(ContinuedFraction(tuple(prefix)))
            if s.q >= 2:
                assert s not in seen, (prefix, seen[s])
                seen[s] = tuple(prefix)
        a = 1
        while True:
            prefix.append(a)
            alive = explore(prefix)
            prefix.pop()
            if not alive:
                return True
            a += 1

    a = 1
    while explore([a]):
        a += 1
    expected = sum(1 for q in range(2, cap + 1) for p in range(1, q) if gcd(p, q) == 1)
    assert len(seen) == expected


@given(
    p=st.integers(min_value=1, max_value=10**6),
    q=st.integers(min_value=2, max_value=10**6),
)
def test_roundtrip_random(p, q):
    g = gcd(p, q)
    p, q = p // g, q // g
    if p >= q:
        p %= q
    if p == 0 or q < 2:
        return
    s = Slope(p, q)
    c = cfrac_expand(s)
    assert all(a >= 1 for a in c.terms)
    assert c.terms[-1] >= 2 or c.length == 1
    assert cfrac_eval(c) == s


@given(st.integers(-50, 50), st.integers(0, 50))
def test_reduce_always_valid(n, d):
    if (n, d) == (0, 0):
        return
    s = reduce_slope(n, d)
    assert gcd(abs(s.p), s.q) == 1
    assert s.q >= 0


def test_cfrac_length_every_pair_to_300():
    for q in range(2, 301):
        for p in range(1, q):
            if gcd(p, q) == 1:
                s = Slope(p, q)
                assert _cfrac_length(s) == cfrac_expand(s).length, s


@st.composite
def _big_proper_slopes(draw):
    """Reduced p/q with 0 < p < q and q of up to 1000 digits."""
    q = draw(st.integers(2, 10**1000))
    p = draw(st.integers(1, q - 1).filter(lambda p: gcd(p, q) == 1))
    return Slope(p, q)


@given(_big_proper_slopes())
def test_cfrac_length_matches_expansion(s):
    assert _cfrac_length(s) == cfrac_expand(s).length
