"""Property tests of FactorProduct against naive references: TruncatedSeries
products for the expansion, the pairwise merge for FactorProduct.prod."""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import factor_inverse, factor_mul, monomial, mul, one

from macmahon.series import FactorProduct, TruncatedSeries, TruncationProfile, q_factorial

VARS = ("q", "t", "s")
PROFILE = TruncationProfile(q=3, t=2, s=2)

exponents = st.fixed_dictionaries({v: st.integers(0, 2) for v in VARS})
atoms = st.tuples(
    exponents.filter(lambda e: any(e.values())), st.sampled_from((-2, -1, 1, 2))
)
raw_products = st.tuples(st.sampled_from((1, -1)), exponents, st.lists(atoms, max_size=4))


def build(raw) -> FactorProduct:
    coeff, mono, factors = raw
    fp = FactorProduct.monomial(mono, coeff)
    for exps, mult in factors:
        fp = fp * FactorProduct.from_factor(exps, mult)
    return fp


def naive_expand(raw, profile: TruncationProfile) -> TruncatedSeries:
    """Repeated products of (1 - x^e), and of the geometric sum of x^e for
    each unit of negative multiplicity."""
    coeff, mono, factors = raw
    out = monomial(profile, mono, coeff)
    for exps, mult in factors:
        x = monomial(profile, exps)
        if mult > 0:
            term = one(profile) + monomial(profile, exps, -1)
        else:
            term, power = one(profile), one(profile)
            while power.coeffs:
                power = mul(power, x)
                term = term + power
        for _ in range(abs(mult)):
            out = mul(out, term)
    return out


products = raw_products.map(build)
settings_ = settings(max_examples=60, deadline=None)


@settings_
@given(products, products, products)
def test_group_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a / a).is_one()
    assert a * FactorProduct() == a
    assert FactorProduct() / (FactorProduct() / a) == a
    assert FactorProduct() / (a * b) == factor_mul(factor_inverse(a), factor_inverse(b))


@settings_
@given(st.lists(products, max_size=5), st.lists(products, max_size=5), st.data())
def test_prod_matches_pairwise_merge(nums, dens, data):
    # dividing again by some numerators drives their factors to multiplicity 0
    if nums:
        dens = dens + data.draw(st.lists(st.sampled_from(nums), max_size=3))
    expected = reduce(factor_mul, nums + [factor_inverse(d) for d in dens], FactorProduct())
    got = FactorProduct.prod(iter(nums), iter(dens))
    assert got == expected
    assert 0 not in got.factors.values()
    assert FactorProduct.prod(nums + dens, dens) == reduce(factor_mul, nums, FactorProduct())


def test_prod_edge_cases():
    x = FactorProduct.from_factor({"q": 1, "t": 2}, 3)
    minus_s = FactorProduct.monomial({"s": 2}, -1)
    assert FactorProduct.prod(()).is_one()
    assert FactorProduct.prod((x, x), (x, x)).factors == {}
    assert FactorProduct.prod((x,), (x, x)).factors == {(1, 2, 0, 0): -3}
    assert FactorProduct.prod((minus_s, minus_s)) == FactorProduct.monomial({"s": 4})
    assert FactorProduct.prod((), (minus_s,)) == FactorProduct(-1, (0, 0, -2, 0))


@settings_
@given(products, products)
def test_expand_is_multiplicative(a, b):
    assert (a * b).expand(PROFILE) == mul(a.expand(PROFILE), b.expand(PROFILE))


@settings_
@given(raw_products)
def test_expand_matches_naive_products(raw):
    assert build(raw).expand(PROFILE) == naive_expand(raw, PROFILE)


@settings_
@given(products)
def test_rename_round_trip(a):
    renamed = a.rename("q", "L")
    assert "q" not in renamed.variables()
    assert renamed.variables() == {"L" if v == "q" else v for v in a.variables()}
    assert renamed.rename("L", "q") == a


@settings_
@given(raw_products)
def test_substitute_zero_commutes_with_expansion(raw):
    coeff, mono, factors = raw
    raw = (coeff, {**mono, "t": 0}, factors)
    t = PROFILE.vars.index("t")
    full = build(raw).expand(PROFILE)
    at_zero = TruncatedSeries(PROFILE, {v: c for v, c in full.coeffs.items() if v[t] == 0})
    assert build(raw).substitute_zero("t").expand(PROFILE) == at_zero


@settings_
@given(
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 2)), max_size=3),
    st.integers(0, 5),
    st.data(),
)
def test_to_polynomial_agrees_with_expand(shift, numerator, n, data):
    # a Gaussian binomial needs true polynomial division, not just cancellation
    k = data.draw(st.integers(0, n))
    fp = FactorProduct.monomial({"L": shift}) * q_factorial(n, "L")
    fp = fp / (q_factorial(k, "L") * q_factorial(n - k, "L"))
    for e, mult in numerator:
        fp = fp * FactorProduct.from_factor({"L": e}, mult)
    var, poly = fp.to_polynomial()
    assert var in (None, "L")
    cap = max(poly) + 2
    expected = {(d,): c for d, c in poly.items() if c}
    assert fp.expand(TruncationProfile(L=cap)).coeffs == expected


# -- the dense expansion kernel against the naive products -------------------

caps = st.fixed_dictionaries({v: st.integers(0, 3) for v in VARS})
small_atoms = st.tuples(
    exponents.filter(lambda e: any(e.values())), st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4))
)


@settings_
@given(caps, st.sampled_from((1, -1)), exponents, st.lists(small_atoms, max_size=3))
def test_dense_expand_matches_naive_any_caps(cap, coeff, mono, factors):
    # caps of 0 included; multiplicities +-1 up to +-4 over three variables
    profile = TruncationProfile(**cap)
    raw = (coeff, mono, factors)
    assert build(raw).expand(profile) == naive_expand(raw, profile)


@pytest.mark.parametrize(
    "raw, profile",
    [
        # negative multiplicities with a zero coordinate in the exponent vector
        ((1, {}, [({"q": 1, "t": 0, "s": 0}, -3)]), PROFILE),
        ((-1, {"s": 1}, [({"q": 0, "t": 1, "s": 1}, -2), ({"q": 2, "t": 0, "s": 0}, -1)]), PROFILE),
        # a monomial past a cap gives the zero series
        ((1, {"q": 4}, [({"q": 1}, -1)]), PROFILE),
        ((-1, {"t": 3, "s": 1}, [({"s": 1}, 2)]), PROFILE),
        # caps of 0: only the constant term survives
        ((1, {}, [({"q": 1}, -4), ({"t": 1, "s": 1}, 3)]), TruncationProfile(q=0, t=0, s=0)),
        ((-1, {}, [({"q": 1}, -2)]), TruncationProfile(q=0, t=2, s=0)),
        # q^2 fits the caps but not the view that starts at q^2
        ((1, {"q": 2}, [({"q": 2}, -1), ({"q": 2}, 3), ({"q": 1, "t": 1}, -2)]), PROFILE),
        ((1, {"t": 2}, [({"t": 1}, -2), ({"q": 1, "t": 1}, 1)]), PROFILE),
    ],
    ids=["zero-coordinate", "zero-coordinate-mixed", "monomial-past-cap",
         "monomial-past-cap-mixed", "caps-zero", "caps-zero-t", "factor-past-view",
         "factor-past-view-t"],
)
def test_dense_expand_edge_cases(raw, profile):
    expanded = build(raw).expand(profile)
    assert expanded == naive_expand(raw, profile)
    assert all(isinstance(c, int) and c for c in expanded.coeffs.values())
    assert all(type(e) is int for vec in expanded.coeffs for e in vec)


def test_dense_expand_edge_case_values():
    # the naive reference is itself pinned on three of the cases above
    geometric = build((1, {}, [({"q": 1}, -3)])).expand(TruncationProfile(q=3))
    assert sorted(geometric.coeffs.items()) == [((0,), 1), ((1,), 3), ((2,), 6), ((3,), 10)]
    assert build((1, {"q": 4}, [({"q": 1}, -1)])).expand(PROFILE).coeffs == {}
    capped = build((-1, {}, [({"q": 1}, -2)])).expand(TruncationProfile(q=0, t=2, s=0))
    assert sorted(capped.coeffs.items()) == [((0, 0, 0), -1)]
