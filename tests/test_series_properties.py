"""Property tests of FactorProduct against naive references: TruncatedSeries
products for the expansion and for the grouped sum expand_sum, the pairwise
merge for FactorProduct.prod, and cyclotomic multiplicities for polynomial
certification."""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import factor_inverse, factor_mul, monomial, mul, one

from macmahon.series import (
    FactorProduct,
    NotPolynomialError,
    TruncatedSeries,
    TruncationProfile,
    expand_sum,
    q_factorial,
)

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
    assert a / a == FactorProduct()
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
    assert FactorProduct.prod(()) == FactorProduct()
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


@settings_
@given(
    st.sampled_from((1, -1)),
    st.integers(-2, 3),
    st.dictionaries(st.integers(1, 8), st.integers(-2, 2), max_size=8),
)
def test_to_polynomial_certifies_exactly_the_cyclotomic_polynomials(coeff, shift, mults):
    # With Psi_1 = 1 - L and Psi_d = Phi_d for d > 1, 1 - L^k is the product
    # of Psi_d over the divisors d of k. The Psi_d are pairwise coprime
    # irreducibles, so the product is a polynomial exactly when L^shift and
    # every Psi_d have nonnegative total multiplicity.
    fp = FactorProduct.prod(
        [FactorProduct.monomial({"L": shift}, coeff)]
        + [FactorProduct.from_factor({"L": k}, m) for k, m in mults.items()]
    )
    polynomial = shift >= 0 and all(
        sum(m for k, m in mults.items() if k % d == 0) >= 0 for d in range(1, 9)
    )
    if not polynomial:
        with pytest.raises(NotPolynomialError):
            fp.to_polynomial()
        return
    var, poly = fp.to_polynomial()
    assert var in (None, "L")
    cap = max(poly) + 2
    assert fp.expand(TruncationProfile(L=cap)).coeffs == {(d,): c for d, c in poly.items()}
    assert all(poly.values())


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


# -- the grouped kernel against a sum of naive products ----------------------

wide_exponents = st.fixed_dictionaries({v: st.integers(0, 4) for v in VARS})


def scaled(series: TruncatedSeries, count: int) -> TruncatedSeries:
    return TruncatedSeries(series.profile, {k: count * c for k, c in series.coeffs.items() if count * c})


@settings_
@given(caps, st.lists(st.lists(small_atoms, max_size=3), min_size=1, max_size=3), st.data())
def test_expand_sum_matches_sum_of_naive_products(cap, multisets, data):
    # up to 8 terms drawn over at most 3 factor multisets, so several share
    # one: coefficients -1, counts of either sign (like terms' counts may add
    # up to 0), monomials past the caps and negative multiplicities all occur
    profile = TruncationProfile(**cap)
    raw_terms = st.tuples(st.sampled_from((1, -1)), wide_exponents, st.sampled_from(multisets))
    drawn = data.draw(st.lists(st.tuples(raw_terms, st.integers(-3, 3)), max_size=8))
    terms: dict[FactorProduct, int] = {}
    expected = TruncatedSeries(profile)
    for raw, count in drawn:
        fp = build(raw)
        terms[fp] = terms.get(fp, 0) + count
        expected = expected + scaled(naive_expand(raw, profile), count)
    assert expand_sum(profile, terms) == expected


def test_expand_sum_cancellations():
    profile = TruncationProfile(q=3, t=2)
    geometric = FactorProduct.from_factor({"q": 1}, -1)
    shifted = geometric * FactorProduct.monomial({"t": 1})
    # a product and its negative with one count, and a count of 0, sum to 0
    negated = geometric * FactorProduct.monomial({"t": 1}, -1)
    assert expand_sum(profile, {shifted: 2, negated: 2, geometric: 0}).coeffs == {}
    assert expand_sum(profile, {}).coeffs == {}
    # one multiset, three monomials, one past the t cap: one group, one sum
    terms = {geometric: 3, shifted: -1, geometric * FactorProduct.monomial({"t": 3}): 5}
    got = expand_sum(profile, terms)
    assert got == scaled(geometric.expand(profile), 3) + scaled(shifted.expand(profile), -1)
    assert sorted(got.coeffs.items()) == [((q, t), 3 if t == 0 else -1) for q in range(4) for t in (0, 1)]
    # a count is an int, also for a term past the caps
    for count in (1.0, True):
        with pytest.raises(ValueError, match="expected an integer"):
            expand_sum(profile, {geometric * FactorProduct.monomial({"t": 3}): count})
