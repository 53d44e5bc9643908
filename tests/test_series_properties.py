"""Property tests of FactorProduct against naive TruncatedSeries references."""

from hypothesis import given, settings
from hypothesis import strategies as st

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
    one = TruncatedSeries.one(profile)
    out = TruncatedSeries.monomial(profile, mono, coeff)
    for exps, mult in factors:
        x = TruncatedSeries.monomial(profile, exps)
        if mult > 0:
            term = one + TruncatedSeries.monomial(profile, exps, -1)
        else:
            term, power = one, one
            while not power.is_zero():
                power = power * x
                term = term + power
        for _ in range(abs(mult)):
            out = out * term
    return out


products = raw_products.map(build)
settings_ = settings(max_examples=60, deadline=None)


@settings_
@given(products, products, products)
def test_group_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a / a).is_one()
    assert a * FactorProduct.one() == a
    assert a.inverse().inverse() == a
    assert (a * b).inverse() == a.inverse() * b.inverse()


@settings_
@given(products, products)
def test_expand_is_multiplicative(a, b):
    assert (a * b).expand(PROFILE) == a.expand(PROFILE) * b.expand(PROFILE)


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
