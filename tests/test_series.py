import random

import pytest
from reference import monomial, mul, one

from macmahon.motivic import MotivicClass
from macmahon.series import (
    FactorProduct,
    NotPolynomialError,
    TruncatedSeries,
    TruncationProfile,
    gl_class,
    q_factorial,
)


def _random_series(profile, rng, terms=4, bound=3):
    s = TruncatedSeries.zero(profile)
    for _ in range(terms):
        exps = {v: rng.randint(0, c) for v, c in zip(profile.vars, profile.caps)}
        s = s + monomial(profile, exps, rng.randint(-bound, bound))
    return s


def _random_factor_product(rng, variables=("q", "t"), factors=3):
    fp = FactorProduct()
    for _ in range(factors):
        exps = {v: rng.randint(0, 2) for v in variables}
        if all(e == 0 for e in exps.values()):
            exps[variables[0]] = 1
        fp = fp * FactorProduct.from_factor(exps, rng.choice((-2, -1, 1, 2)))
    return fp


def test_basic_products():
    p = TruncationProfile(q=2)
    q = monomial(p, {"q": 1})
    minus_q = monomial(p, {"q": 1}, -1)
    assert sorted(mul(one(p) + q, one(p) + minus_q).coeffs.items()) == [((0,), 1), ((2,), -1)]
    assert (one(p) + q) + TruncatedSeries.zero(p) == one(p) + q


def test_mixed_variable_coefficient():
    p = TruncationProfile(q=2, t=1)
    a = one(p) + monomial(p, {"q": 1}) + monomial(p, {"q": 2})
    b = one(p) + monomial(p, {"t": 1})
    assert mul(a, b).coefficient({"q": 1, "t": 1}) == 1


def test_profile_mismatch_raises():
    a = one(TruncationProfile(q=2))
    b = one(TruncationProfile(q=3))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        mul(a, b)


def test_ring_axioms_randomized():
    rng = random.Random(20240811)
    profile = TruncationProfile(q=3, t=2)
    for _ in range(25):
        a = _random_series(profile, rng)
        b = _random_series(profile, rng)
        c = _random_series(profile, rng)
        assert a + b == b + a
        assert mul(a, b) == mul(b, a)
        assert (a + b) + c == a + (b + c)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b + c) == mul(a, b) + mul(a, c)


def test_expand_empty_and_geometric():
    p = TruncationProfile(q=3)
    assert FactorProduct().expand(p) == one(p)
    geo = FactorProduct.from_factor({"q": 1}, -1).expand(p)
    assert sorted(geo.coeffs.items()) == [((k,), 1) for k in range(4)]


def test_expand_is_multiplicative_randomized():
    rng = random.Random(1234)
    profile = TruncationProfile(q=4, t=3)
    for _ in range(20):
        f = _random_factor_product(rng)
        g = _random_factor_product(rng)
        assert (f * g).expand(profile) == mul(f.expand(profile), g.expand(profile))


def test_expand_beyond_caps_contributes_one():
    p = TruncationProfile(q=2)
    fp = FactorProduct.from_factor({"q": 5}, -3)
    assert fp.expand(p) == one(p)


def test_expand_unknown_variable():
    with pytest.raises(ValueError):
        FactorProduct.from_factor({"t": 1}).expand(TruncationProfile(q=2))


def test_forbidden_factor():
    with pytest.raises(ValueError):
        FactorProduct.from_factor({})
    with pytest.raises(ValueError):
        FactorProduct.from_factor({"q": 0})


def test_q_factorial_structure():
    assert q_factorial(0).is_one()
    assert q_factorial(1) == FactorProduct.from_factor({"q": 1})
    f3 = q_factorial(3)
    assert f3.factors == {(1, 0, 0, 0): 1, (2, 0, 0, 0): 1, (3, 0, 0, 0): 1}
    for n in range(7):
        series = q_factorial(n).expand(TruncationProfile(q=n * (n + 1) // 2 + 1))
        degrees = [vec[0] for vec in series.coeffs]
        assert max(degrees, default=0) == n * (n + 1) // 2
        assert series.coefficient({}) == 1


def _brute_force_gl_count(n, p):
    # every n x n matrix over F_p, keep the invertible ones
    import itertools

    count = 0
    for entries in itertools.product(range(p), repeat=n * n):
        mat = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
        # rank by elimination
        rank = 0
        m = [row[:] for row in mat]
        for c in range(n):
            piv = next((r for r in range(rank, n) if m[r][c] % p), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = pow(m[rank][c], -1, p)
            m[rank] = [(v * inv) % p for v in m[rank]]
            for r in range(n):
                if r != rank and m[r][c] % p:
                    f = m[r][c]
                    m[r] = [(v - f * w) % p for v, w in zip(m[r], m[rank])]
            rank += 1
        count += rank == n
    return count


def test_gl_class_values():
    assert gl_class(0).is_one()
    assert MotivicClass(gl_class(0)).evaluate(5) == 1
    assert MotivicClass(gl_class(1)).evaluate(3) == 2
    assert MotivicClass(gl_class(2)).evaluate(2) == _brute_force_gl_count(2, 2) == 6
    assert MotivicClass(gl_class(2)).evaluate(3) == _brute_force_gl_count(2, 3) == 48
    assert MotivicClass(gl_class(3)).evaluate(2) == _brute_force_gl_count(3, 2) == 168


def test_to_polynomial_cancellation():
    fp = q_factorial(3, "L") / (q_factorial(2, "L") * q_factorial(1, "L"))
    var, poly = fp.to_polynomial()
    assert var == "L"
    assert poly == {0: 1, 1: 1, 2: 1}


def test_to_polynomial_rejects_nonpolynomial():
    with pytest.raises(NotPolynomialError):
        (FactorProduct.from_factor({"q": 2}) / FactorProduct.from_factor({"q": 3})).to_polynomial()
    with pytest.raises(NotPolynomialError):
        FactorProduct.from_factor({"q": 1}, -1).to_polynomial()
    with pytest.raises(NotPolynomialError):
        (FactorProduct.from_factor({"q": 1}) * FactorProduct.from_factor({"t": 1})).to_polynomial()


def test_substitute_zero():
    fp = FactorProduct.from_factor({"t": 1}) * FactorProduct.from_factor({"q": 1}, -1)
    assert fp.substitute_zero("t") == FactorProduct.from_factor({"q": 1}, -1)
    mixed = FactorProduct.from_factor({"q": 1, "t": 2}, -4) * FactorProduct.from_factor({"q": 2})
    assert mixed.substitute_zero("t") == FactorProduct.from_factor({"q": 2})
    with pytest.raises(ValueError):
        FactorProduct.monomial({"t": 1}).substitute_zero("t")


def test_rename():
    fp = q_factorial(2, "q")
    assert fp.rename("q", "L") == q_factorial(2, "L")
    with pytest.raises(ValueError):
        (FactorProduct.from_factor({"q": 1}) * FactorProduct.from_factor({"L": 1})).rename("q", "L")


def test_profile_validation():
    with pytest.raises(ValueError):
        TruncationProfile(x=3)
    with pytest.raises(ValueError):
        TruncationProfile(q=-1)
    p = TruncationProfile(q=2, s=1)
    assert p.vars == ("q", "s")
    with pytest.raises(ValueError):
        p.cap("t")


@pytest.mark.parametrize(
    "call",
    [
        lambda: TruncationProfile(q=2.5),
        lambda: TruncationProfile(q=True),
        lambda: FactorProduct.from_factor({"q": 1.7}),
        lambda: FactorProduct.monomial({"q": 2.5}),
        lambda: FactorProduct.monomial({"q": 1}, 1.0),
        lambda: FactorProduct.from_factor({"q": 1}, 1.5),
    ],
    ids=["cap-float", "cap-bool", "factor-exponent", "monomial-exponent",
         "monomial-coeff", "multiplicity"],
)
def test_non_integer_input_rejected(call):
    # each was coerced by int() before: cap 2, cap 1, exponent 1, q^2, 1, 1
    with pytest.raises(ValueError, match="expected an integer"):
        call()
