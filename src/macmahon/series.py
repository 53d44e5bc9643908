"""Exact truncated power series and factored products over the integers.

Every coefficient is a Python int; nothing in this module ever constructs a
float. Series live in a fixed four-variable alphabet with per-variable
exponent caps. Products of atomic factors (1 - x^e)^m stay in factored form
until explicitly expanded, so cancellation between numerators and
denominators is exact multiset arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .partitions import exact_int

# Closed variable alphabet. "L" is the class of the affine line; identities
# that specialize a formal variable to that class simply rename q -> L.
ALPHABET = ("q", "t", "s", "L")

_ALPHABET_INDEX = {v: i for i, v in enumerate(ALPHABET)}

# An exponent vector over the whole alphabet, indexed like ALPHABET.
Vector = tuple[int, int, int, int]

_ZERO: Vector = (0, 0, 0, 0)

# Most cells prod(cap + 1) of a profile, and most slice updates times cells
# of one expansion; past either, BudgetExceededError.
CELL_LIMIT = 10**6
EXPAND_LIMIT = 10**9


class NotPolynomialError(ValueError):
    """A factored product failed exact polynomial division."""


class BudgetExceededError(RuntimeError):
    """A run would exceed a fixed budget of work or memory."""


def _index(var: str) -> int:
    try:
        return _ALPHABET_INDEX[var]
    except KeyError:
        raise ValueError(f"unknown variable {var!r}; alphabet is {ALPHABET}") from None


def _alphabet_vector(exponents: Mapping[str, int]) -> Vector:
    vec = list(_ZERO)
    for var, e in exponents.items():
        vec[_index(var)] = exact_int(e)
    return tuple(vec)


def _pairs(vec: Vector) -> tuple[tuple[str, int], ...]:
    """The nonzero (variable, exponent) pairs of a vector, in ALPHABET order.

    Also the sort key that orders factors for certification and display.
    """
    return tuple((v, e) for v, e in zip(ALPHABET, vec) if e)


class TruncationProfile:
    """Per-variable exponent caps; variables not listed are disallowed. A
    profile of more than CELL_LIMIT cells is refused when it is built."""

    __slots__ = ("vars", "caps", "cells", "_inside", "_outside")

    def __init__(self, **caps: int):
        for var, cap in caps.items():
            _index(var)  # rejects a variable outside the alphabet
            if exact_int(cap) < 0:
                raise ValueError(f"cap for {var!r} must be nonnegative")
        self.vars: tuple[str, ...] = tuple(v for v in ALPHABET if v in caps)
        self.caps: tuple[int, ...] = tuple(caps[v] for v in self.vars)
        self.cells = prod(c + 1 for c in self.caps)
        if self.cells > CELL_LIMIT:
            raise BudgetExceededError(
                f"{self!r} has {self.cells} cells, over the limit {CELL_LIMIT}"
            )
        self._inside = tuple(_ALPHABET_INDEX[v] for v in self.vars)
        self._outside = tuple(i for i in range(len(ALPHABET)) if i not in self._inside)

    def cap(self, var: str) -> int:
        try:
            return self.caps[self.vars.index(var)]
        except ValueError:
            raise ValueError(f"variable {var!r} not allowed by profile {self!r}") from None

    def coordinates(self, vec: Vector) -> tuple[int, ...] | None:
        """This profile's exponent vector for an ALPHABET vector, or None
        when beyond caps."""
        for i in self._outside:
            if vec[i]:
                raise ValueError(f"variable {ALPHABET[i]!r} not allowed by profile {self!r}")
        out = tuple(vec[i] for i in self._inside)
        if any(e < 0 for e in out):
            raise ValueError(f"negative exponent in {dict(_pairs(vec))}")
        return out if all(e <= c for e, c in zip(out, self.caps)) else None

    def vector(self, exponents: Mapping[str, int]) -> tuple[int, ...] | None:
        """Full exponent vector for this profile, or None when beyond caps."""
        return self.coordinates(_alphabet_vector(exponents))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncationProfile)
            and self.vars == other.vars
            and self.caps == other.caps
        )

    def __hash__(self) -> int:
        return hash((self.vars, self.caps))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}:{c}" for v, c in zip(self.vars, self.caps))
        return f"TruncationProfile({inner})"


class TruncatedSeries:
    """Sparse multivariate polynomial modulo the profile's exponent caps."""

    __slots__ = ("profile", "coeffs")

    def __init__(self, profile: TruncationProfile, coeffs: Mapping[tuple[int, ...], int] = ()):
        self.profile = profile
        self.coeffs: dict[tuple[int, ...], int] = dict(coeffs)

    @classmethod
    def zero(cls, profile: TruncationProfile) -> TruncatedSeries:
        return cls(profile)

    def _require_same(self, other: TruncatedSeries) -> None:
        if self.profile != other.profile:
            raise ValueError(f"profile mismatch: {self.profile!r} vs {other.profile!r}")

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._require_same(other)
        out = dict(self.coeffs)
        for vec, c in other.coeffs.items():
            nc = out.get(vec, 0) + c
            if nc:
                out[vec] = nc
            else:
                out.pop(vec, None)
        return TruncatedSeries(self.profile, out)

    def coefficient(self, exponents: Mapping[str, int]) -> int:
        vec = self.profile.vector(exponents)
        return 0 if vec is None else self.coeffs.get(vec, 0)

    def first_difference(self, other: TruncatedSeries) -> dict | None:
        """Smallest exponent vector where the two series disagree, ready for
        JSON: {"exponents": [...], "lhs": decimal string, "rhs": ...}."""
        self._require_same(other)
        diff = [k for k in set(self.coeffs) | set(other.coeffs)
                if self.coeffs.get(k, 0) != other.coeffs.get(k, 0)]
        if not diff:
            return None
        vec = min(diff)
        left, right = self.coeffs.get(vec, 0), other.coeffs.get(vec, 0)
        return {"exponents": list(vec), "lhs": str(left), "rhs": str(right)}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.profile == other.profile
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.profile!r}, {len(self.coeffs)} terms)"


class FactorProduct:
    """A signed monomial times a multiset of atomic factors (1 - x^e)^m.

    The monomial and every factor key are exponent vectors indexed like
    ALPHABET. The vector e of a factor key is nonzero with nonnegative
    entries, so every factor has constant term 1 and the whole product is a
    unit in the integer power-series ring. Multiplication and division merge
    multiplicities; common factors cancel exactly before any expansion.
    """

    __slots__ = ("coeff", "mono", "factors")

    def __init__(
        self,
        coeff: int = 1,
        mono: Vector = _ZERO,
        factors: Mapping[Vector, int] | None = None,
    ):
        if coeff not in (1, -1):
            raise ValueError("prefactor coefficient must be +1 or -1")
        self.coeff = coeff
        self.mono = mono
        # read-only, so that memoized products can be shared
        self.factors: Mapping[Vector, int] = MappingProxyType(dict(factors or {}))

    @classmethod
    def monomial(cls, exponents: Mapping[str, int], coeff: int = 1) -> FactorProduct:
        return cls(exact_int(coeff), _alphabet_vector(exponents), {})

    @classmethod
    def from_factor(cls, exponents: Mapping[str, int], multiplicity: int = 1) -> FactorProduct:
        key = _alphabet_vector(exponents)
        if key == _ZERO:
            raise ValueError("the factor (1 - 1) is forbidden")
        if min(key) < 0:
            raise ValueError("factor exponents must be nonnegative")
        if exact_int(multiplicity) == 0:
            return cls()
        return cls(1, _ZERO, {key: multiplicity})

    @classmethod
    def prod(
        cls, numerators: Iterable[FactorProduct], denominators: Iterable[FactorProduct] = ()
    ) -> FactorProduct:
        """The numerators' product over the denominators' in one pass: signs multiply,
        exponents and multiplicities add, and a multiplicity that reaches 0 is dropped."""
        coeff, mono, factors = 1, _ZERO, {}
        for sign, group in ((1, numerators), (-1, denominators)):
            for fp in group:
                coeff *= fp.coeff
                if fp.mono != _ZERO:
                    mono = tuple(a + sign * b for a, b in zip(mono, fp.mono))
                for key, m in fp.factors.items():
                    total = factors.get(key, 0) + sign * m
                    if total:
                        factors[key] = total
                    else:
                        del factors[key]
        return cls(coeff, mono, factors)

    def __mul__(self, other: FactorProduct) -> FactorProduct:
        return FactorProduct.prod((self, other))

    def __truediv__(self, other: FactorProduct) -> FactorProduct:
        return FactorProduct.prod((self,), (other,))

    def is_one(self) -> bool:
        return self.coeff == 1 and self.mono == _ZERO and not self.factors

    def variables(self) -> set[str]:
        return {v for v, column in zip(ALPHABET, zip(self.mono, *self.factors)) if any(column)}

    def substitute_zero(self, var: str) -> FactorProduct:
        """Set a variable to zero.

        Every factor whose exponent vector touches the variable has constant
        term 1 and collapses to 1; the monomial prefactor must not involve
        the variable (the result would vanish or blow up).
        """
        i = _index(var)
        if self.mono[i]:
            raise ValueError(f"monomial prefactor involves {var!r}; specialization is singular")
        factors = {k: m for k, m in self.factors.items() if not k[i]}
        return FactorProduct(self.coeff, self.mono, factors)

    def rename(self, old: str, new: str) -> FactorProduct:
        if old == new:
            return self
        if new in self.variables():
            raise ValueError(f"variable {new!r} already present")
        # the new variable's coordinate is zero everywhere, so renaming is a swap
        order = list(range(len(ALPHABET)))
        i, j = _index(old), _index(new)
        order[i], order[j] = j, i

        def rekey(vec: Vector) -> Vector:
            return tuple(vec[k] for k in order)

        return FactorProduct(
            self.coeff, rekey(self.mono), {rekey(k): m for k, m in self.factors.items()}
        )

    def _ordered_factors(self) -> list[tuple[Vector, int]]:
        return sorted(self.factors.items(), key=lambda item: _pairs(item[0]))

    def expand(self, profile: TruncationProfile) -> TruncatedSeries:
        """Exact expansion truncated to the profile, on one dense array of
        Python ints that starts at the monomial (no cell below it is reached).

        (1 - x^e)^m with m > 0 is m in-place updates a[e:] -= a[:-e]; numpy
        buffers the overlapping operands, so each reads the old values. With
        m < 0 it is -m rounds of prod_j (1 + x^(2^j e)), one slice add per
        doubling that fits. A factor that does not fit contributes 1. Past
        EXPAND_LIMIT the expansion is refused before the array exists.
        """
        if min(self.mono) < 0:
            raise ValueError("negative exponent in monomial prefactor; cannot expand")
        start = profile.coordinates(self.mono)
        if start is None:
            return TruncatedSeries(profile)
        shape = tuple(c - s + 1 for c, s in zip(profile.caps, start))
        steps, updates = [], 0
        for key, mult in self.factors.items():
            vec = profile.coordinates(key)
            shifts = []
            while vec is not None and all(e < n for e, n in zip(vec, shape)):
                shifts.append((tuple(slice(e, None) for e in vec),
                               tuple(slice(0, n - e) for e, n in zip(vec, shape))))
                vec = tuple(2 * e for e in vec) if mult < 0 else None
            if shifts:
                steps.append((np.subtract if mult > 0 else np.add, shifts, abs(mult)))
                updates += len(shifts) * abs(mult)
        if updates * prod(shape) > EXPAND_LIMIT:
            raise BudgetExceededError(
                f"{updates} slice updates of {prod(shape)} cells exceed the limit {EXPAND_LIMIT}"
            )
        a = np.zeros(shape, dtype=object)
        a[(0,) * len(shape)] = self.coeff
        for ufunc, shifts, rounds in steps:
            for _ in range(rounds):
                for hi, lo in shifts:
                    view = a[hi]
                    ufunc(view, a[lo], out=view)
        cells = product(*(range(s, c + 1) for s, c in zip(start, profile.caps)))
        return TruncatedSeries(profile, {k: c for k, c in zip(cells, a.ravel().tolist()) if c})

    def to_polynomial(self) -> tuple[str | None, dict[int, int]]:
        """Certify the product as a univariate polynomial.

        Returns (variable, {degree: coefficient}); the variable is None for
        constants. Raises NotPolynomialError when more than one variable is
        involved or a denominator factor fails to divide out exactly.
        """
        vars_used = self.variables()
        if len(vars_used) > 1:
            raise NotPolynomialError(f"not univariate: {sorted(vars_used)}")
        if not vars_used:
            return None, {0: self.coeff}
        var = vars_used.pop()
        i = _ALPHABET_INDEX[var]
        poly = {0: self.coeff}
        negatives: list[tuple[int, int]] = []
        for key, mult in self._ordered_factors():
            if mult > 0:
                for _ in range(mult):
                    poly = _mul_one_minus(poly, key[i])
            else:
                negatives.append((key[i], -mult))
        for e, count in negatives:
            for _ in range(count):
                poly = _div_one_minus(poly, e)
        shift = self.mono[i]
        if shift:
            if shift < 0 and any(d < -shift for d in poly):
                raise NotPolynomialError("monomial denominator does not divide")
            poly = {d + shift: c for d, c in poly.items()}
        return var, poly

    def _key(self) -> tuple:
        return (self.coeff, self.mono, tuple(sorted(self.factors.items())))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FactorProduct) and self._key() == other._key()

    def __repr__(self) -> str:
        def fmt_mono(vec: Vector) -> str:
            return " ".join(f"{v}^{e}" if e != 1 else v for v, e in _pairs(vec)) or "1"

        parts = [] if self.coeff == 1 else ["-"]
        if self.mono != _ZERO:
            parts.append(fmt_mono(self.mono))
        for key, m in self._ordered_factors():
            parts.append(f"(1 - {fmt_mono(key)})^{m}" if m != 1 else f"(1 - {fmt_mono(key)})")
        return "FactorProduct[" + (" ".join(parts) or "1") + "]"


def _mul_one_minus(poly: dict[int, int], e: int) -> dict[int, int]:
    out = dict(poly)
    for d, c in poly.items():
        nc = out.get(d + e, 0) - c
        if nc:
            out[d + e] = nc
        else:
            out.pop(d + e, None)
    return out


def _div_one_minus(poly: dict[int, int], e: int) -> dict[int, int]:
    """Exact quotient poly / (1 - x^e); verified by multiplying back."""
    if not poly:
        return {}
    deg = max(poly)
    q: dict[int, int] = {}
    for d in range(deg + 1):
        c = poly.get(d, 0) + q.get(d - e, 0)
        if c:
            q[d] = c
    if _mul_one_minus(q, e) != poly:
        raise NotPolynomialError(f"factor (1 - x^{e}) does not divide exactly")
    return q


@lru_cache(maxsize=None, typed=True)
def q_factorial(n: int, var: str = "q") -> FactorProduct:
    """(1 - x)(1 - x^2)...(1 - x^n); the empty product 1 for n = 0. Shared."""
    if n < 0:
        raise ValueError("q-factorial needs a nonnegative order")
    return FactorProduct.prod(FactorProduct.from_factor({var: i}) for i in range(1, n + 1))


@lru_cache(maxsize=None, typed=True)
def gl_class(n: int) -> FactorProduct:
    """Class of the invertible n x n matrices, prod_{i<n} (L^n - L^i).

    Normalized to the factored form (-1)^n L^(n(n-1)/2) (1-L)...(1-L^n),
    which keeps the sign bookkeeping exact. Shared, like q_factorial.
    """
    if n < 0:
        raise ValueError("gl_class needs a nonnegative rank")
    sign = 1 if n % 2 == 0 else -1
    return FactorProduct.monomial({"L": n * (n - 1) // 2}, sign) * q_factorial(n, "L")
