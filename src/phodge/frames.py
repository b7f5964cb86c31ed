"""Arithmetic context: the prime p, the coefficient field, and its automorphism.

The default frame works over the rationals with the identity automorphism,
which is the situation of a prime residue field (K = K0).  A finite extension
of the rationals, presented by a monic irreducible polynomial, is supported so
that a nontrivial automorphism can be exercised; extension elements overload
the usual arithmetic operators and slot into the generic linear algebra.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import ValidationError

# an optional sign, ASCII digits and an optional "/digits" denominator; no
# spaces, decimal points, exponents or underscores, which Fraction would read
_RATIONAL_STRING = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(data, where: str) -> Fraction:
    """An exact rational from JSON: an integer or a string such as "-3/4".

    Floats and booleans are rejected, so no inexact or accidental value ever
    becomes a scalar.  Strings must be "num" or "num/den" in ASCII digits: an
    exponent such as "1e999999999" would otherwise build a huge integer.
    """
    if isinstance(data, bool) or not isinstance(data, (int, str)):
        raise ValidationError(f"{where}: {type(data).__name__} scalar {data!r} rejected; write exact scalars as strings like \"3/4\"")
    if isinstance(data, str) and not _RATIONAL_STRING.fullmatch(data):
        raise ValidationError(f"{where}: scalar string {data!r} rejected; write exact scalars as strings like \"3/4\"")
    try:
        return Fraction(data)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{where}: unreadable scalar {data!r}") from None


def parse_dim(data, where: str) -> int:
    """A dimension from JSON: a nonnegative integer, or a string of one.

    Floats, booleans and negative values are rejected rather than truncated,
    read as 0 or 1, or silently dropped.
    """
    if isinstance(data, bool) or not isinstance(data, (int, str)):
        raise ValidationError(f"{where}: {type(data).__name__} dimension {data!r} rejected; write a nonnegative integer")
    try:
        value = int(data)
    except ValueError:
        raise ValidationError(f"{where}: unreadable dimension {data!r}") from None
    if value < 0:
        raise ValidationError(f"{where}: negative dimension {value} rejected")
    return value


# Miller-Rabin with the first 13 primes as bases is exact below PRIME_CAP
# (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CAP = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < PRIME_CAP."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for b in _PRIME_BASES:
        x = pow(b, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        if a[-1] == 0:
            a.pop()
            continue
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i, y in enumerate(b):
            a[shift + i] -= f * y
        a.pop()
    return q, _poly_trim(a)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _poly_trim([x - y for x, y in zip(a, b)])


class NumberField:
    """Q[t]/(modulus), modulus monic with rational coefficients."""

    def __init__(self, modulus: Sequence[Union[Fraction, int, str]]):
        coeffs = [Fraction(c) for c in modulus]
        if len(coeffs) < 3:
            raise ValidationError("extension modulus must have degree >= 2")
        if coeffs[-1] != 1:
            raise ValidationError("extension modulus must be monic")
        self.modulus = tuple(coeffs)
        self.degree = len(coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def element(self, coeffs) -> "ExtScalar":
        c = [Fraction(x) for x in coeffs]
        if len(c) > self.degree:
            _, c = _poly_divmod(c, list(self.modulus))
        c = c + [Fraction(0)] * (self.degree - len(c))
        return ExtScalar(self, tuple(c[: self.degree]))

    def zero(self) -> "ExtScalar":
        return self.element([])

    def one(self) -> "ExtScalar":
        return self.element([1])

    def generator(self) -> "ExtScalar":
        return self.element([0, 1])


class ExtScalar:
    """Element of a NumberField in the power basis; supports field arithmetic."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def _coerce(self, other):
        if isinstance(other, ExtScalar):
            if other.field != self.field:
                raise ValidationError("mixed extension fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        return NotImplemented

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.modulus, self.coeffs))

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ExtScalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return ExtScalar(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        prod = _poly_mul(list(self.coeffs), list(o.coeffs))
        return self.field.element(prod)

    __rmul__ = __mul__

    def inverse(self) -> "ExtScalar":
        if not self:
            raise ZeroDivisionError("inverse of zero extension element")
        # extended Euclid in Q[t] against the modulus
        r0, r1 = list(self.field.modulus), _poly_trim(self.coeffs)
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            s = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, r
            s0, s1 = s1, s
        lead = r0[-1]  # gcd is a nonzero constant when the modulus is irreducible
        if len(r0) != 1:
            raise ZeroDivisionError("element is a zero divisor; modulus not irreducible")
        return self.field.element([c / lead for c in s0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __repr__(self):
        return f"ExtScalar({list(map(str, self.coeffs))})"


@dataclass(frozen=True)
class CoefficientFrame:
    """The prime p, the coefficient field, and the automorphism acting on it.

    With no extension the field is Q and the automorphism must be the
    identity.  With an extension, the automorphism is determined by the image
    of the generator, which must be a root of the modulus (this makes the
    induced map a field automorphism, hence unital and multiplicative).
    """

    p: int
    extension: Optional[NumberField] = None
    sigma_generator_image: Optional[tuple] = None

    def __post_init__(self):
        if self.p >= PRIME_CAP:
            raise ValidationError(f"p = {self.p} is not below {PRIME_CAP}, the bound of the exact primality test")
        if not _is_prime(self.p):
            raise ValidationError(f"p = {self.p} is not prime")
        if self.extension is None:
            if self.sigma_generator_image is not None:
                raise ValidationError("sigma must be the identity without an extension")
        else:
            # sigma is an automorphism iff the generator maps to a root
            if self._at_sigma_image(self.extension.modulus):
                raise ValidationError("sigma image is not a root of the modulus")

    def _at_sigma_image(self, coeffs) -> ExtScalar:
        """The polynomial with these coefficients, low degree first, evaluated
        at the image of the generator."""
        img = self.sigma_image()
        acc = self.extension.zero()
        power = self.extension.one()
        for c in coeffs:
            acc = acc + power * c
            power = power * img
        return acc

    def sigma_image(self) -> ExtScalar:
        assert self.extension is not None
        if self.sigma_generator_image is None:
            return self.extension.generator()
        return self.extension.element(self.sigma_generator_image)

    @property
    def sigma_is_identity(self) -> bool:
        if self.extension is None:
            return True
        return self.sigma_image() == self.extension.generator()

    def zero(self):
        return self.extension.zero() if self.extension else Fraction(0)

    def one(self):
        return self.extension.one() if self.extension else Fraction(1)

    def scalar(self, value) -> object:
        if self.extension is None:
            if isinstance(value, ExtScalar):
                raise ValidationError("extension scalar in a rational frame")
            return Fraction(value)
        if isinstance(value, ExtScalar):
            if value.field != self.extension:
                raise ValidationError("scalar from a different extension")
            return value
        return self.extension.element([Fraction(value)])

    def sigma(self, value):
        """Apply the automorphism to one scalar."""
        if self.extension is None:
            return Fraction(value)
        return self._at_sigma_image(self.scalar(value).coeffs)

    def parse_scalar(self, data) -> object:
        if isinstance(data, str):
            return self.scalar(parse_rational(data, "scalar"))
        if isinstance(data, list):
            if self.extension is None:
                raise ValidationError("coefficient-array scalar in a rational frame")
            return self.extension.element([parse_rational(c, f"scalar coefficient {i}") for i, c in enumerate(data)])
        raise ValidationError(f"unreadable scalar {data!r}")

    def format_scalar(self, value) -> object:
        if isinstance(value, ExtScalar):
            return [str(c) for c in value.coeffs]
        return str(Fraction(value))


RATIONAL_FRAME_P5 = CoefficientFrame(p=5)
