"""Exact scalars of the prime fields GF(p) and of the rationals.

Scalars are plain Python values kept in canonical form: an ``int`` residue in
``[0, p)`` for a prime field, a reduced ``fractions.Fraction`` for the
rationals.  A :class:`Field` coerces, checks, negates and serializes them; it
never wraps scalars in a dedicated element type, so equality and hashing of
scalars are structural.  :meth:`Field.check` rejects scalars that are not
canonical members of the field, and negation and serialization go through
it, which is how accidental mixing of fields surfaces as an explicit error.
Bulk arithmetic lives in the numpy kernels of :mod:`raagcheeger.pairing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


class FieldError(ValueError):
    """Invalid field construction or foreign scalar."""


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the witnesses above decides primality exactly below this bound
_WITNESS_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact primality for n < _WITNESS_BOUND."""
    if n < 2:
        return False
    if n in _WITNESSES:
        return True
    if any(n % w == 0 for w in _WITNESSES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for w in _WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """A field of scalars: GF(p) for prime p, or the rational numbers.

    ``characteristic`` is ``p`` for prime fields and ``0`` for the rationals.
    """

    characteristic: int

    def __post_init__(self) -> None:
        if not self.characteristic:
            return
        if self.characteristic >= _WITNESS_BOUND:
            raise FieldError(
                f"prime field characteristic must be below {_WITNESS_BOUND}, where "
                f"primality is decided exactly, got {self.characteristic}"
            )
        if not _is_prime(self.characteristic):
            raise FieldError(f"prime field characteristic must be prime, got {self.characteristic}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def gf(p: int) -> "Field":
        if not p:
            raise FieldError(f"prime field characteristic must be prime, got {p}")
        return Field(p)

    @staticmethod
    def rationals() -> "Field":
        return Field(0)

    @staticmethod
    def from_name(name: str) -> "Field":
        """Parse a field name such as ``"gf2"``, ``"gf17"`` or ``"rational"``."""
        name = name.strip().lower()
        if name in ("rational", "rationals", "q", "qq"):
            return Field.rationals()
        if name.startswith("gf"):
            try:
                p = int(name[2:])
            except ValueError:
                raise FieldError(f"cannot parse field name {name!r}") from None
            return Field.gf(p)
        raise FieldError(f"cannot parse field name {name!r}")

    @property
    def name(self) -> str:
        return f"gf{self.characteristic}" if self.characteristic else "rational"

    @property
    def is_prime_field(self) -> bool:
        return self.characteristic != 0

    def __repr__(self) -> str:
        return f"Field({self.name})"

    # -- canonical scalars -------------------------------------------------

    @property
    def zero(self) -> Scalar:
        return 0 if self.is_prime_field else Fraction(0)

    @property
    def one(self) -> Scalar:
        return 1 if self.is_prime_field else Fraction(1)

    def element(self, value) -> Scalar:
        """Coerce ``value`` to a canonical scalar of this field.

        Prime fields accept integers (reduced mod p) and integer strings.
        The rationals accept integers, ``Fraction`` and strings like "2/3".
        """
        if self.is_prime_field:
            if isinstance(value, bool):
                raise FieldError(f"not a GF({self.characteristic}) scalar: {value!r}")
            if isinstance(value, int):
                return value % self.characteristic
            if isinstance(value, str):
                return int(value) % self.characteristic
            raise FieldError(f"not a GF({self.characteristic}) scalar: {value!r}")
        if isinstance(value, bool):
            raise FieldError(f"not a rational scalar: {value!r}")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise FieldError(f"not a rational scalar: {value!r}")

    def check(self, value: Scalar) -> Scalar:
        """Return ``value`` if it is a canonical member of this field, else raise.

        This is the guard against mixing fields: a rational ``Fraction`` fed to
        a GF(p) operation, or an out-of-range residue, is rejected.
        """
        if self.is_prime_field:
            if isinstance(value, bool) or not isinstance(value, int):
                raise FieldError(f"scalar {value!r} does not belong to {self.name}")
            if not 0 <= value < self.characteristic:
                raise FieldError(
                    f"scalar {value!r} is not a canonical residue of {self.name}"
                )
            return value
        if not isinstance(value, Fraction):
            raise FieldError(f"scalar {value!r} does not belong to {self.name}")
        return value

    def neg(self, a: Scalar) -> Scalar:
        self.check(a)
        if self.is_prime_field:
            return (-a) % self.characteristic
        return -a

    # -- serialization -----------------------------------------------------

    def serialize_scalar(self, a: Scalar):
        """JSON form of a scalar: an int, or "num/den" for non-integral rationals."""
        self.check(a)
        if self.is_prime_field:
            return a
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"


GF2 = Field.gf(2)
GF3 = Field.gf(3)
GF5 = Field.gf(5)
QQ = Field.rationals()
