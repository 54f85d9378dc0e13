"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain Python values (``fractions.Fraction`` for Q, ``int``
residues in ``[0, p)`` for F_p) and every operation goes through a field
object, so no floating point can sneak in anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


_setattr = object.__setattr__


class Value:
    """Base of the immutable value classes: a frozen dataclass, without
    the code generation that makes ``dataclasses`` slow to import.

    A subclass declares its fields as annotated class attributes, and a
    class attribute of the same name is the field's default. Instances
    are built by position or keyword and then checked by
    ``__post_init__``. They compare equal by exact class and fields, hash
    their field tuple once, refuse assignment and have the dataclass repr.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args))
            unknown = values.keys() & kwargs or kwargs.keys() - set(fields)
            if len(args) > len(fields) or unknown:
                raise TypeError(f"{cls.__name__}() got bad arguments {args}, {kwargs}")
            values.update(kwargs)
            for field in fields:
                if field not in values and not hasattr(cls, field):
                    raise TypeError(f"{cls.__name__}() missing field {field!r}")
            args = [values[f] if f in values else getattr(cls, f) for f in fields]
        for field, value in zip(fields, args):
            _setattr(self, field, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._values())
            _setattr(self, "_hash", h)
        return h

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10**24."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField(Value):
    """The field Q with arbitrary-precision rational scalars."""

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise FieldError(f"cannot coerce {value!r} into Q")

    zero, one = Fraction(0), Fraction(1)  # shared: Fractions are immutable

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a == 0

    def to_str(self, a) -> str:
        return str(a)

    def __repr__(self) -> str:
        return "Q"


class PrimeField(Value):
    """The prime field F_p; scalars are int residues in [0, p).

    Lengths over F_p are those of the characteristic-p problem; they can
    differ from the characteristic-zero values when p divides a minor, so
    they are not authoritative for Q. Ranks over Q need no such field:
    ``linalg.subspace_dim`` computes them mod 2^31 - 1 itself, certifies
    them and falls back to exact arithmetic.
    """

    p: int

    def __post_init__(self):
        if not _is_probable_prime(self.p):
            raise FieldError(f"{self.p} is not prime")

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise FieldError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        raise FieldError(f"cannot coerce {value!r} into F_{self.p}")

    zero, one = 0, 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return a * pow(b, -1, self.p) % self.p

    def neg(self, a):
        return -a % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def to_str(self, a) -> str:
        return str(a)

    def __repr__(self) -> str:
        return f"F_{self.p}"


QQ = RationalField()
