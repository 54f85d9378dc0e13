"""Bigraded polynomial rings k[x_1..x_s; y_0..y_e] over an exact field.

The base variables carry bidegree (1, 0) and the fiber variables (0, 1).
Monomials are exponent tuples of length s + f, polynomials are immutable
sorted term lists, and every graded piece has a canonical ordered monomial
basis (graded-lexicographic, base variables before fiber variables).

Examples
========

>>> R = RingSpec(QQ, ("x", "y"), ("T",))
>>> x, y, T = R.gens()
>>> (x + y) * T
Polynomial(x*T + y*T)
>>> [R.monomial_str(m) for m in monomial_basis(R, (2, 1))]
['x^2*T', 'x*y*T', 'y^2*T']
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .fields import QQ, Value, _setattr  # QQ: the doctest above uses it

__all__ = [
    "GradingError",
    "RingSpec",
    "Polynomial",
    "SubmoduleSpec",
    "monomial_basis",
    "power_generators",
    "product_generators",
]


class GradingError(ValueError):
    pass


class RingSpec(Value):
    """A bigraded polynomial ring: field, base variables, fiber variables."""

    field: object
    base: tuple
    fiber: tuple

    def __post_init__(self):
        names = tuple(self.base) + tuple(self.fiber)
        if len(names) == 0:
            raise GradingError("ring needs at least one variable")
        if len(set(names)) != len(names):
            raise GradingError(f"duplicate variable names in {names}")
        for name in names:
            if not (name and name[0].isalpha() and name.replace("_", "").isalnum()):
                raise GradingError(f"bad variable name {name!r}")
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(self, "fiber", tuple(self.fiber))

    @property
    def nvars(self) -> int:
        return len(self.base) + len(self.fiber)

    @property
    def names(self) -> tuple:
        return self.base + self.fiber

    def bidegree_of_monomial(self, mono) -> tuple[int, int]:
        s = len(self.base)
        return (sum(mono[:s]), sum(mono[s:]))

    def monomial_str(self, mono) -> str:
        parts = []
        for name, e in zip(self.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def monomial(self, mono, coeff=1) -> "Polynomial":
        if len(mono) != self.nvars:
            raise GradingError(f"exponent tuple {mono} has wrong length")
        if any(e < 0 for e in mono):
            raise GradingError(f"negative exponent in {mono}")
        c = self.field.coerce(coeff)
        if self.field.is_zero(c):
            return Polynomial(self, ())
        return Polynomial(self, ((tuple(mono), c),))

    def gen(self, name) -> "Polynomial":
        idx = self.names.index(name)
        expo = tuple(1 if i == idx else 0 for i in range(self.nvars))
        return self.monomial(expo)

    def gens(self) -> tuple:
        return tuple(self.gen(name) for name in self.names)

    @property
    def one(self) -> "Polynomial":
        return self.monomial((0,) * self.nvars)

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def __repr__(self) -> str:
        return f"{self.field!r}[{','.join(self.base)};{','.join(self.fiber)}]"


class Polynomial(Value):
    """Immutable polynomial: term tuple sorted by descending monomial order.

    All arithmetic stays in the ring's field. Polynomials hash, so they can
    key caches of power and product generator sets. They are built often,
    hence the slots; the hash and the bidegree are computed once, on demand,
    and the hash is read straight from its slot, as tuple keys rehash it.
    """

    __slots__ = ("ring", "terms", "_hash", "_bidegree")
    ring: RingSpec
    terms: tuple  # ((exponent tuple, scalar), ...) with scalars nonzero

    def __init__(self, ring, terms):
        _setattr(self, "ring", ring)
        _setattr(self, "terms", terms)
        _setattr(self, "_hash", None)
        _setattr(self, "_bidegree", None)

    def __hash__(self):
        return Value.__hash__(self) if self._hash is None else self._hash

    @classmethod
    def from_dict(cls, ring, coeffs) -> "Polynomial":
        items = []
        for mono, c in coeffs.items():
            c = ring.field.coerce(c)
            if not ring.field.is_zero(c):
                items.append((tuple(mono), c))
        items.sort(key=lambda t: t[0], reverse=True)
        return cls(ring, tuple(items))

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def bidegree(self) -> tuple[int, int]:
        """Bidegree of a nonzero bihomogeneous polynomial.

        Raises GradingError naming an offending term when the terms do not
        all share one bidegree.
        """
        if self._bidegree is not None:
            return self._bidegree
        if not self.terms:
            raise GradingError("zero polynomial has no bidegree")
        deg = self.ring.bidegree_of_monomial(self.terms[0][0])
        for m, _ in self.terms[1:]:
            if self.ring.bidegree_of_monomial(m) != deg:
                raise GradingError(
                    f"mixed bidegrees in one polynomial: term {self.ring.monomial_str(m)}"
                    f" has bidegree {self.ring.bidegree_of_monomial(m)}, expected {deg}"
                )
        _setattr(self, "_bidegree", deg)
        return deg

    def fiber_degree(self) -> int:
        return self.bidegree()[1]

    def monic(self) -> "Polynomial":
        """Scale so the leading coefficient is 1 (canonical up to scalars)."""
        if not self.terms:
            return self
        f = self.ring.field
        lead = self.terms[0][1]
        if lead == f.one:
            return self
        inv = f.div(f.one, lead)
        return Polynomial(self.ring, tuple((m, f.mul(inv, c)) for m, c in self.terms))

    def _check_ring(self, other) -> None:
        if self.ring != other.ring:
            raise GradingError(f"mixed rings {self.ring!r} and {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.monomial((0,) * self.ring.nvars, other)
        self._check_ring(other)
        f = self.ring.field
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = f.add(acc.get(m, f.zero), c)
        return Polynomial.from_dict(self.ring, acc)

    __radd__ = __add__

    def __neg__(self):
        f = self.ring.field
        return Polynomial(self.ring, tuple((m, f.neg(c)) for m, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.monomial((0,) * self.ring.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            f = self.ring.field
            c = f.coerce(other)
            if f.is_zero(c):
                return self.ring.zero
            return Polynomial(self.ring, tuple((m, f.mul(c, cc)) for m, cc in self.terms))
        self._check_ring(other)
        f = self.ring.field
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                prev = acc.get(m)
                acc[m] = f.mul(c1, c2) if prev is None else f.add(prev, f.mul(c1, c2))
        return Polynomial.from_dict(self.ring, acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise GradingError("negative power of a polynomial")
        result = self.ring.one
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            ms = self.ring.monomial_str(m)
            if c == self.ring.field.one and ms != "1":
                parts.append(ms)
            elif ms == "1":
                parts.append(self.ring.field.to_str(c))
            else:
                parts.append(f"{self.ring.field.to_str(c)}*{ms}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def monomial_basis(ring: RingSpec, bidegree) -> tuple:
    """Ordered monomial basis of the ring's piece of the given bidegree.

    Within a fixed bidegree the graded-lexicographic order (base block
    first) is descending lexicographic order on exponent tuples.
    """
    a, n = bidegree
    if a < 0 or n < 0:
        return ()
    basis = [
        bp + fp
        for bp in _compositions(a, len(ring.base))
        for fp in _compositions(n, len(ring.fiber))
    ]
    basis.sort(reverse=True)
    return tuple(basis)


class SubmoduleSpec(Value):
    """Generators of H as a submodule of the fiber-degree-d part of the ring.

    Every generator is bihomogeneous with fiber degree exactly d. Base
    degrees may differ between generators, and the generator list is kept
    as given (no minimalization) apart from dropping zero entries. If all
    are monomials, ``_monomials`` keeps their exponents (else None).

    A spec whose generators are all monic monomials is its exponent tuple:
    its equality and hash read the ring, d and ``_monomials``, never a
    Polynomial, and one built from exponents (``_of_monomials``, as the
    products and powers of such specs are) makes its ``gens``, the shared
    ``_monic_monomial``s, only when they are read. Any other spec compares
    by its generators, coefficients included, so two specs are equal
    exactly when their rings, d and generator sequences are.
    """

    ring: RingSpec
    fiber_degree: int
    gens: tuple

    def __init__(self, ring, fiber_degree, gens):
        if fiber_degree < 0:
            raise GradingError("negative fiber degree")
        kept, monos = [], []
        for g in gens:
            if g.ring is not ring and g.ring != ring:
                raise GradingError("generator from a different ring")
            if g.is_zero():
                continue
            if g.fiber_degree() != fiber_degree:  # also rejects mixed bidegrees
                raise GradingError(
                    f"generator {g} has fiber degree {g.fiber_degree()},"
                    f" declared {fiber_degree}"
                )
            kept.append(g)
            if len(g.terms) == 1:
                monos.append(g.terms[0][0])
        kept = tuple(kept)
        monos = tuple(monos) if len(monos) == len(kept) else None
        one = ring.field.one
        monic = monos is not None and all(g.terms[0][1] == one for g in kept)
        self._set(ring, fiber_degree, kept, monos, monos if monic else kept)

    def _set(self, ring, fiber_degree, gens, monos, key) -> None:
        _setattr(self, "ring", ring)
        _setattr(self, "fiber_degree", fiber_degree)
        _setattr(self, "_gens", gens)
        _setattr(self, "_monomials", monos)
        _setattr(self, "_key", key)

    @classmethod
    def _of_monomials(cls, ring, fiber_degree, monos: tuple) -> "SubmoduleSpec":
        """The spec of the monic x^m for the exponent tuples ``monos``, in
        their order; the caller vouches that each has fiber degree d."""
        spec = object.__new__(cls)
        spec._set(ring, fiber_degree, None, monos, monos)
        return spec

    @property
    def gens(self) -> tuple:
        if self._gens is None:
            gens = tuple(_monic_monomial(self.ring, m) for m in self._monomials)
            _setattr(self, "_gens", gens)
        return self._gens

    def _values(self) -> tuple:
        return (self.ring, self.fiber_degree, self._key)

    def __repr__(self) -> str:
        inner = ", ".join(str(g) for g in self.gens) or "0"
        return f"SubmoduleSpec(d={self.fiber_degree}, <{inner}>)"


def _dedup_monic(polys) -> tuple:
    """Nonzero polys made monic, without repeats, by descending terms."""
    seen = {}
    for g in polys:
        if not g.is_zero():
            gm = g.monic()
            seen[gm.terms] = gm
    return tuple(sorted(seen.values(), key=lambda g: g.terms, reverse=True))


def _subtract(f, row: dict, c, tail: dict) -> None:
    """row -= c * tail in place, for rows {monomial: coeff in the field f}."""
    for m, v in tail.items():
        x = f.sub(row.get(m, f.zero), f.mul(c, v))
        if f.is_zero(x):
            row.pop(m, None)
        else:
            row[m] = x


def _reduce(f, row: dict, basis: dict) -> dict:
    """Reduce ``row``, {monomial: coeff in the field f}, in place by the
    reduced echelon ``basis``, {leading monomial: rest of its monic row}.
    The row it returns is empty exactly when it lay in the basis's span."""
    for lead in row.keys() & basis.keys():
        _subtract(f, row, row.pop(lead), basis[lead])
    return row


def _echelon(f, rows, full: int | None = None) -> dict:
    """The unique reduced echelon basis, as ``_reduce`` takes it, of the span
    of ``rows``, {monomial: coeff} of one bidegree it may change, to ``full`` rows."""
    basis = {}
    for row in rows:
        if not _reduce(f, row, basis):
            continue
        lead = max(row)
        inv = f.div(f.one, row.pop(lead))
        row = {m: f.mul(inv, c) for m, c in row.items()}
        for tail in basis.values():
            if lead in tail:
                _subtract(f, tail, tail.pop(lead), row)
        basis[lead] = row
        if len(basis) == full:
            break
    return basis


def _echelon_basis(ring: RingSpec, polys: tuple) -> tuple:
    """Reduced row-echelon basis of the span of same-bidegree ``polys``:
    ``_echelon``'s rows, monic and by descending leading monomial."""
    f = ring.field
    basis = _echelon(f, (dict(g.terms) for g in polys))
    return tuple(
        Polynomial(ring, ((lead, f.one),) + tuple(sorted(tail.items(), reverse=True)))
        for lead, tail in sorted(basis.items(), reverse=True)
    )


def _interreduce(ring: RingSpec, polys) -> list:
    """Nonzero bihomogeneous ``polys`` grouped by bidegree, in order of
    first appearance, with each group that holds a polynomial replaced by
    its ``_echelon_basis``: the same span at every bidegree."""
    groups = {}
    for g in polys:
        groups.setdefault(g.bidegree(), []).append(g)
    reduced = []
    for group in groups.values():
        if not all(g.is_monomial() for g in group):
            group = _echelon_basis(ring, tuple(group))
        reduced.extend(group)
    return reduced


@lru_cache(maxsize=4096)
def _monic_monomial(ring: RingSpec, mono: tuple) -> Polynomial:
    """The shared monic x^mono, so equal generators compare by identity."""
    return Polynomial(ring, ((mono, ring.field.one),))


@lru_cache(maxsize=None)
def power_generators(h: SubmoduleSpec, p: int) -> SubmoduleSpec:
    """Generators of H^p, built one factor at a time as H^(p-1)*H^1.

    H^1 = <1>*H is H's reduced basis: one echelon basis per bidegree. The
    product is bilinear, so any basis of each bidegree piece of a factor
    spans the same products, and ``product_generators`` returns the
    canonical basis of each bidegree's span. Multiplying by H^1 rather than
    by H's raw generators therefore gives the same H^p, and an H whose
    pieces reduce to monomials takes the all-monomial branch from p = 2 on.
    p = 0 gives the unit submodule <1> at fiber degree 0, as an exponent
    tuple, so the powers of a monomial H build no Polynomial.
    """
    if p < 0:
        raise GradingError("negative power of a submodule")
    if p == 0:
        return SubmoduleSpec._of_monomials(h.ring, 0, ((0,) * h.ring.nvars,))
    factor = h if p == 1 else power_generators(h, 1)
    return product_generators(power_generators(h, p - 1), factor)


@lru_cache(maxsize=None)
def product_generators(h1: SubmoduleSpec, h2: SubmoduleSpec) -> SubmoduleSpec:
    """Generators of H1*H2: the pairwise products, one basis per bidegree.

    When both factors are monomial, the products are sums of exponent
    tuples, deduplicated and sorted descending, and the product is built
    from them alone (``SubmoduleSpec._of_monomials``): no Polynomial, and
    one check that the leading sum has fiber degree d1 + d2. Otherwise the
    products are ``_interreduce``d: a bidegree group of monomials is kept
    as it is and only loses its scalar-multiple duplicates.
    """
    if h1.ring != h2.ring:
        raise GradingError("product of submodules over different rings")
    fiber_degree = h1.fiber_degree + h2.fiber_degree
    if h1._monomials is not None and h2._monomials is not None:
        sums = {tuple(map(add, m1, m2)) for m1 in h1._monomials for m2 in h2._monomials}
        monos = tuple(sorted(sums, reverse=True))
        if monos and h1.ring.bidegree_of_monomial(monos[0])[1] != fiber_degree:
            raise GradingError(f"product {monos[0]} not of fiber degree {fiber_degree}")
        return SubmoduleSpec._of_monomials(h1.ring, fiber_degree, monos)
    products = _interreduce(h1.ring, (g1 * g2 for g1 in h1.gens for g2 in h2.gens))
    return SubmoduleSpec(h1.ring, fiber_degree, _dedup_monic(products))
