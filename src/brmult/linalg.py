"""Exact elimination over Q or F_p: ranks, echelon bases and membership.

One sparse kernel does every elimination. Rows are ``{column: nonzero
value}`` dicts led by their least column; ``_echelon`` keeps a pivot
under each leading column until they fill the columns, and ``_reduce``
clears a row's leading entries by them, mod a prime or, when the
modulus is None, exactly. Ranks, ``rings._echelon_basis`` and the
membership tests of ``filtration`` all run on it.

Over F_p a rank runs on residues. Over Q it first runs on the image
mod ``MODULUS`` = 2^31 - 1: each row is scaled by the lcm of its
denominators to an integer row, then reduced mod p, so no denominator
is ever inverted mod p. For an integer matrix, rank mod p <= rank over
Q <= min(rows, cols), so a modular rank equal to min(rows, cols) is the
exact rank. Otherwise the kernel runs again in exact ``Fraction``
arithmetic.
"""

from __future__ import annotations

from math import lcm

from .fields import PrimeField

MODULUS = 2**31 - 1


def _reduce(row: dict, pivots: dict, modulus):
    """Reduce ``row`` in place by ``pivots``, mod ``modulus`` or exactly
    when it is None, until its leading column leads no pivot: return that
    column, or None once the row is empty, as it is exactly when it lay in
    the pivots' span. Later entries may still be in pivot columns."""
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            return lead
        c = row.pop(lead)
        for j, v in pivot:
            x = row.get(j, 0) - c * v
            if modulus is not None:
                x %= modulus
            if x:
                row[j] = x
            else:
                del row[j]
    return None


def _echelon(rows, ncols: int, modulus) -> dict:
    """The pivots of sparse ``rows``, which it changes, up to ``ncols``:
    {leading column: [(column, value), ...] of the rest of its monic row}.
    Entries must be nonzero, as a zero-valued lead could not be inverted."""
    pivots: dict[int, list] = {}
    for row in rows:
        lead = _reduce(row, pivots, modulus)
        if lead is None:
            continue
        lead_value = row.pop(lead)
        if modulus is None:
            inv = 1 / lead_value
            pivots[lead] = [(j, inv * v) for j, v in row.items()]
        else:
            inv = pow(lead_value, -1, modulus)
            pivots[lead] = [(j, inv * v % modulus) for j, v in row.items()]
        if len(pivots) == ncols:
            break
    return pivots


def _rank(rows, ncols: int, modulus) -> int:
    """Rank of sparse ``rows``, mod ``modulus`` or exactly when it is None."""
    return len(_echelon(rows, ncols, modulus))


def _modulus(field):
    """The ``modulus`` the kernel takes for ``field``: p for F_p, None for Q."""
    return field.p if isinstance(field, PrimeField) else None


def _integer_residues(row: dict) -> dict:
    """``row`` over Q, scaled to an integer row and reduced mod MODULUS."""
    scale = lcm(*(x.denominator for x in row.values()))
    out = {}
    for j, x in row.items():
        v = x.numerator * (scale // x.denominator) % MODULUS
        if v:
            out[j] = v
    return out


def subspace_dim(rows: list, field) -> int:
    """Dimension of the span of ``rows``, a list of sparse rows.

    Each row is a ``{column: nonzero scalar}`` dict; it is not modified.
    Ranks over Q are certified mod ``MODULUS`` and recomputed exactly
    only when the certificate fails.
    """
    ncols = len({j for row in rows for j in row})
    if (p := _modulus(field)) is not None:
        residues = ({j: x % p for j, x in row.items() if x % p} for row in rows)
        return _rank(residues, ncols, p)
    rank = _rank((_integer_residues(row) for row in rows), ncols, MODULUS)
    if rank == min(len(rows), ncols):
        return rank
    exact = ({j: field.coerce(x) for j, x in row.items()} for row in rows)
    return _rank(exact, ncols, None)
