"""Exact ranks of spanning sets over Q or F_p.

One sparse elimination kernel computes every rank. Rows are
``{column: nonzero value}`` dicts, each pivot is kept under its leading
column, and elimination stops as soon as the rank reaches the number of
distinct columns the rows use.

Over F_p the kernel runs on residues. Over Q it first runs on the image
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


def _rank(rows, ncols: int, modulus) -> int:
    """Rank of sparse ``rows``, mod ``modulus`` or exactly when it is None.

    Each row's entries must be nonzero: a zero-valued leading entry
    could not be inverted.
    """
    pivots: dict[int, list] = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                break
            c = row.pop(lead)
            for j, v in pivot:
                x = row.get(j, 0) - c * v
                if modulus is not None:
                    x %= modulus
                if x:
                    row[j] = x
                else:
                    del row[j]
        if not row:
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
    return len(pivots)


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
    if isinstance(field, PrimeField):
        p = field.p
        residues = ({j: x % p for j, x in row.items() if x % p} for row in rows)
        return _rank(residues, ncols, p)
    rank = _rank((_integer_residues(row) for row in rows), ncols, MODULUS)
    if rank == min(len(rows), ncols):
        return rank
    exact = ({j: field.coerce(x) for j, x in row.items()} for row in rows)
    return _rank(exact, ncols, None)
