"""Field arithmetic and exact linear algebra.

The rank oracle here is independent of the elimination code: it expands
all square minors and looks for a nonzero determinant, which is viable
for the small matrices hypothesis generates.
"""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import brmult.linalg as linalg
from brmult.fields import FieldError, PrimeField, QQ
from brmult.linalg import MODULUS, subspace_dim
from dense_oracle import Matrix, ShapeError, rank, rref

F7 = PrimeField(7)
BIG_P = PrimeField(2**31 - 1)


def sparse(rows):
    """Dense rows as the ``{column: nonzero entry}`` rows ``subspace_dim`` takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def det_by_permutations(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= Fraction(rows[i][perm[i]])
        total += sign * prod
    return total


def rank_by_minors(rows, ncols):
    nrows = len(rows)
    for size in range(min(nrows, ncols), 0, -1):
        for ris in combinations(range(nrows), size):
            for cis in combinations(range(ncols), size):
                sub = [[rows[i][j] for j in cis] for i in ris]
                if det_by_permutations(sub) != 0:
                    return size
    return 0


def test_rational_field_basics():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 2)) == Fraction(1)
    assert QQ.div(QQ.one, Fraction(-4)) == Fraction(-1, 4)
    assert QQ.is_zero(QQ.sub(Fraction(5), Fraction(5)))
    with pytest.raises(ZeroDivisionError):
        QQ.div(QQ.one, Fraction(0))


def test_prime_field_basics():
    f = F7
    assert f.coerce(10) == 3
    assert f.coerce(-1) == 6
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.neg(0) == 0
    for a in range(1, 7):
        assert f.mul(a, f.div(f.one, a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.div(f.one, 0)


def test_prime_field_rejects_composites():
    for n in (0, 1, 4, 6, 9, 561, 2**32):
        with pytest.raises(FieldError):
            PrimeField(n)
    for p in (2, 3, 5, 2**31 - 1, 1000000007):
        assert PrimeField(p).p == p


small_entries = st.integers(min_value=-9, max_value=9)
small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(
            st.lists(small_entries, min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


def low_rank_rows(draw, entries):
    """A product of nrows x k and k x ncols matrices, so rank <= k."""
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=0, max_value=min(nrows, ncols)))
    left = [[draw(entries) for _ in range(k)] for _ in range(nrows)]
    right = [[draw(entries) for _ in range(ncols)] for _ in range(k)]
    return [
        [
            sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
            for j in range(ncols)
        ]
        for i in range(nrows)
    ]


integer_entries = st.integers(min_value=-10**12, max_value=10**12)
# k * MODULUS + s reduces to s in {-1, 0, 1}; such images mod p often
# lose rank that the matrix over Q has, so the exact fallback must run
wrapped_entries = st.builds(
    lambda k, s: k * MODULUS + s,
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-1, max_value=1),
)
rational_entries = st.fractions(max_denominator=10**6).filter(
    lambda x: abs(x.numerator) <= 10**12
)


@st.composite
def kernel_matrices(draw):
    entries = draw(
        st.sampled_from(
            [small_entries, integer_entries, wrapped_entries, rational_entries]
        )
    )
    if draw(st.booleans()):
        return low_rank_rows(draw, entries)
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=6))
    return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_rank_matches_minor_oracle(rows):
    m = Matrix.from_rows(QQ, rows)
    assert rank(m) == rank_by_minors(rows, m.ncols)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_rank_matches_minor_oracle_mod_7(rows):
    reduced = [[x % 7 for x in row] for row in rows]
    m = Matrix.from_rows(F7, reduced)
    oracle = 0
    nrows, ncols = len(reduced), len(reduced[0])
    for size in range(min(nrows, ncols), 0, -1):
        found = False
        for ris in combinations(range(nrows), size):
            for cis in combinations(range(ncols), size):
                sub = [[reduced[i][j] for j in cis] for i in ris]
                if det_by_permutations(sub) % 7 != 0:
                    found = True
                    break
            if found:
                break
        if found:
            oracle = size
            break
    assert rank(m) == oracle


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_rref_is_idempotent(rows):
    m = Matrix.from_rows(QQ, rows)
    once, rk1 = rref(m)
    twice, rk2 = rref(once)
    assert once == twice
    assert rk1 == rk2


@given(small_matrices, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_rref_ignores_row_order(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    a, rka = rref(Matrix.from_rows(QQ, rows))
    b, rkb = rref(Matrix.from_rows(QQ, shuffled))
    assert rka == rkb
    nonzero_a = tuple(r for r in a.rows if any(x != 0 for x in r))
    nonzero_b = tuple(r for r in b.rows if any(x != 0 for x in r))
    assert nonzero_a == nonzero_b


@given(kernel_matrices())
@settings(max_examples=250, deadline=None)
def test_subspace_dim_matches_rref_rank(rows):
    assert subspace_dim(sparse(rows), QQ) == rank(Matrix.from_rows(QQ, rows))


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_rank_agrees_between_q_and_big_prime(rows):
    # entries are at most 9 in absolute value and minors at most 4x4, so
    # every nonzero rational minor stays nonzero modulo 2^31 - 1
    assert rank(Matrix.from_rows(QQ, rows)) == rank(
        Matrix.from_rows(BIG_P, rows)
    )


def test_matrix_shape_validation():
    with pytest.raises(ShapeError):
        Matrix(QQ, 2, 2, ((QQ.one,),))


def test_entries_vanishing_mod_p_are_dropped():
    # 7 is zero in F_7, so both rows are multiples of (0, 1)
    assert subspace_dim(sparse([[7, 1], [0, 1]]), F7) == 1
    assert subspace_dim(sparse([[7, 14], [21, 0]]), F7) == 0


@pytest.mark.parametrize(
    "rows", [[[MODULUS, 0], [0, 1]], [[1, 1], [1, 1 + MODULUS]]]
)
def test_rank_over_q_falls_back_when_p_divides_a_minor(rows, monkeypatch):
    moduli = []
    kernel = linalg._rank

    def spy(sparse_rows, ncols, modulus):
        moduli.append(modulus)
        return kernel(sparse_rows, ncols, modulus)

    monkeypatch.setattr(linalg, "_rank", spy)
    assert subspace_dim(sparse(rows), QQ) == 2
    assert moduli == [MODULUS, None]
    assert subspace_dim(sparse(rows), BIG_P) == 1


def test_rref_known_form():
    m = Matrix.from_rows(QQ, [[2, 4, 6], [1, 2, 4]])
    reduced, rk = rref(m)
    assert rk == 2
    assert reduced.rows == (
        (Fraction(1), Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )
