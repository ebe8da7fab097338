"""Vectorized mod-p linear algebra: determinants, reduced echelon forms,
nullspaces — validated against independent exact references across both the
int16 fast path (p <= 17) and the int64 path."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from quiverdt.modp import (
    combos_with_leading_one,
    det_mod,
    field_dtype,
    first_primes,
    index_to_digits,
    inverse_table,
    is_prime,
    mat_mul_mod,
    mat_pow_mod,
    mod_range,
    nullspace_by_pattern,
    pow2_at_least,
    rref_mod,
)

PRIMES = (2, 3, 5, 17, 19)  # 19 exercises the int64 path


def _ref_det(m, p):
    """Permutation-expansion determinant (independent reference)."""
    n = m.shape[0]
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod *= int(m[i, perm[i]])
        total += prod
    return total % p


def _ref_rank(m, p):
    """Gaussian elimination over Fractions of lifted residues is wrong mod p;
    do it honestly over F_p with Python ints."""
    m = [[int(x) % p for x in row] for row in m]
    rank = 0
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
        rank += 1
    return rank


def test_is_prime_and_first_primes():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]
    assert not is_prime(1) and not is_prime(0)


def test_field_dtype_switch():
    assert field_dtype(17) == np.int16
    assert field_dtype(19) == np.int64


@pytest.mark.parametrize("p", PRIMES)
def test_mod_range_matches_plain_mod(p):
    rng = np.random.default_rng(7)
    x = rng.integers(-3 * p, 3 * p, size=(50,)).astype(field_dtype(p))
    got = mod_range(x, p, -3 * p, 3 * p)
    assert np.array_equal(got % p, x % p)
    assert got.min() >= 0 and got.max() < p


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_table(p):
    inv = inverse_table(p)
    for a in range(1, p):
        assert (a * int(inv[a])) % p == 1


@pytest.mark.parametrize("p", (2, 3, 5))
def test_index_to_digits_roundtrip(p):
    n = 4
    idx = np.arange(p ** n)
    digits = index_to_digits(idx, n, p)
    back = sum(digits[:, k].astype(np.int64) * p ** k for k in range(n))
    assert np.array_equal(back, idx)
    assert digits.min() >= 0 and digits.max() < p


@pytest.mark.parametrize("p", PRIMES)
def test_mat_mul_mod(p):
    rng = np.random.default_rng(11)
    a = rng.integers(0, p, size=(6, 3, 4)).astype(field_dtype(p))
    b = rng.integers(0, p, size=(6, 4, 5)).astype(field_dtype(p))
    got = mat_mul_mod(a, b, p)
    ref = np.einsum("bij,bjk->bik", a.astype(object), b.astype(object)) % p
    assert np.array_equal(got.astype(object), ref)


def test_mat_pow_mod():
    m = np.array([[[1, 1], [0, 1]]], dtype=np.int16)
    assert np.array_equal(mat_pow_mod(m, 5, 7)[0], [[1, 5], [0, 1]])
    nil = np.array([[[0, 1], [0, 0]]], dtype=np.int16)
    assert np.array_equal(mat_pow_mod(nil, 2, 7)[0], [[0, 0], [0, 0]])


def test_pow2_at_least():
    assert [pow2_at_least(n) for n in (1, 2, 3, 4, 5, 9)] == [1, 2, 4, 4, 8, 16]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_det_matches_permutation_expansion(p, n):
    rng = np.random.default_rng(100 * n + p)
    mats = rng.integers(0, p, size=(20, n, n)).astype(field_dtype(p))
    got = det_mod(mats, p)
    for k in range(mats.shape[0]):
        assert int(got[k]) == _ref_det(mats[k], p)


@pytest.mark.parametrize("p", PRIMES)
def test_rref_rank_and_canonical_form(p):
    rng = np.random.default_rng(p)
    mats = rng.integers(0, p, size=(30, 4, 6)).astype(field_dtype(p))
    red, rank, pivmask = rref_mod(mats.copy(), p)
    for k in range(mats.shape[0]):
        assert int(rank[k]) == _ref_rank(mats[k], p)
        r = int(rank[k])
        m = red[k] % p
        pat = int(pivmask[k])
        pivots = [c for c in range(6) if (pat >> c) & 1]
        assert len(pivots) == r
        for i, c in enumerate(pivots):
            col = m[:, c]
            assert col[i] == 1 and col.sum() == 1  # cleared pivot column
        assert not m[r:].any()  # rows beyond the rank are zero
        # row space is preserved: ranks of stacked original+reduced agree
        stacked = np.vstack([mats[k], m])
        assert _ref_rank(stacked, p) == r


@pytest.mark.parametrize("p", (2, 3, 5, 19))
def test_nullspace_vectors_annihilate(p):
    rng = np.random.default_rng(41 + p)
    mats = rng.integers(0, p, size=(25, 5, 4)).astype(field_dtype(p))
    red, rank, pivmask = rref_mod(mats.copy(), p)
    groups = nullspace_by_pattern(red, rank, pivmask, p)
    seen = np.zeros(mats.shape[0], dtype=bool)
    for idx, basis in groups:
        seen[idx] = True
        for pos, k in enumerate(idx):
            vecs = basis[pos]
            assert vecs.shape[0] == 4 - int(rank[k])
            if vecs.shape[0]:
                prod = (mats[k].astype(np.int64) @ vecs.astype(np.int64).T) % p
                assert not prod.any()
                # basis vectors are independent: each has a 1 in its own
                # free column and 0 in every other free column
                assert _ref_rank(vecs, p) == vecs.shape[0]
    assert seen.all()


def test_combos_with_leading_one():
    c = combos_with_leading_one(3, 2)
    # one representative per projective point: (3^2-1)/(3-1) = 4
    assert c.shape == (4, 2)
    lead = [row[np.flatnonzero(row)[0]] for row in c]
    assert all(x == 1 for x in lead)
    # memoised and shared, so read-only
    assert combos_with_leading_one(3, 2) is c and not c.flags.writeable
