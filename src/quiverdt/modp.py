"""Vectorized linear algebra over prime fields F_p on numpy integer arrays.

Everything here operates on *batches*: an array of shape (B, n, m) is B
matrices processed simultaneously.  This is the performance layer under the
finite-field census.

Dtype strategy: for p <= 17 all kernels run on int16 with reduction mod p done
through cached lookup tables (`take` is several times faster than integer
division on large arrays).  Every call site documents the range of the values
it reduces; the widest intermediate is the 3x3 determinant closed form,
bounded by 6(p-1)^3 <= 24576 < 2^15 for p <= 17.  Larger primes fall back to
int64 with plain `%` — they are effectively out of reach of the census budgets
anyway, but stay correct.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "is_prime",
    "first_primes",
    "field_dtype",
    "inverse_table",
    "mod_range",
    "index_to_digits",
    "mat_mul_mod",
    "mat_pow_mod",
    "pow2_at_least",
    "all_zero_mats",
    "det_mod",
    "rref_mod",
    "RREF_MAX_COLS",
    "nullspace_by_pattern",
    "combos_with_leading_one",
]

_FAST_PRIME_MAX = 17
_I16_MAX = np.iinfo(np.int16).max
RREF_MAX_COLS = 62  # the pivot bitmask of rref_mod is an int64


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def first_primes(k: int) -> list[int]:
    """The first k primes 2, 3, 5, ..."""
    out: list[int] = []
    n = 2
    while len(out) < k:
        if is_prime(n):
            out.append(n)
        n += 1
    return out


def field_dtype(p: int) -> type:
    """Working dtype for arithmetic over F_p."""
    return np.int16 if p <= _FAST_PRIME_MAX else np.int64


@lru_cache(maxsize=None)
def _mod_lut(p: int, lo: int, hi: int) -> np.ndarray:
    t = (np.arange(lo, hi + 1, dtype=np.int64) % p).astype(np.int16)
    t.setflags(write=False)
    return t


def mod_range(x: np.ndarray, p: int, lo: int, hi: int) -> np.ndarray:
    """Reduce mod p, given that every value of x lies in [lo, hi].

    p=2 is a bitwise AND (valid for negatives in two's complement); other
    small primes use a cached lookup table on int16 (several times faster
    than integer division); anything else falls back to `%`.  The caller's
    [lo, hi] bound is a hard contract on the lookup path: values outside it
    index garbage.
    """
    if p == 2:
        return x & np.array(1, dtype=x.dtype)
    if x.dtype == np.int16 and hi - lo < _I16_MAX:
        return _mod_lut(p, lo, hi).take(x - np.int16(lo))
    return x % p


@lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """inv[x] = x^(-1) mod p for x in 1..p-1 (inv[0] unused, set to 0)."""
    inv = np.zeros(p, dtype=field_dtype(p))
    for x in range(1, p):
        inv[x] = pow(x, p - 2, p)
    inv.setflags(write=False)
    return inv


def index_to_digits(idx: np.ndarray, n_digits: int, p: int) -> np.ndarray:
    """Base-p digits of each index, least significant first: shape
    (B, n_digits), in the working dtype of F_p."""
    idx = np.asarray(idx, dtype=np.int64)
    out = np.empty((idx.shape[0], n_digits), dtype=np.int64)
    rem = idx.copy()
    for k in range(n_digits):
        out[:, k] = rem % p
        rem //= p
    return out.astype(field_dtype(p))


def mat_mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for canonical-residue inputs.

    int16 accumulation is exact because the inner dimension k keeps
    k(p-1)^2 <= 2^15 - 1; if it would not, the product is computed in int64.
    """
    k = a.shape[-1]
    if a.dtype == np.int16 and k * (p - 1) ** 2 < _I16_MAX:
        return mod_range(a @ b, p, 0, k * (p - 1) ** 2)
    return (a.astype(np.int64) @ b.astype(np.int64)) % p


def pow2_at_least(n: int) -> int:
    """Smallest power of two >= max(n, 1)."""
    m = 1
    while m < n:
        m *= 2
    return m


def mat_pow_mod(a: np.ndarray, n: int, p: int) -> np.ndarray:
    """a^n mod p, batched, by binary powering (n >= 1)."""
    if n < 1:
        raise ValueError("matrix power wants n >= 1")
    result = None
    base = a
    while n:
        if n & 1:
            result = base if result is None else mat_mul_mod(result, base, p)
        n >>= 1
        if n:
            base = mat_mul_mod(base, base, p)
    return result


def all_zero_mats(a: np.ndarray) -> np.ndarray:
    """Per-batch boolean: every entry of the matrix is zero."""
    if a.shape[1] == 0 or a.shape[2] == 0:
        return np.ones(a.shape[0], dtype=bool)
    return ~np.any(a.reshape(a.shape[0], -1), axis=1)


def det_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Batched determinant mod p; closed forms for n <= 3, elimination beyond.

    Closed-form ranges: n=2 gives |det| <= (p-1)^2, n=3 gives
    |det| <= 3(p-1)*2(p-1)^2 = 6(p-1)^3, int16-safe for p <= 17.
    """
    B, n, n2 = a.shape
    if n != n2:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return np.ones(B, dtype=a.dtype if a.dtype == np.int16 else np.int64)
    if n == 1:
        return a[:, 0, 0]
    if a.dtype == np.int16 and 6 * (p - 1) ** 3 >= _I16_MAX:
        a = a.astype(np.int64)
    if n == 2:
        d = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        return mod_range(d, p, -((p - 1) ** 2), (p - 1) ** 2)
    if n == 3:
        d = (
            a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
            - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
            + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0])
        )
        bound = 6 * (p - 1) ** 3
        return mod_range(d, p, -bound, bound)
    return _det_by_elimination(a, p)


def _det_by_elimination(a: np.ndarray, p: int) -> np.ndarray:
    a = a.copy()
    B, n, _ = a.shape
    inv = inverse_table(p).astype(a.dtype)
    det = np.ones(B, dtype=a.dtype)
    alive = np.ones(B, dtype=bool)
    row_idx = np.arange(n)
    rank = np.zeros(B, dtype=np.int64)
    sq = (p - 1) ** 2
    for c in range(n):
        col = a[:, :, c]
        cand_mask = (col != 0) & (row_idx[None, :] >= rank[:, None]) & alive[:, None]
        cand = np.argmax(cand_mask, axis=1)
        found = cand_mask[np.arange(B), cand]
        alive &= found
        idx = np.nonzero(found)[0]
        if idx.size == 0:
            break
        r = rank[idx]
        cnd = cand[idx]
        swap = cnd != r
        sub = idx[swap]
        if sub.size:
            r2, c2 = r[swap], cnd[swap]
            tmp = a[sub, r2, :].copy()
            a[sub, r2, :] = a[sub, c2, :]
            a[sub, c2, :] = tmp
            det[sub] = mod_range(-det[sub], p, -(p - 1), 0)
        piv = a[idx, r, c]
        det[idx] = mod_range(det[idx] * piv, p, 0, sq)
        factor = mod_range(a[idx, :, c] * inv[piv][:, None], p, 0, sq)
        factor[row_idx[None, :] <= r[:, None]] = 0
        a[idx] = mod_range(a[idx] - factor[:, :, None] * a[idx, r, None, :], p, -sq, p - 1)
        rank[idx] = r + 1
    det[~alive] = 0
    return det


def rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched reduced row echelon form over F_p (canonical-residue input).

    Returns (rref, rank, pivot_mask): rank per batch entry and an int64
    bitmask of pivot columns (bit c set iff column c holds a pivot).
    Requires fewer than 63 columns so the mask fits an int64.

    The hot loop updates the full batch with masked arithmetic (zero scale
    where no pivot was found) rather than gather/scatter round trips; only
    row swaps touch a fancy-indexed subset.  Reduction mod p is lazy: per
    step only the active column and the pivot row are reduced, and elimination
    subtracts products of reduced values, so entries grow additively by at
    most (p-1)^2 per column; after C <= 62 columns they stay within
    (p-1) + 62(p-1)^2 <= 15884 < 2^15 for p <= 17, safe for int16.  One full
    reduction at the end returns canonical residues.
    """
    B, R, C = a.shape
    if C > RREF_MAX_COLS:
        raise ValueError(f"rref_mod supports at most {RREF_MAX_COLS} columns")
    a = a.copy()
    inv = inverse_table(p).astype(a.dtype)
    rank = np.zeros(B, dtype=np.int64)
    pivmask = np.zeros(B, dtype=np.int64)
    if R == 0 or C == 0 or B == 0:
        return a, rank, pivmask
    row_idx = np.arange(R)
    ar = np.arange(B)
    sq = (p - 1) ** 2
    grow = (p - 1) + C * sq  # additive growth bound for lazy reduction
    for c in range(C):
        col = mod_range(a[:, :, c], p, -grow, grow)
        cand_mask = (col != 0) & (row_idx[None, :] >= rank[:, None])
        cand = np.argmax(cand_mask, axis=1)
        found = cand_mask[ar, cand]
        if not found.any():
            continue
        need_swap = np.nonzero(found & (cand != rank))[0]
        if need_swap.size:
            r2 = rank[need_swap]
            c2 = cand[need_swap]
            tmp = a[need_swap, r2, :].copy()
            a[need_swap, r2, :] = a[need_swap, c2, :]
            a[need_swap, c2, :] = tmp
            col2 = mod_range(a[:, :, c], p, -grow, grow)
            col = np.where(found[:, None], col2, col)
        r = np.where(found, rank, 0)
        pivrow = mod_range(a[ar, r, :], p, -grow, grow)  # (B, C)
        scale = np.where(found, inv[pivrow[:, c]], np.zeros(1, dtype=a.dtype))
        pivrow = mod_range(pivrow * scale[:, None], p, 0, sq)  # zero rows where no pivot
        fidx = np.nonzero(found)[0]
        a[fidx, r[fidx], :] = pivrow[fidx]
        colv = np.where(found[:, None], col, np.zeros(1, dtype=a.dtype))  # (B, R)
        colv[ar, r] = 0  # never eliminate the pivot row against itself
        a -= colv[:, :, None] * pivrow[:, None, :]
        pivmask[fidx] |= np.int64(1) << c
        rank[fidx] += 1
    return mod_range(a, p, -grow, grow), rank, pivmask


def nullspace_by_pattern(
    rref: np.ndarray, rank: np.ndarray, pivmask: np.ndarray, p: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group batch entries by pivot pattern and extract nullspace bases.

    Returns a list of (indices, basis) pairs where basis has shape
    (group_size, nullity, C): for each entry, `nullity` vectors spanning the
    kernel of the original matrix.  Patterns are emitted in increasing bitmask
    order, so the grouping is deterministic.
    """
    B, R, C = rref.shape
    out: list[tuple[np.ndarray, np.ndarray]] = []
    if B == 0:
        return out
    patterns, inverse = np.unique(pivmask, return_inverse=True)
    for gi, pat in enumerate(patterns):
        idx = np.nonzero(inverse == gi)[0]
        pat = int(pat)
        pivots = [c for c in range(C) if (pat >> c) & 1]
        free = [c for c in range(C) if not ((pat >> c) & 1)]
        basis = np.zeros((idx.size, len(free), C), dtype=rref.dtype)
        for fi, fc in enumerate(free):
            basis[:, fi, fc] = 1
            for j, pc in enumerate(pivots):
                basis[:, fi, pc] = (-rref[idx, j, fc]) % p
        out.append((idx, basis))
    return out


@lru_cache(maxsize=None)
def combos_with_leading_one(p: int, e: int) -> np.ndarray:
    """All vectors in F_p^e whose first nonzero coordinate is 1: one
    representative per line through the origin, (p^e - 1)/(p - 1) rows.

    Memoised per (p, e) and read-only.  The census asks for it only after
    checking (p^e - 1)/(p - 1) against its End budget, so at the default
    budget no entry has more than 2^20 rows."""
    blocks = []
    dtype = field_dtype(p)
    for lead in range(e):
        tail = e - lead - 1
        n = p ** tail
        block = np.zeros((n, e), dtype=dtype)
        block[:, lead] = 1
        if tail:
            block[:, lead + 1 :] = index_to_digits(np.arange(n, dtype=np.int64), tail, p)
        blocks.append(block)
    out = np.concatenate(blocks, axis=0) if blocks else np.zeros((0, 0), dtype=dtype)
    out.setflags(write=False)
    return out
