"""Brute-force censuses of quiver representations over prime fields.

One enumeration engine, ``_scan``, walks the full representation space
lexicographically (every matrix entry is a base-p digit of the point index),
in chunks spread over worker threads, with all per-point work vectorized
through :mod:`quiverdt.modp`.  Each chunk passes through up to three stages:

* the filter: relations and Serre constraints keep a subset of the points;
* semistability, for a given stability condition: the kept points that
  have no arrow-invariant graded subspace of a destabilising dimension
  vector (a GL-invariant mask, so counting it is counting semistable points);
* classification, through the endomorphism algebra of every kept point.

Every public count is a view of the totals of one scan:

* point counts and stack counts  |X(F_p)| / |GL_d(F_p)|,
* semistable point counts,
* isomorphism-class counts by Burnside's lemma (sum of |Aut|/|GL| over points),
* indecomposable and absolutely indecomposable class counts via endomorphism
  algebras, and
* Kac polynomials by Lagrange interpolation over prime nodes with a reserved
  consistency-check node.

Supported restrictions: the preprojective relation (the moment map
``sum_a [rho(a), rho(a*)] = 0`` on the doubled quiver) and Serre-type
constraints (cycle nilpotency/invertibility, whole-module nilpotency).

Counting facts the classifier relies on, for A = End(rho) with #A = p^e:

* ``|Aut(rho)| = #units(A)``;
* rho is indecomposable  iff  A is local  iff  every element of A is a unit
  or nilpotent  iff  #units + #nilpotents = p^e  (Fitting's lemma);
* rho is absolutely indecomposable  iff  #nilpotents = p^(e-1).  Writing
  A/J(A) = prod_i Mat_{n_i}(F_{p^{r_i}}), nilpotents biject with
  J x prod_i {nilpotents of Mat_{n_i}}, and #nilpotent matrices in
  Mat_n(F_q) is q^(n^2-n), so #nilpotents(A) = p^(e - sum_i r_i n_i); this
  equals p^(e-1) exactly when A/J(A) = F_p.

Unit/nilpotent counts are gathered projectively: lambda*x is a unit (resp.
nilpotent) iff x is, so only vectors with leading coefficient 1 are tested
and counts are rescaled by p-1.

All caps are explicit and raise :class:`CapExceeded`; nothing truncates
silently.  The point, word, subspace and End-system column caps are checked
before the first chunk is enumerated.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Sequence

import numpy as np

from .exactalg import LaurentPoly
from .modp import (
    RREF_MAX_COLS,
    all_zero_mats,
    combos_with_leading_one,
    det_mod,
    field_dtype,
    first_primes,
    index_to_digits,
    is_prime,
    mat_mul_mod,
    mat_pow_mod,
    mod_range,
    nullspace_by_pattern,
    pow2_at_least,
    rref_mod,
)
from .quiver import (
    DimVector,
    Quiver,
    QuiverError,
    SerreConstraint,
    StabilityCondition,
    double,
    euler_form,
    slope,
    TRIVIAL_CONSTRAINT,
)

__all__ = [
    "CapExceeded",
    "CensusError",
    "MatrixRep",
    "EndAlgebra",
    "Classification",
    "CensusReport",
    "DEFAULT_POINT_BUDGET",
    "DEFAULT_END_BUDGET",
    "gl_order",
    "point_count",
    "stack_count",
    "endomorphism_algebra",
    "classify",
    "count_abs_indecomposable",
    "kac_polynomial",
    "semistable_point_count",
    "census_report",
]

DEFAULT_POINT_BUDGET = 200_000_000
DEFAULT_END_BUDGET = 1 << 20
DEFAULT_WORD_BUDGET = 20_000
DEFAULT_SUBSPACE_BUDGET = 1_000_000
_MAX_CHUNK = 1 << 16
_PAIR_BLOCK = 1 << 20  # (point, line) pairs classified per vectorized block


class CapExceeded(RuntimeError):
    """A configured enumeration cap would be exceeded; nothing was computed."""

    def __init__(self, kind: str, required: int, budget: int):
        self.kind = kind
        self.required = required
        self.budget = budget
        super().__init__(
            f"{kind} needs {required} evaluations but the budget is {budget}; "
            f"raise the relevant budget to proceed"
        )


class CensusError(RuntimeError):
    """An internal consistency assertion failed (non-integral Burnside sum,
    interpolation check-node mismatch)."""


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

@dataclass
class MatrixRep:
    """A representation over F_p: one d_t x d_s matrix per arrow.

    ``mats`` maps arrow label to an integer matrix with canonical residues;
    shapes are validated against ``dim`` (rows = target, cols = source).
    """

    quiver: Quiver
    p: int
    dim: DimVector
    mats: dict

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise CensusError(f"modulus {self.p} is not prime")
        if self.dim.vertices != self.quiver.vertices:
            raise QuiverError("dimension vector does not match the quiver")
        norm = {}
        for a in self.quiver.arrows:
            nt, ns = self.dim[a.tgt], self.dim[a.src]
            m = np.asarray(self.mats.get(a.label, np.zeros((nt, ns))), dtype=np.int64) % self.p
            if m.shape != (nt, ns):
                raise QuiverError(
                    f"matrix for arrow {a.label!r} has shape {m.shape}, expected {(nt, ns)}"
                )
            norm[a.label] = m
        extra = set(self.mats) - {a.label for a in self.quiver.arrows}
        if extra:
            raise QuiverError(f"matrices given for unknown arrows {sorted(extra)}")
        self.mats = norm

    def matrix(self, label: str) -> np.ndarray:
        return self.mats[label]


@dataclass
class EndAlgebra:
    """The endomorphism algebra of a representation.

    ``basis`` spans the solution space of the intertwining system, one
    block-diagonal matrix per basis element represented as a map
    vertex -> block.  The radical is the set of non-units when the algebra is
    local, and the largest nil ideal {x : x*y nilpotent for all y} otherwise.
    """

    dim: int
    basis: list
    unit_count: int
    nilpotent_count: int
    radical_dim: int
    is_local: bool


@dataclass(frozen=True)
class Classification:
    """Result of :func:`classify`: decomposable, or indecomposable with the
    dimension of End/J over F_p (absolutely indecomposable iff 1)."""

    kind: str  # "decomposable" | "indecomposable"
    residue_dim: int | None = None

    def is_indecomposable(self) -> bool:
        return self.kind == "indecomposable"

    def is_absolutely_indecomposable(self) -> bool:
        return self.kind == "indecomposable" and self.residue_dim == 1


@dataclass(frozen=True)
class CensusReport:
    """Aggregate census of one (quiver, dim, prime, restriction) instance."""

    p: int
    dim: tuple[int, ...]
    relations: str
    constraint: str
    point_count: int
    stack_count: Fraction
    iso_classes: int
    indecomposable_classes: int
    abs_indecomposable_classes: int

    def to_json_dict(self) -> dict:
        return {
            "p": str(self.p),
            "dim": ",".join(str(x) for x in self.dim),
            "relations": self.relations,
            "constraint": self.constraint,
            "point_count": str(self.point_count),
            "stack_count": str(self.stack_count),
            "iso_classes": str(self.iso_classes),
            "indecomposable_classes": str(self.indecomposable_classes),
            "abs_indecomposable_classes": str(self.abs_indecomposable_classes),
        }


# ---------------------------------------------------------------------------
# Basic counts
# ---------------------------------------------------------------------------

def gl_order(d: DimVector, p: int) -> int:
    """|GL_d(F_p)| = prod_i prod_{k=0}^{d_i-1} (p^{d_i} - p^k)."""
    if not is_prime(p):
        raise CensusError(f"modulus {p} is not prime")
    total = 1
    for n in d.values:
        for k in range(n):
            total *= p ** n - p ** k
    return total


# ---------------------------------------------------------------------------
# Enumeration workspace
# ---------------------------------------------------------------------------

class _Workspace:
    """Cell layout of one census: which quiver is actually enumerated
    (the double for preprojective relations), matrix shapes per arrow,
    endomorphism-system geometry, and the active constraint."""

    def __init__(
        self,
        quiver: Quiver,
        d: DimVector,
        relations: str,
        constraint: SerreConstraint | None,
    ):
        if relations not in ("none", "preprojective"):
            raise QuiverError(f"unknown relations mode {relations!r}")
        if d.vertices != quiver.vertices:
            raise QuiverError("dimension vector does not match the quiver")
        self.base = quiver
        self.relations = relations
        self.work = double(quiver) if relations == "preprojective" else quiver
        self.constraint = constraint if constraint is not None else TRIVIAL_CONSTRAINT
        self.constraint.validate(self.work)
        self.d = d
        self.vdims = {v: d[v] for v in self.work.vertices}
        self.cells: list[tuple[str, int, int]] = []
        off = 0
        self.cell_offsets: dict[str, int] = {}
        for a in self.work.arrows:
            nt, ns = d[a.tgt], d[a.src]
            self.cell_offsets[a.label] = off
            self.cells.append((a.label, nt, ns))
            off += nt * ns
        self.total_cells = off
        self.live_arrows = [a for a in self.work.arrows if d[a.src] > 0 and d[a.tgt] > 0]
        # endomorphism-system geometry
        self.col_offsets: dict[str, int] = {}
        c = 0
        for v in self.work.vertices:
            self.col_offsets[v] = c
            c += d[v] ** 2
        self.end_cols = c
        self.pos_blocks = [
            (self.col_offsets[v], d[v], pow2_at_least(d[v]))
            for v in self.work.vertices
            if d[v] > 0
        ]

    def matrices_for_range(self, lo: int, hi: int, p: int) -> dict[str, np.ndarray]:
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = index_to_digits(idx, self.total_cells, p)
        mats = {}
        off = 0
        for label, nt, ns in self.cells:
            sz = nt * ns
            mats[label] = digits[:, off : off + sz].reshape(digits.shape[0], nt, ns)
            off += sz
        return mats


def _word_count(ws: _Workspace) -> int:
    """Number of composable arrow words of length sum(d) that avoid every
    zero-dimensional vertex (the others vanish automatically)."""
    if not ws.live_arrows:
        return 0
    frontier = {v: 1 for v in ws.work.vertices}
    for _ in range(ws.d.total()):
        nxt: dict[str, int] = {}
        for a in ws.live_arrows:
            nxt[a.tgt] = nxt.get(a.tgt, 0) + frontier.get(a.src, 0)
        frontier = nxt
    return sum(frontier.values())


def _word_products_nilpotent_mask(
    ws: _Workspace, mats: Mapping[str, np.ndarray], p: int, B: int
) -> np.ndarray:
    """Mask of points whose module is nilpotent: every composable arrow word
    of length sum(d) has zero product.  The words are counted against the
    word budget by :func:`_scan` before any point is enumerated."""
    length = ws.d.total()
    mask = np.ones(B, dtype=bool)
    if not ws.live_arrows:
        return mask
    by_src: dict[str, list] = {}
    for a in ws.live_arrows:
        by_src.setdefault(a.src, []).append(a)

    def rec(prefix_prod: np.ndarray | None, at_vertex: str | None, depth: int) -> None:
        nonlocal mask
        if depth == length:
            mask &= all_zero_mats(prefix_prod)
            return
        if prefix_prod is not None and not prefix_prod.any():
            return  # zero for every point: all longer words vanish too
        candidates = ws.live_arrows if at_vertex is None else by_src.get(at_vertex, [])
        for a in candidates:
            x = mats[a.label]
            prod = x if prefix_prod is None else mat_mul_mod(x, prefix_prod, p)
            rec(prod, a.tgt, depth + 1)

    rec(None, None, 0)
    return mask


def _filter_mask(ws: _Workspace, mats: Mapping[str, np.ndarray], p: int, B: int) -> np.ndarray:
    mask = np.ones(B, dtype=bool)
    # Serre clauses on cycle matrices.
    for cycle, kind in ws.constraint.clauses:
        prod = None
        for lbl in cycle:
            x = mats[lbl]
            prod = x if prod is None else mat_mul_mod(x, prod, p)
        n = prod.shape[1]
        if kind == "nilpotent":
            if n > 0:
                power = mat_pow_mod(prod, pow2_at_least(ws.d.total()), p)
                mask &= all_zero_mats(power)
        else:  # invertible
            mask &= det_mod(prod, p) != 0
    if ws.constraint.nilpotent_module:
        mask &= _word_products_nilpotent_mask(ws, mats, p, B)
    # Moment-map relation on the doubled quiver.
    if ws.relations == "preprojective":
        for v in ws.base.vertices:
            n = ws.d[v]
            if n == 0:
                continue
            acc = np.zeros((B, n, n), dtype=field_dtype(p))
            terms = 0
            for a in ws.base.arrows:
                if a.tgt == v:
                    acc += mat_mul_mod(mats[a.label], mats[a.label + "*"], p)
                    terms += 1
                if a.src == v:
                    acc -= mat_mul_mod(mats[a.label + "*"], mats[a.label], p)
                    terms += 1
            bound = terms * (p - 1)
            mask &= all_zero_mats(mod_range(acc, p, -bound, bound))
    return mask


# ---------------------------------------------------------------------------
# Endomorphism pipeline
# ---------------------------------------------------------------------------

def _end_system(ws: _Workspace, mats: Mapping[str, np.ndarray], p: int, B: int) -> np.ndarray:
    """The batched intertwining system: for each arrow a, the linear equations
    Phi_{t(a)} X_a - X_a Phi_{s(a)} = 0 in the per-vertex unknowns vec(Phi_v)
    (row-major).  Returns shape (B, R, C).

    Row (i, j) of arrow a reads sum_l Phi_t[i,l] X[l,j] - sum_k X[i,k] Phi_s[k,j]:
    the Phi_t[i,l] coefficient is X[l,j] (an X^T block on the row band of fixed
    i), the Phi_s[k,j] coefficient is -X[i,k] (a strided -X block at fixed j).
    Both are written with slice assignment; no dense delta tensors.
    """
    rows = sum(nt * ns for _, nt, ns in ws.cells)
    K = np.zeros((B, rows, ws.end_cols), dtype=field_dtype(p))
    roff = 0
    for a in ws.work.arrows:
        nt, ns = ws.vdims[a.tgt], ws.vdims[a.src]
        sz = nt * ns
        if sz == 0:
            continue
        X = mats[a.label]
        Xt = X.transpose(0, 2, 1)
        ct, cs = ws.col_offsets[a.tgt], ws.col_offsets[a.src]
        for i in range(nt):
            K[:, roff + i * ns : roff + (i + 1) * ns, ct + i * nt : ct + (i + 1) * nt] += Xt
        for j in range(ns):
            K[:, roff + j : roff + sz : ns, cs + j : cs + ns * ns : ns] -= X
        roff += sz
    return mod_range(K, p, -(p - 1), p - 1)


def _classify_elements(
    pos_blocks: Sequence[tuple[int, int, int]], elems: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """For packed endomorphism vectors (N, C): per-element unit and nilpotent
    flags.  A vector is a unit iff every vertex block is invertible, nilpotent
    iff every vertex block is nilpotent (only possible when every block is
    singular, which is what makes the power test affordable)."""
    N = elems.shape[0]
    unit = np.ones(N, dtype=bool)
    all_sing = np.ones(N, dtype=bool)
    for off, n, _m in pos_blocks:
        blk = elems[:, off : off + n * n].reshape(N, n, n)
        dt = det_mod(blk, p)
        unit &= dt != 0
        all_sing &= dt == 0
    nilp = np.zeros(N, dtype=bool)
    idx = np.nonzero(all_sing)[0]
    if idx.size:
        ok = np.ones(idx.size, dtype=bool)
        sub = elems[idx]
        for off, n, m in pos_blocks:
            if n <= 1:
                continue  # 1x1 singular == zero == nilpotent
            blk = sub[:, off : off + n * n].reshape(idx.size, n, n)
            ok &= all_zero_mats(mat_pow_mod(blk, m, p))
        nilp[idx] = ok
    return unit, nilp


def _end_counts(
    ws: _Workspace, mats: Mapping[str, np.ndarray], p: int, end_budget: int, B: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point endomorphism data: (e, unit_count, nilpotent_count)."""
    K = _end_system(ws, mats, p, B)
    rref, rank, pivmask = rref_mod(K, p)
    e_arr = np.full(B, ws.end_cols, dtype=np.int64) - rank
    units = np.zeros(B, dtype=np.int64)
    nilps = np.zeros(B, dtype=np.int64)
    for idx, basis in nullspace_by_pattern(rref, rank, pivmask, p):
        eg = basis.shape[1]
        if eg == 0:
            units[idx] = 1
            nilps[idx] = 1
            continue
        n_proj = (p ** eg - 1) // (p - 1)
        if n_proj > end_budget:
            raise CapExceeded("endomorphism enumeration", n_proj, end_budget)
        combos = combos_with_leading_one(p, eg)
        G = idx.size
        pu = np.zeros(G, dtype=np.int64)
        pn = np.zeros(G, dtype=np.int64)
        # classify all (point, projective line) pairs jointly, in blocks
        step = max(1, _PAIR_BLOCK // n_proj)
        for lo in range(0, G, step):
            bs = basis[lo : lo + step]  # (g, eg, C)
            g = bs.shape[0]
            elems = mod_range(combos[None] @ bs, p, 0, eg * (p - 1) ** 2)
            elems = elems.reshape(g * n_proj, -1)
            u, nl = _classify_elements(ws.pos_blocks, elems, p)
            pu[lo : lo + step] = u.reshape(g, n_proj).sum(axis=1)
            pn[lo : lo + step] = nl.reshape(g, n_proj).sum(axis=1)
        units[idx] = (p - 1) * pu
        nilps[idx] = (p - 1) * pn + 1
    return e_arr, units, nilps


# ---------------------------------------------------------------------------
# Semistability stage
# ---------------------------------------------------------------------------

def _grassmannian_size(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n (the Gaussian binomial)."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _subspaces(n: int, k: int, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every k-dimensional subspace U of F_p^n as a pair (basis, proj): the
    (n, k) matrix whose columns are the reduced-echelon basis of U, and the
    (n, n) matrix x -> x - basis @ x[pivots] whose kernel is exactly U."""
    eye = np.eye(n, dtype=np.int64)
    out = []
    for pivots in combinations(range(n), k):
        free_slots = [
            (j, c)
            for j in range(k)
            for c in range(pivots[j] + 1, n)
            if c not in pivots
        ]
        for values in product(range(p), repeat=len(free_slots)):
            m = np.zeros((k, n), dtype=np.int64)
            for j, pc in enumerate(pivots):
                m[j, pc] = 1
            for (j, c), val in zip(free_slots, values):
                m[j, c] = val
            out.append((m.T, (eye - m.T @ eye[list(pivots)]) % p))
    return out


def _destabilisers(
    ws: _Workspace, z: StabilityCondition, p: int, subspace_budget: int
) -> list[tuple[DimVector, list]]:
    """Every sub-dimension vector e (0 < e < d, slope(e) > slope(d)) with the
    subspaces of each vertex space of dimension e_v.  A point is semistable
    iff no tuple of them is arrow-invariant.  The tuples of each e are
    counted against ``subspace_budget`` before any subspace is built."""
    d = ws.d
    slope_d = slope(z, d)
    out = []
    for vals in product(*(range(n + 1) for n in d.values)):
        e = DimVector(d.vertices, vals)
        if e.is_zero() or vals == d.values or slope(z, e) <= slope_d:
            continue
        count = math.prod(_grassmannian_size(d[v], e[v], p) for v in d.vertices)
        if count > subspace_budget:
            raise CapExceeded("subspace enumeration", count, subspace_budget)
        out.append((e, [_subspaces(d[v], e[v], p) for v in d.vertices]))
    return out


def _semistable_mask(
    ws: _Workspace, mats: Mapping[str, np.ndarray], p: int, destabilisers: list, B: int
) -> np.ndarray:
    """Mask of points with no arrow-invariant graded subspace of any
    destabilising dimension vector: for every arrow a, X_a maps U_{s(a)}
    into U_{t(a)}, i.e. proj_{t(a)} @ X_a @ basis_{s(a)} vanishes."""
    unstable = np.zeros(B, dtype=bool)
    for e, per_vertex in destabilisers:
        for combo in product(*per_vertex):
            sub = dict(zip(ws.d.vertices, combo))
            invariant = np.ones(B, dtype=bool)
            for a in ws.work.arrows:
                if e[a.src] == 0:
                    continue  # the image of the zero space is zero: always inside
                image = (sub[a.tgt][1] @ ((mats[a.label] @ sub[a.src][0]) % p)) % p
                invariant &= ~image.reshape(B, -1).any(axis=1)
            unstable |= invariant
    return ~unstable


# ---------------------------------------------------------------------------
# Chunked census engine
# ---------------------------------------------------------------------------

@dataclass
class _Totals:
    points: int = 0
    semistable: int = 0
    units: int = 0
    units_indec: int = 0
    units_absindec: int = 0

    def __iadd__(self, other: "_Totals") -> "_Totals":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


def _scan(
    ws: _Workspace,
    p: int,
    *,
    stability: StabilityCondition | None = None,
    need_classes: bool = False,
    point_budget: int = DEFAULT_POINT_BUDGET,
    end_budget: int = DEFAULT_END_BUDGET,
    word_budget: int = DEFAULT_WORD_BUDGET,
    subspace_budget: int = DEFAULT_SUBSPACE_BUDGET,
    workers: int = 1,
) -> _Totals:
    """Totals over every point of the workspace: the filter-kept points, of
    them the semistable ones (when ``stability`` is given), and the
    Burnside unit sums (when ``need_classes``)."""
    if not is_prime(p):
        raise CensusError(f"modulus {p} is not prime")
    raw = p ** ws.total_cells
    if raw > point_budget:
        raise CapExceeded("point enumeration", raw, point_budget)
    if ws.constraint.nilpotent_module:
        words = _word_count(ws)
        if words > word_budget:
            raise CapExceeded("nilpotent-module word enumeration", words, word_budget)
    destabilisers = [] if stability is None else _destabilisers(ws, stability, p, subspace_budget)
    if need_classes and ws.end_cols > RREF_MAX_COLS:
        raise CapExceeded("endomorphism system columns", ws.end_cols, RREF_MAX_COLS)
    workers = max(1, int(workers))
    chunk = min(_MAX_CHUNK, max(1, -(-raw // (4 * workers)) if workers > 1 else raw))
    spans = [(lo, min(lo + chunk, raw)) for lo in range(0, raw, chunk)]

    def run(span: tuple[int, int]) -> _Totals:
        lo, hi = span
        mats = ws.matrices_for_range(lo, hi, p)
        mask = _filter_mask(ws, mats, p, hi - lo)
        t = _Totals(points=int(mask.sum()))
        if t.points == 0 or (stability is None and not need_classes):
            return t
        kept = {k: v[mask] for k, v in mats.items()}
        if stability is not None:
            t.semistable = int(_semistable_mask(ws, kept, p, destabilisers, t.points).sum())
        if need_classes:
            e_arr, units, nilps = _end_counts(ws, kept, p, end_budget, t.points)
            pe = np.power(np.int64(p), e_arr)
            t.units = int(units.sum())
            t.units_indec = int(units[units + nilps == pe].sum())
            t.units_absindec = int(units[nilps * p == pe].sum())
        return t

    total = _Totals()
    if workers == 1 or len(spans) == 1:
        for span in spans:
            total += run(span)
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            for part in ex.map(run, spans):
                total += part
    return total


def _census(
    q: Quiver, d: DimVector, p: int, relations: str, s: SerreConstraint | None, **scan_args
) -> _Totals:
    """The totals of one census of the (quiver, dim, relations, constraint)
    representation space; ``scan_args`` are those of :func:`_scan`."""
    return _scan(_Workspace(q, d, relations, s), p, **scan_args)


def _class_count(units: int, gl: int, name: str) -> int:
    """A Burnside sum of |Aut| over points, divided by |GL|, as an integer."""
    val = Fraction(units, gl)
    if val.denominator != 1:
        raise CensusError(f"Burnside sum for {name} classes is not an integer: {val}")
    return int(val)


def point_count(
    q: Quiver,
    d: DimVector,
    p: int,
    relations: str = "none",
    s: SerreConstraint | None = None,
    *,
    point_budget: int = DEFAULT_POINT_BUDGET,
    word_budget: int = DEFAULT_WORD_BUDGET,
    workers: int = 1,
) -> int:
    """Number of F_p-points of the constrained representation space.

    ``relations="preprojective"`` enumerates the doubled quiver and keeps the
    zero fiber of the moment map; Serre clauses may then reference starred
    arrow labels.
    """
    return _census(
        q, d, p, relations, s, point_budget=point_budget, word_budget=word_budget, workers=workers
    ).points


def stack_count(
    q: Quiver,
    d: DimVector,
    p: int,
    relations: str = "none",
    s: SerreConstraint | None = None,
    **kwargs,
) -> Fraction:
    """point_count / |GL_d(F_p)| as an exact rational."""
    return Fraction(point_count(q, d, p, relations, s, **kwargs), gl_order(d, p))


def semistable_point_count(
    q: Quiver,
    d: DimVector,
    p: int,
    z: StabilityCondition,
    relations: str = "none",
    s: SerreConstraint | None = None,
    *,
    point_budget: int = DEFAULT_POINT_BUDGET,
    word_budget: int = DEFAULT_WORD_BUDGET,
    subspace_budget: int = DEFAULT_SUBSPACE_BUDGET,
    workers: int = 1,
) -> int:
    """Count of semistable points: no arrow-invariant proper nonzero graded
    subspace of slope exceeding the slope of d.

    Semistability is a stage of the chunked census: in each chunk, the points
    the relations and constraint keep are tested against every echelon
    subspace tuple of every destabilising sub-dimension vector e (slope(e) >
    slope(d)), built once per census; ``subspace_budget`` caps the tuples of
    each e.
    """
    if d.is_zero():
        raise QuiverError("semistability of the zero dimension vector is undefined")
    return _census(
        q,
        d,
        p,
        relations,
        s,
        stability=z,
        point_budget=point_budget,
        word_budget=word_budget,
        subspace_budget=subspace_budget,
        workers=workers,
    ).semistable


def census_report(
    q: Quiver,
    d: DimVector,
    p: int,
    relations: str = "none",
    s: SerreConstraint | None = None,
    *,
    point_budget: int = DEFAULT_POINT_BUDGET,
    end_budget: int = DEFAULT_END_BUDGET,
    word_budget: int = DEFAULT_WORD_BUDGET,
    workers: int = 1,
) -> CensusReport:
    """Full census: point/stack counts plus Burnside-weighted class counts."""
    if d.is_zero():
        raise QuiverError("census of the zero dimension vector is not defined")
    t = _census(
        q,
        d,
        p,
        relations,
        s,
        need_classes=True,
        point_budget=point_budget,
        end_budget=end_budget,
        word_budget=word_budget,
        workers=workers,
    )
    gl = gl_order(d, p)
    return CensusReport(
        p=p,
        dim=d.values,
        relations=relations,
        constraint=(s if s is not None else TRIVIAL_CONSTRAINT).describe(),
        point_count=t.points,
        stack_count=Fraction(t.points, gl),
        iso_classes=_class_count(t.units, gl, "iso"),
        indecomposable_classes=_class_count(t.units_indec, gl, "indecomposable"),
        abs_indecomposable_classes=_class_count(t.units_absindec, gl, "abs-indecomposable"),
    )


def count_abs_indecomposable(
    q: Quiver,
    d: DimVector,
    p: int,
    s: SerreConstraint | None = None,
    *,
    relations: str = "none",
    point_budget: int = DEFAULT_POINT_BUDGET,
    end_budget: int = DEFAULT_END_BUDGET,
    word_budget: int = DEFAULT_WORD_BUDGET,
    workers: int = 1,
) -> int:
    """Number of absolutely indecomposable iso classes (Burnside-weighted
    count of points whose endomorphism nilpotent count is p^(e-1))."""
    if d.is_zero():
        raise QuiverError("the zero representation is not indecomposable")
    t = _census(
        q,
        d,
        p,
        relations,
        s,
        need_classes=True,
        point_budget=point_budget,
        end_budget=end_budget,
        word_budget=word_budget,
        workers=workers,
    )
    return _class_count(t.units_absindec, gl_order(d, p), "abs-indecomposable")


# ---------------------------------------------------------------------------
# Single-representation analysis
# ---------------------------------------------------------------------------

def _rep_as_batch(rho: MatrixRep) -> tuple[_Workspace, dict[str, np.ndarray]]:
    ws = _Workspace(rho.quiver, rho.dim, "none", None)
    dt = field_dtype(rho.p)
    mats = {lbl: m[None, :, :].astype(dt) for lbl, m in rho.mats.items()}
    return ws, mats


def endomorphism_algebra(
    rho: MatrixRep, *, end_budget: int = DEFAULT_END_BUDGET
) -> EndAlgebra:
    """End(rho) with exhaustive unit/nilpotent/radical analysis.

    Enumerates all p^e endomorphisms (cap: ``end_budget``), so unlike the
    census fast path it also produces the radical: the non-units when the
    algebra is local, else the largest nil ideal {x : xy nilpotent for all y}
    found by exhaustive pair testing.
    """
    p = rho.p
    if rho.dim.is_zero():
        return EndAlgebra(
            dim=0, basis=[], unit_count=1, nilpotent_count=1, radical_dim=0, is_local=True
        )
    ws, mats = _rep_as_batch(rho)
    if ws.end_cols > RREF_MAX_COLS:
        raise CapExceeded("endomorphism system columns", ws.end_cols, RREF_MAX_COLS)
    K = _end_system(ws, mats, p, 1)
    rref, rank, pivmask = rref_mod(K, p)
    groups = nullspace_by_pattern(rref, rank, pivmask, p)
    basis_vecs = groups[0][1][0]  # (e, C)
    e = basis_vecs.shape[0]
    if p ** e > end_budget:
        raise CapExceeded("endomorphism enumeration", p ** e, end_budget)
    # identity must lie in the span: verify it satisfies the system
    ident = np.zeros(ws.end_cols, dtype=np.int64)
    for v in ws.work.vertices:
        n = ws.vdims[v]
        off = ws.col_offsets[v]
        ident[off : off + n * n] = np.eye(n, dtype=np.int64).reshape(-1)
    if np.any((K[0] @ ident) % p):
        raise CensusError("identity endomorphism fails the intertwining system")
    coeffs = index_to_digits(np.arange(p ** e, dtype=np.int64), e, p)
    elems = (coeffs @ basis_vecs) % p
    unit, nilp = _classify_elements(ws.pos_blocks, elems, p)
    unit_count = int(unit.sum())
    nilp_count = int(nilp.sum())
    local = unit_count + nilp_count == p ** e
    if local:
        rad_size = p ** e - unit_count
    else:
        rad_size = _radical_size_by_pairs(ws, elems, unit, p)
    rad_dim = rad_size.bit_length() - 1 if p == 2 else round(math.log(rad_size, p))
    if p ** rad_dim != rad_size:
        raise CensusError(f"radical candidate has size {rad_size}, not a power of {p}")
    basis = [_unpack_blocks(ws, vec) for vec in basis_vecs]
    return EndAlgebra(
        dim=e,
        basis=basis,
        unit_count=unit_count,
        nilpotent_count=nilp_count,
        radical_dim=rad_dim,
        is_local=local,
    )


def _unpack_blocks(ws: _Workspace, vec: np.ndarray) -> dict[str, np.ndarray]:
    out = {}
    for v in ws.work.vertices:
        n = ws.vdims[v]
        off = ws.col_offsets[v]
        out[v] = vec[off : off + n * n].reshape(n, n).copy()
    return out


def _radical_size_by_pairs(
    ws: _Workspace, elems: np.ndarray, unit: np.ndarray, p: int
) -> int:
    """|J(End)| by the nil-ideal characterization: x is in the radical iff
    x*y is nilpotent for every y (pairwise exhaustive; budget-bounded by the
    caller's end cap since both factors range over End)."""
    n_elems = elems.shape[0]
    candidates = np.nonzero(~unit)[0]
    rad = 0
    for ci in candidates:
        x_blocks = {
            off: elems[ci, off : off + n * n].reshape(n, n) for off, n, _m in ws.pos_blocks
        }
        prods = np.empty_like(elems)
        for off, n, _m in ws.pos_blocks:
            yb = elems[:, off : off + n * n].reshape(n_elems, n, n)
            prods[:, off : off + n * n] = mat_mul_mod(
                np.broadcast_to(x_blocks[off], (n_elems, n, n)), yb, p
            ).reshape(n_elems, n * n)
        _u, nl = _classify_elements(ws.pos_blocks, prods, p)
        if bool(nl.all()):
            rad += 1
    return rad


def classify(rho: MatrixRep, *, end_budget: int = DEFAULT_END_BUDGET) -> Classification:
    """Decomposable, or indecomposable with residue dimension dim(End/J).

    Indecomposable iff End is local (no nontrivial idempotent); absolutely
    indecomposable iff additionally the residue field is F_p itself
    (residue_dim == 1).
    """
    if rho.dim.is_zero():
        return Classification("decomposable")
    alg = endomorphism_algebra(rho, end_budget=end_budget)
    if not alg.is_local:
        return Classification("decomposable")
    return Classification("indecomposable", residue_dim=alg.dim - alg.radical_dim)


# ---------------------------------------------------------------------------
# Kac polynomials by interpolation
# ---------------------------------------------------------------------------

def _lagrange(xs: Sequence[int], ys: Sequence[int]) -> list[Fraction]:
    """Coefficients (low to high) of the unique polynomial through (xs, ys)."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = [Fraction(1)]
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = [
                (num[k - 1] if k > 0 else Fraction(0)) - xj * (num[k] if k < len(num) else 0)
                for k in range(len(num) + 1)
            ]
            den *= xi - xj
        scale = Fraction(yi) / den
        for k, c in enumerate(num):
            coeffs[k] += c * scale
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def kac_polynomial(
    q: Quiver,
    d: DimVector,
    s: SerreConstraint | None = None,
    nodes: Sequence[int] | None = None,
    *,
    point_budget: int = DEFAULT_POINT_BUDGET,
    end_budget: int = DEFAULT_END_BUDGET,
    word_budget: int = DEFAULT_WORD_BUDGET,
    workers: int = 1,
) -> LaurentPoly:
    """The polynomial (in q) counting absolutely indecomposable classes.

    Interpolated through the first max(1-(d,d), 0)+1 primes and verified at
    one extra reserved prime; a mismatch there raises :class:`CensusError`
    (signalling a non-polynomial count or a bug) rather than returning a
    wrong answer.
    """
    if d.is_zero():
        raise QuiverError("Kac polynomials are defined for nonzero dimension vectors")
    bound = max(1 - euler_form(q, d, d), 0)
    need = bound + 2
    if nodes is None:
        ps = first_primes(need)
    else:
        ps = [int(x) for x in nodes]
        if sorted(set(ps)) != ps or not all(is_prime(x) for x in ps):
            raise QuiverError("interpolation nodes must be strictly increasing primes")
        if len(ps) < need:
            raise QuiverError(f"need at least {need} prime nodes (degree bound {bound})")
    counts = [
        count_abs_indecomposable(
            q,
            d,
            p,
            s,
            point_budget=point_budget,
            end_budget=end_budget,
            word_budget=word_budget,
            workers=workers,
        )
        for p in ps[:need]
    ]
    coeffs = _lagrange(ps[: bound + 1], counts[: bound + 1])
    for k, c in enumerate(coeffs):
        if c.denominator != 1:
            raise CensusError(f"interpolated coefficient of q^{k} is not an integer: {c}")
    check_p, check_count = ps[bound + 1], counts[bound + 1]
    value = sum(int(c) * check_p ** k for k, c in enumerate(coeffs))
    if value != check_count:
        raise CensusError(
            f"check node failed: polynomial gives {value} at p={check_p}, census says {check_count}"
        )
    for p_i, y_i in zip(ps[: bound + 1], counts[: bound + 1]):
        assert sum(int(c) * p_i ** k for k, c in enumerate(coeffs)) == y_i
    return LaurentPoly.from_q_dict({k: int(c) for k, c in enumerate(coeffs) if c != 0})
