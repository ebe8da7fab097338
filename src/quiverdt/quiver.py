"""Quiver data model, derived constructions, bilinear forms, stability, HN types.

A quiver is a finite directed multigraph.  Everything downstream (point
censuses, Kac tables, generating series) is indexed by the quiver's vertex
order, which is the declaration order and is never re-sorted.

The module provides

* the doubled quiver (a reversed partner ``a*`` for every arrow ``a``),
* the tripled quiver (double plus one loop per vertex),
* the framed quiver (extra vertex ``@`` with ``f_i`` arrows into vertex ``i``),
* the Euler form ``(d,e) = sum_i d_i e_i - sum_a d_{s(a)} e_{t(a)}`` and its
  antisymmetrization ``<d,e> = (d,e) - (e,d)``,
* King stability conditions ``zeta_i = a_i + i`` (imaginary part structurally
  1), exact rational slopes ``rho(d) = -(sum a_i d_i)/(sum d_i)``,
* bounded genericity checking, and
* Harder-Narasimhan type enumeration with the two wall-crossing exponents
  ``f(alpha)`` (on normalized series) and ``tau(alpha)`` (on raw stack counts).

All types are immutable values; all operations are pure functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

__all__ = [
    "Arrow",
    "Quiver",
    "DimVector",
    "StabilityCondition",
    "HNType",
    "SerreConstraint",
    "QuiverError",
    "double",
    "triple",
    "frame",
    "euler_form",
    "antisym_form",
    "slope",
    "is_generic",
    "hn_types",
    "loops_nilpotent_constraint",
    "nilpotent_module_constraint",
    "hn_f_exponent",
    "hn_tau_exponent",
    "load_quiver",
    "load_stability",
    "load_constraint",
    "quiver_from_dict",
    "quiver_to_dict",
    "jordan_quiver",
    "a2_quiver",
    "multi_loop_quiver",
    "point_quiver",
    "FRAME_VERTEX",
    "TRIVIAL_CONSTRAINT",
]

FRAME_VERTEX = "@"


class QuiverError(ValueError):
    """Raised on malformed quivers, dimension vectors, or constraints."""


@dataclass(frozen=True)
class Arrow:
    """A labelled arrow ``src -> tgt``."""

    label: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Quiver:
    """A finite quiver: ordered vertices plus labelled arrows.

    The vertex order indexes every dimension vector and every serialized
    report, so it is part of the value.
    """

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex identifiers")
        labels = [a.label for a in self.arrows]
        if len(set(labels)) != len(labels):
            raise QuiverError("duplicate arrow labels")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.src not in vset or a.tgt not in vset:
                raise QuiverError(f"arrow {a.label!r} references unknown vertex")

    # -- basic accessors -------------------------------------------------

    def arrow(self, label: str) -> Arrow:
        for a in self.arrows:
            if a.label == label:
                return a
        raise QuiverError(f"unknown arrow label {label!r}")

    def loops(self) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if a.src == a.tgt)

    def dim(self, entries: Mapping[str, int] | Sequence[int]) -> DimVector:
        """Build a dimension vector for this quiver from a map or a sequence."""
        if isinstance(entries, Mapping):
            missing = set(self.vertices) - set(entries)
            extra = set(entries) - set(self.vertices)
            if missing or extra:
                raise QuiverError(f"dimension vector keys mismatch: missing={sorted(missing)} extra={sorted(extra)}")
            values = tuple(int(entries[v]) for v in self.vertices)
        else:
            values = tuple(int(x) for x in entries)
            if len(values) != len(self.vertices):
                raise QuiverError(f"expected {len(self.vertices)} entries, got {len(values)}")
        return DimVector(self.vertices, values)


@dataclass(frozen=True)
class DimVector:
    """A nonnegative integer grading of the quiver's vertex set."""

    vertices: tuple[str, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.values):
            raise QuiverError("dimension vector length mismatch")
        if any(x < 0 for x in self.values):
            raise QuiverError("dimension vector entries must be nonnegative")

    def __getitem__(self, vertex: str) -> int:
        return self.values[self.vertices.index(vertex)]

    def total(self) -> int:
        return sum(self.values)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.values)

    def __add__(self, other: DimVector) -> DimVector:
        self._check(other)
        return DimVector(self.vertices, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: DimVector) -> DimVector:
        self._check(other)
        return DimVector(self.vertices, tuple(a - b for a, b in zip(self.values, other.values)))

    def __le__(self, other: DimVector) -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def _check(self, other: DimVector) -> None:
        if self.vertices != other.vertices:
            raise QuiverError("dimension vectors over different vertex sets")


@dataclass(frozen=True)
class StabilityCondition:
    """King stability: weight ``zeta_i = a_i + i`` per vertex, Im part fixed to 1.

    Only the exact rational real parts ``a_i`` are stored; the imaginary part
    is structurally 1, so ``Im Z(d) = sum_i d_i > 0`` for nonzero d and the
    slope is always finite.
    """

    vertices: tuple[str, ...]
    real_parts: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.real_parts):
            raise QuiverError("stability condition length mismatch")

    @staticmethod
    def degenerate(quiver: Quiver) -> StabilityCondition:
        """All real parts zero: every dimension vector has slope 0."""
        return StabilityCondition(quiver.vertices, tuple(Fraction(0) for _ in quiver.vertices))

    @staticmethod
    def from_map(quiver: Quiver, re: Mapping[str, Fraction | int | str]) -> StabilityCondition:
        return StabilityCondition(
            quiver.vertices, tuple(Fraction(re[v]) for v in quiver.vertices)
        )


@dataclass(frozen=True)
class HNType:
    """An ordered tuple of nonzero dimension vectors with strictly descending slopes."""

    parts: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SerreConstraint:
    """Cycle-wise nilpotency/invertibility clauses plus an optional whole-module
    nilpotency requirement.

    ``clauses`` is a list of ``(cycle, kind)`` where ``cycle`` is a composable,
    closed word of arrow labels (the product is an endomorphism at the start
    vertex) and ``kind`` is ``"nilpotent"`` (the cycle matrix is nilpotent) or
    ``"invertible"``.  ``nilpotent_module`` requires the two-sided ideal
    generated by all arrows to act nilpotently on the module, tested as the
    vanishing of every arrow-word image of length equal to the total dimension.
    """

    clauses: tuple[tuple[tuple[str, ...], str], ...] = ()
    nilpotent_module: bool = False

    def __post_init__(self) -> None:
        for cycle, kind in self.clauses:
            if not cycle:
                raise QuiverError("empty cycle word in constraint clause")
            if kind not in ("nilpotent", "invertible"):
                raise QuiverError(f"unknown clause kind {kind!r}")

    def is_trivial(self) -> bool:
        return not self.clauses and not self.nilpotent_module

    def validate(self, quiver: Quiver) -> None:
        """Check every cycle word is composable and closed in ``quiver``."""
        for cycle, _kind in self.clauses:
            arrows = [quiver.arrow(lbl) for lbl in cycle]
            for cur, nxt in zip(arrows, arrows[1:] + arrows[:1]):
                if cur.tgt != nxt.src:
                    raise QuiverError(
                        f"cycle {list(cycle)} is not composable/closed at {cur.label!r} -> {nxt.label!r}"
                    )

    def describe(self) -> str:
        """Stable human-readable description used in census reports."""
        bits = [f"{'.'.join(cycle)}:{kind}" for cycle, kind in self.clauses]
        if self.nilpotent_module:
            bits.append("nilpotent_module")
        return "none" if not bits else ";".join(bits)


TRIVIAL_CONSTRAINT = SerreConstraint()


# ---------------------------------------------------------------------------
# Derived quivers
# ---------------------------------------------------------------------------

def double(q: Quiver) -> Quiver:
    """The doubled quiver: one reversed arrow ``a*`` per arrow ``a``.

    Original arrows are preserved in order, then the starred partners follow
    in the same order.
    """
    existing = {a.label for a in q.arrows}
    new_arrows = []
    for a in q.arrows:
        star = a.label + "*"
        if star in existing:
            raise QuiverError(f"doubling collides with existing label {star!r}")
        new_arrows.append(Arrow(star, a.tgt, a.src))
    return Quiver(q.vertices, q.arrows + tuple(new_arrows))


def triple(q: Quiver) -> Quiver:
    """The tripled quiver: the double plus one loop ``w(i)`` at every vertex."""
    dq = double(q)
    existing = {a.label for a in dq.arrows}
    loops = []
    for v in q.vertices:
        lbl = f"w({v})"
        if lbl in existing:
            raise QuiverError(f"tripling collides with existing label {lbl!r}")
        loops.append(Arrow(lbl, v, v))
    return Quiver(dq.vertices, dq.arrows + tuple(loops))


def frame(q: Quiver, f) -> Quiver:
    """The framed quiver: new vertex ``@`` plus ``f_i`` arrows ``b(i,m): @ -> i``.

    ``f`` is a framing multiplicity per vertex (DimVector, mapping, or
    sequence in vertex order).  Dimension vectors of the result are written
    ``(d_@, d)`` with the framing vertex first.
    """
    if not isinstance(f, DimVector):
        f = q.dim(f)
    if f.vertices != q.vertices:
        raise QuiverError("framing vector must live on the quiver's vertices")
    if FRAME_VERTEX in q.vertices:
        raise QuiverError(f"vertex {FRAME_VERTEX!r} is reserved for framing")
    existing = {a.label for a in q.arrows}
    new_arrows = []
    for v, fv in zip(q.vertices, f.values):
        for m in range(1, fv + 1):
            lbl = f"b({v},{m})"
            if lbl in existing:
                raise QuiverError(f"framing collides with existing label {lbl!r}")
            new_arrows.append(Arrow(lbl, FRAME_VERTEX, v))
    return Quiver((FRAME_VERTEX,) + q.vertices, q.arrows + tuple(new_arrows))


# ---------------------------------------------------------------------------
# Bilinear forms and slopes
# ---------------------------------------------------------------------------

def euler_form(q: Quiver, d: DimVector, e: DimVector) -> int:
    """The Euler form ``(d,e) = sum_i d_i e_i - sum_a d_{s(a)} e_{t(a)}``."""
    if d.vertices != q.vertices or e.vertices != q.vertices:
        raise QuiverError("dimension vectors must live on the quiver's vertices")
    total = sum(a * b for a, b in zip(d.values, e.values))
    for arr in q.arrows:
        total -= d[arr.src] * e[arr.tgt]
    return total


def antisym_form(q: Quiver, d: DimVector, e: DimVector) -> int:
    """The antisymmetrized Euler form ``<d,e> = (d,e) - (e,d)``."""
    return euler_form(q, d, e) - euler_form(q, e, d)


def slope(z: StabilityCondition, d: DimVector) -> Fraction:
    """The slope ``rho(d) = -(sum a_i d_i) / (sum d_i)`` as a reduced rational."""
    if d.vertices != z.vertices:
        raise QuiverError("dimension vector and stability live on different vertex sets")
    if d.is_zero():
        raise QuiverError("slope of the zero dimension vector is undefined")
    num = sum(a * x for a, x in zip(z.real_parts, d.values))
    return Fraction(-num, d.total())


def is_generic(q: Quiver, z: StabilityCondition, bound: int) -> bool:
    """Bounded genericity check: ``<d,e> = 0`` for all equal-slope nonzero pairs
    with entries at most ``bound``.

    This is a verification up to ``bound``, not a proof for all dimension
    vectors; callers should record the bound used.
    """
    if bound < 1:
        raise QuiverError("genericity bound must be >= 1")
    box = product(range(bound + 1), repeat=len(q.vertices))
    vecs = [DimVector(q.vertices, v) for v in box if any(v)]
    for d in vecs:
        sd = slope(z, d)
        for e in vecs:
            if slope(z, e) == sd and antisym_form(q, d, e) != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# Harder-Narasimhan types
# ---------------------------------------------------------------------------

def hn_types(q: Quiver, z: StabilityCondition, d: DimVector) -> list[HNType]:
    """All ordered tuples of nonzero dimension vectors summing to ``d`` with
    strictly descending slopes, sorted lexicographically by their part tuples.

    The singleton ``(d,)`` is always present.  Use :func:`hn_f_exponent` and
    :func:`hn_tau_exponent` for the two wall-crossing exponents of a type.
    """
    if d.is_zero():
        raise QuiverError("HN types of the zero dimension vector are undefined")
    results: list[HNType] = []

    def extend(parts: tuple[tuple[int, ...], ...], remaining: tuple[int, ...], last_slope: Fraction | None) -> None:
        if not any(remaining):
            if parts:
                results.append(HNType(parts))
            return
        for cand in product(*(range(r + 1) for r in remaining)):
            if not any(cand):
                continue
            s = slope(z, DimVector(q.vertices, cand))
            if last_slope is not None and s >= last_slope:
                continue
            extend(parts + (cand,), tuple(r - c for r, c in zip(remaining, cand)), s)

    extend((), d.values, None)
    results.sort(key=lambda t: t.parts)
    return results


def hn_f_exponent(q: Quiver, alpha: HNType) -> int:
    """The exponent ``f(alpha) = sum_{j'<j''} <alpha^{j'}, alpha^{j''}>`` used by
    the wall-crossing factorization of normalized series."""
    parts = [DimVector(q.vertices, p) for p in alpha.parts]
    return sum(
        antisym_form(q, parts[j1], parts[j2])
        for j1 in range(len(parts))
        for j2 in range(j1 + 1, len(parts))
    )


def hn_tau_exponent(q: Quiver, alpha: HNType) -> int:
    """The census twist ``tau(alpha) = -sum_{j<k} (alpha^k, alpha^j)`` governing
    the stratified recursion on raw stack counts."""
    parts = [DimVector(q.vertices, p) for p in alpha.parts]
    return -sum(
        euler_form(q, parts[k], parts[j])
        for j in range(len(parts))
        for k in range(j + 1, len(parts))
    )


# ---------------------------------------------------------------------------
# Constraint helpers
# ---------------------------------------------------------------------------

def loops_nilpotent_constraint(q: Quiver) -> SerreConstraint:
    """One nilpotency clause per loop of ``q`` (each loop acts nilpotently)."""
    return SerreConstraint(tuple(((a.label,), "nilpotent") for a in q.loops()))


def nilpotent_module_constraint() -> SerreConstraint:
    """The whole module is nilpotent: the arrow ideal acts nilpotently."""
    return SerreConstraint((), nilpotent_module=True)


# ---------------------------------------------------------------------------
# JSON I/O
# ---------------------------------------------------------------------------

def quiver_from_dict(data: Mapping) -> Quiver:
    try:
        vertices = tuple(str(v) for v in data["vertices"])
        arrows = tuple(Arrow(str(a["label"]), str(a["src"]), str(a["tgt"])) for a in data["arrows"])
    except (KeyError, TypeError) as exc:
        raise QuiverError(f"malformed quiver data: {exc}") from exc
    return Quiver(vertices, arrows)


def quiver_to_dict(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"label": a.label, "src": a.src, "tgt": a.tgt} for a in q.arrows],
    }


def load_quiver(path: str) -> Quiver:
    """Load a quiver from a JSON file
    ``{"vertices": ["0","1"], "arrows": [{"label":"a","src":"0","tgt":"1"}]}``."""
    with open(path, "r", encoding="utf-8") as fh:
        return quiver_from_dict(json.load(fh))


def load_stability(path: str, quiver: Quiver) -> StabilityCondition:
    """Load a stability condition from ``{"re": {"0": "-1", "1": "0"}}`` with
    rationals as strings."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        re = {str(k): Fraction(str(v)) for k, v in data["re"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise QuiverError(f"malformed stability data: {exc}") from exc
    missing = set(quiver.vertices) - set(re)
    if missing:
        raise QuiverError(f"stability file missing vertices {sorted(missing)}")
    return StabilityCondition.from_map(quiver, re)


def load_constraint(path: str) -> SerreConstraint:
    """Load a constraint from
    ``{"clauses":[{"cycle":["a","a*"],"kind":"nilpotent"}], "nilpotent_module": false}``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        clauses = tuple(
            (tuple(str(x) for x in c["cycle"]), str(c["kind"])) for c in data.get("clauses", [])
        )
        nil_mod = bool(data.get("nilpotent_module", False))
    except (KeyError, TypeError) as exc:
        raise QuiverError(f"malformed constraint data: {exc}") from exc
    return SerreConstraint(clauses, nilpotent_module=nil_mod)


# ---------------------------------------------------------------------------
# Ready-made quivers used throughout tests and docs
# ---------------------------------------------------------------------------

def jordan_quiver() -> Quiver:
    """One vertex, one loop ``x``."""
    return Quiver(("0",), (Arrow("x", "0", "0"),))


def a2_quiver() -> Quiver:
    """Two vertices, one arrow ``a: 1 -> 2``."""
    return Quiver(("1", "2"), (Arrow("a", "1", "2"),))


def multi_loop_quiver(g: int) -> Quiver:
    """One vertex with ``g`` loops ``x1..xg``."""
    return Quiver(("0",), tuple(Arrow(f"x{k}", "0", "0") for k in range(1, g + 1)))


def point_quiver() -> Quiver:
    """One vertex, no arrows."""
    return Quiver(("0",), ())
