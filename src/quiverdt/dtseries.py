"""Generating series built on Kac polynomials and finite-field censuses.

The central object is the normalized stack series of a quiver (one formal
variable per vertex): the plethystic exponential

    g = Exp( sum_{d != 0} a_d(q) * q/(q-1) * t^d )

where a_d is the Kac polynomial (optionally Serre-restricted).  With this
normalization the t^d coefficient of g, evaluated at q = p, equals the
preprojective stack count of d over F_p multiplied by p^{(d,d)}, where (,) is
the Euler form of the original quiver — which is what the census cross-checks
verify.  Everything here is exact: coefficients are rational functions in the
half-variable u (u^2 = q), and series are truncated by total degree.

The module also provides the inverse extraction (stack series -> Kac table),
the Harder-Narasimhan recursion for semistable stack counts, the wall-crossing
product factorization check, quiver-variety Poincare series via framing
slices, the multiplicative-group character stack series, and the refined
series for the Hilbert scheme of points in 3-space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .census import (
    CapExceeded,
    DEFAULT_END_BUDGET,
    DEFAULT_POINT_BUDGET,
    gl_order,
    kac_polynomial,
    semistable_point_count,
    stack_count,
)
from .exactalg import (
    ExactAlgError,
    LaurentPoly,
    RationalFunction,
    TruncSeries,
    degree_box,
    pleth_exp,
    pleth_log,
)
from .quiver import (
    FRAME_VERTEX,
    DimVector,
    Quiver,
    QuiverError,
    SerreConstraint,
    StabilityCondition,
    TRIVIAL_CONSTRAINT,
    euler_form,
    frame,
    hn_tau_exponent,
    hn_types,
    slope,
)

__all__ = [
    "DTSeriesError",
    "KacTable",
    "SliceSpec",
    "WallcrossRow",
    "WallcrossReport",
    "PositivityRow",
    "PositivityReport",
    "PROVENANCE_KINDS",
    "series_variables",
    "build_kac_table",
    "stack_series_from_kac",
    "kac_from_stack_series",
    "hn_semistable_series",
    "wallcross_check",
    "nakajima_series",
    "char_stack_series",
    "hilb3_series",
    "hilb3_weight_polys",
    "duality_transform",
    "positivity_report",
]


class DTSeriesError(ValueError):
    """Raised on malformed tables, missing entries, or failed extractions."""


PROVENANCE_KINDS = ("oracle", "series-extracted", "user-supplied")


def series_variables(q: Quiver) -> tuple[str, ...]:
    """One series variable per vertex, in vertex order: ``t_<vertex>``."""
    return tuple(f"t_{v}" for v in q.vertices)


# ---------------------------------------------------------------------------
# Kac tables
# ---------------------------------------------------------------------------

@dataclass
class KacTable:
    """A table of Kac polynomials: dimension vector -> polynomial in q.

    ``provenance`` records, per entry, where the polynomial came from:
    "oracle" (finite-field census + interpolation), "series-extracted"
    (read off a stack series), or "user-supplied".  ``laurent`` marks tables
    whose entries are Laurent polynomials (negative q powers allowed), as
    produced by :func:`duality_transform`; plain tables insist on ordinary
    polynomials with integer coefficients.  ``skipped`` maps each dimension
    vector that :func:`build_kac_table` left out under ``on_cap="skip"`` to
    the text of its :class:`CapExceeded`; it is not part of any report.
    """

    quiver: Quiver
    constraint: SerreConstraint
    entries: dict[tuple[int, ...], LaurentPoly]
    provenance: dict[tuple[int, ...], str]
    laurent: bool = False
    skipped: dict[tuple[int, ...], str] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        n = len(self.quiver.vertices)
        norm_e: dict[tuple[int, ...], LaurentPoly] = {}
        norm_p: dict[tuple[int, ...], str] = {}
        for key, poly in self.entries.items():
            k = tuple(int(x) for x in key)
            if len(k) != n:
                raise DTSeriesError(f"entry key {k} does not match vertex count {n}")
            if not any(k):
                raise DTSeriesError("Kac tables index nonzero dimension vectors only")
            if any(x < 0 for x in k):
                raise DTSeriesError(f"negative dimension in entry key {k}")
            if not poly.is_even():
                raise DTSeriesError(f"entry {k} is not a polynomial in q")
            for u_exp, c in poly.items():
                if c.denominator != 1:
                    raise DTSeriesError(f"entry {k} has non-integer coefficient {c}")
                if u_exp < 0 and not self.laurent:
                    raise DTSeriesError(
                        f"entry {k} has a negative power of q in a non-Laurent table"
                    )
            prov = self.provenance.get(k, self.provenance.get(key))
            if prov not in PROVENANCE_KINDS:
                raise DTSeriesError(f"entry {k} has missing or unknown provenance {prov!r}")
            norm_e[k] = poly
            norm_p[k] = prov
        self.entries = norm_e
        self.provenance = norm_p

    def key(self, d) -> tuple[int, ...]:
        if isinstance(d, DimVector):
            return d.values
        return tuple(int(x) for x in d)

    def has(self, d) -> bool:
        return self.key(d) in self.entries

    def entry(self, d) -> LaurentPoly:
        k = self.key(d)
        if k not in self.entries:
            raise DTSeriesError(f"no Kac table entry for dimension vector {k}")
        return self.entries[k]

    def dims(self) -> list[tuple[int, ...]]:
        return sorted(self.entries)

    def to_json_dict(self, quiver_ref=None, constraint_ref=None) -> dict:
        from .quiver import quiver_to_dict

        ent = {}
        prov = {}
        for k in self.dims():
            name = ",".join(str(x) for x in k)
            qd = self.entries[k].q_dict()
            ent[name] = {str(e): str(c) for e, c in sorted(qd.items())}
            prov[name] = self.provenance[k]
        return {
            "quiver": quiver_ref if quiver_ref is not None else quiver_to_dict(self.quiver),
            "constraint": constraint_ref
            if constraint_ref is not None
            else (None if self.constraint.is_trivial() else self.constraint.describe()),
            "laurent": self.laurent,
            "entries": ent,
            "provenance": prov,
        }

    @classmethod
    def from_json_dict(
        cls, data: Mapping, quiver: Quiver, constraint: SerreConstraint | None = None
    ) -> "KacTable":
        entries = {}
        prov = {}
        for name, qcoeffs in data["entries"].items():
            k = tuple(int(x) for x in name.split(","))
            entries[k] = LaurentPoly.from_q_dict({int(e): Fraction(c) for e, c in qcoeffs.items()})
            prov[k] = data.get("provenance", {}).get(name, "user-supplied")
        return cls(
            quiver=quiver,
            constraint=constraint if constraint is not None else TRIVIAL_CONSTRAINT,
            entries=entries,
            provenance=prov,
            laurent=bool(data.get("laurent", False)),
        )


def build_kac_table(
    q: Quiver,
    dims: Iterable,
    s: SerreConstraint | None = None,
    *,
    nodes: Sequence[int] | None = None,
    point_budget: int = DEFAULT_POINT_BUDGET,
    end_budget: int = DEFAULT_END_BUDGET,
    workers: int = 1,
    on_cap: str = "raise",
) -> KacTable:
    """Compute Kac polynomials for the given dimension vectors via the census
    oracle.  ``on_cap="skip"`` omits entries whose interpolation would exceed
    a budget and records each on ``KacTable.skipped`` with the text of its
    :class:`CapExceeded`; the default propagates the :class:`CapExceeded`."""
    if on_cap not in ("raise", "skip"):
        raise DTSeriesError(f"unknown on_cap mode {on_cap!r}")
    entries = {}
    prov = {}
    skipped = {}
    for d in dims:
        dv = d if isinstance(d, DimVector) else q.dim(d)
        try:
            poly = kac_polynomial(
                q,
                dv,
                s,
                nodes,
                point_budget=point_budget,
                end_budget=end_budget,
                workers=workers,
            )
        except CapExceeded as exc:
            if on_cap == "raise":
                raise
            skipped[dv.values] = str(exc)
            continue
        entries[dv.values] = poly
        prov[dv.values] = "oracle"
    return KacTable(
        quiver=q,
        constraint=s if s is not None else TRIVIAL_CONSTRAINT,
        entries=entries,
        provenance=prov,
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# Stack series <-> Kac tables
# ---------------------------------------------------------------------------

_KAC_FACTORS = ("q/(q-1)", "1/(q-1)")


def stack_series_from_kac(
    k: KacTable,
    order: int,
    *,
    kac_factor: str = "q/(q-1)",
    require_complete: bool = True,
) -> TruncSeries:
    """The normalized stack series Exp(sum_d a_d(q) * factor * t^d).

    The default factor q/(q-1) is the normalization under which the t^d
    coefficient at q=p equals (preprojective stack count) * p^{(d,d)}; the
    variant "1/(q-1)" is exposed for comparison experiments and does *not*
    satisfy that census identity.

    With ``require_complete`` every nonzero dimension vector of total degree
    <= order must have a table entry (missing data would silently corrupt
    the plethystic exponential); pass False only when the consumer provably
    uses slices unaffected by the omitted entries.
    """
    if order < 0:
        raise DTSeriesError("order must be nonnegative")
    if kac_factor not in _KAC_FACTORS:
        raise DTSeriesError(f"unknown kac_factor {kac_factor!r}; options: {_KAC_FACTORS}")
    num = LaurentPoly.q_power(1) if kac_factor == "q/(q-1)" else LaurentPoly.one()
    factor = RationalFunction(num, LaurentPoly.q_power(1) - LaurentPoly.one())
    variables = series_variables(k.quiver)
    terms = {}
    for key in degree_box(len(variables), order):
        if not any(key):
            continue
        if key not in k.entries:
            if require_complete:
                raise DTSeriesError(
                    f"Kac table is missing dimension vector {key} needed at order {order}"
                )
            continue
        terms[key] = RationalFunction.from_laurent(k.entries[key]) * factor
    return pleth_exp(TruncSeries(variables, order, terms))


def kac_from_stack_series(
    g: TruncSeries,
    quiver: Quiver,
    *,
    euler_twist: bool = False,
    constraint: SerreConstraint | None = None,
) -> KacTable:
    """Invert :func:`stack_series_from_kac`: a_d = (q-1)/q * [t^d] Log(g).

    With ``euler_twist`` the input series is first multiplied coefficientwise
    by q^{(d,d)} (Euler form of ``quiver``): use this when g was assembled
    from raw stack counts rather than in the normalized (twisted) form.

    Every extracted coefficient must come out a polynomial in q with integer
    coefficients; anything else raises :class:`DTSeriesError`, signalling
    that g was not a normalized stack series.
    """
    variables = series_variables(quiver)
    if g.variables != variables:
        raise DTSeriesError(
            f"series variables {g.variables} do not match quiver variables {variables}"
        )
    work = g
    if euler_twist:
        terms = {}
        for key, coeff in work.items():
            d = DimVector(quiver.vertices, key)
            if d.is_zero():
                terms[key] = coeff
            else:
                e = euler_form(quiver, d, d)
                terms[key] = coeff * RationalFunction.from_laurent(LaurentPoly.q_power(e))
        work = TruncSeries(variables, g.order, terms)
    lg = pleth_log(work)
    inv_factor = RationalFunction(
        LaurentPoly.q_power(1) - LaurentPoly.one(), LaurentPoly.q_power(1)
    )  # (q-1)/q
    entries = {}
    prov = {}
    for key in degree_box(len(variables), g.order):
        if not any(key):
            continue
        c = lg.coeff(key) * inv_factor
        try:
            poly = c.as_laurent()
        except ExactAlgError as exc:
            raise DTSeriesError(
                f"coefficient at {key} is not polynomial: {c!r}"
            ) from exc
        if not poly.is_even():
            raise DTSeriesError(f"coefficient at {key} involves odd powers of u: {poly!r}")
        for u_exp, cf in poly.items():
            if cf.denominator != 1 or u_exp < 0:
                raise DTSeriesError(
                    f"extracted entry at {key} is not an integer polynomial in q: {poly!r}"
                )
        entries[key] = poly
        prov[key] = "series-extracted"
    return KacTable(
        quiver=quiver,
        constraint=constraint if constraint is not None else TRIVIAL_CONSTRAINT,
        entries=entries,
        provenance=prov,
    )


# ---------------------------------------------------------------------------
# Harder-Narasimhan recursion and wall-crossing
# ---------------------------------------------------------------------------

def _pow_frac(p: int, e: int) -> Fraction:
    return Fraction(p ** e) if e >= 0 else Fraction(1, p ** (-e))


def hn_semistable_series(
    total: Mapping,
    q: Quiver,
    z: StabilityCondition,
    d: DimVector,
    p: int,
) -> Fraction:
    """Semistable stack count of ``d`` from total stack counts, by the
    stratified recursion

        total(d) = sum_{HN types alpha of d} p^{tau(alpha)} prod_j sst(alpha^j)

    solved triangularly (every proper type involves strictly smaller
    vectors).  ``total`` maps dimension-vector keys to exact stack counts at
    the prime p; all vectors appearing in HN types of d must be present.
    """
    norm: dict[tuple[int, ...], Fraction] = {}
    for key, val in total.items():
        k = key.values if isinstance(key, DimVector) else tuple(int(x) for x in key)
        norm[k] = Fraction(val)
    memo: dict[tuple[int, ...], Fraction] = {}

    def sst(dv: DimVector) -> Fraction:
        k = dv.values
        if k in memo:
            return memo[k]
        if k not in norm:
            raise DTSeriesError(f"total stack count for {k} is required but missing")
        acc = norm[k]
        for alpha in hn_types(q, z, dv):
            if len(alpha.parts) == 1:
                continue
            term = _pow_frac(p, hn_tau_exponent(q, alpha))
            for part in alpha.parts:
                term *= sst(DimVector(q.vertices, part))
            acc -= term
        memo[k] = acc
        return acc

    return sst(d)


@dataclass(frozen=True)
class SliceSpec:
    """One slope slice of a wall-crossing factorization: the stability
    condition and the slope value the factor is supported on."""

    stability: StabilityCondition
    theta: Fraction

    def contains(self, d: DimVector) -> bool:
        return not d.is_zero() and slope(self.stability, d) == self.theta


@dataclass(frozen=True)
class WallcrossRow:
    dim: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    def to_json_dict(self) -> dict:
        return {
            "dim": ",".join(str(x) for x in self.dim),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class WallcrossReport:
    p: int
    order: int
    relations: str
    constraint: str
    perturb_twist: int
    slopes: tuple[Fraction, ...]
    rows: tuple[WallcrossRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "p": str(self.p),
            "order": str(self.order),
            "relations": self.relations,
            "constraint": self.constraint,
            "perturb_twist": str(self.perturb_twist),
            "slopes": [str(s) for s in self.slopes],
            "rows": [r.to_json_dict() for r in self.rows],
            "passed": self.passed,
        }


def wallcross_check(
    q: Quiver,
    z: StabilityCondition,
    p: int,
    order: int,
    relations: str = "preprojective",
    s: SerreConstraint | None = None,
    *,
    perturb_twist: int = 0,
    point_budget: int = DEFAULT_POINT_BUDGET,
    workers: int = 1,
) -> WallcrossReport:
    """Check the wall-crossing factorization on twisted census counts.

    Left side: sum over d of total(d) * p^{(d,d)} t^d with total(d) the
    census stack count under the given relations/constraint.  Right side:
    the product over slopes theta (one factor per slope) of

        1 + sum_{d of slope theta} sst(d) * p^{(d,d) + perturb_twist} t^d

    with sst(d) the *directly censused* semistable stack count — both sides
    are measured independently, so equality is a genuine identity check.
    ``perturb_twist`` damages the right-hand twist; any nonzero value must
    make mixed-slope coefficients fail (negative control).
    """
    if order < 1:
        raise DTSeriesError("wall-crossing check needs order >= 1")
    nverts = len(q.vertices)
    keys = [k for k in degree_box(nverts, order) if any(k)]
    total_tw: dict[tuple[int, ...], Fraction] = {}
    sst_tw: dict[tuple[int, ...], Fraction] = {}
    slopes_of: dict[tuple[int, ...], Fraction] = {}
    for k in keys:
        dv = DimVector(q.vertices, k)
        ee = euler_form(q, dv, dv)
        tot = stack_count(q, dv, p, relations, s, point_budget=point_budget, workers=workers)
        npts = semistable_point_count(
            q, dv, p, z, relations, s, point_budget=point_budget, workers=workers
        )
        sst = Fraction(npts, gl_order(dv, p))
        total_tw[k] = tot * _pow_frac(p, ee)
        sst_tw[k] = sst * _pow_frac(p, ee + perturb_twist)
        slopes_of[k] = slope(z, dv)
    slopes = sorted(set(slopes_of.values()), reverse=True)
    # assemble the product of slope factors, truncated to total degree <= order
    zero_key = (0,) * nverts
    rhs: dict[tuple[int, ...], Fraction] = {zero_key: Fraction(1)}
    for theta in slopes:
        factor = {zero_key: Fraction(1)}
        for k in keys:
            if slopes_of[k] == theta and sst_tw[k]:
                factor[k] = sst_tw[k]
        new: dict[tuple[int, ...], Fraction] = {}
        for k1, v1 in rhs.items():
            for k2, v2 in factor.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                if sum(k) > order:
                    continue
                new[k] = new.get(k, Fraction(0)) + v1 * v2
        rhs = new
    rows = tuple(
        WallcrossRow(dim=k, lhs=total_tw[k], rhs=rhs.get(k, Fraction(0)))
        for k in sorted(keys)
    )
    ws = s if s is not None else TRIVIAL_CONSTRAINT
    return WallcrossReport(
        p=p,
        order=order,
        relations=relations,
        constraint=ws.describe(),
        perturb_twist=perturb_twist,
        slopes=tuple(slopes),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Quiver-variety series via framing slices
# ---------------------------------------------------------------------------

def nakajima_series(
    q: Quiver,
    f,
    order: int,
    *,
    point_budget: int = DEFAULT_POINT_BUDGET,
    end_budget: int = DEFAULT_END_BUDGET,
    workers: int = 1,
) -> dict[tuple[int, ...], LaurentPoly]:
    """Poincare-type weight polynomials of framed quiver varieties.

    For the framing vector f, each dimension vector d with |d| <= order gets

        w_d(q) = (q-1) * q^{-((d,d) - f.d + 1)} * [t^d] (g_1 / g_0)

    where g_k is the coefficient of (framing variable)^k in the normalized
    stack series of the framed quiver, built from census Kac polynomials of
    framed dimension vectors (0,d) and (1,d).  Truncating the framed table at
    framing degree 1 is sound: the Adams operations scale the framing degree,
    so slices 0 and 1 of the exponential never involve higher framed entries.

    Every w_d must be a polynomial in q with nonnegative integer
    coefficients; a violation raises :class:`DTSeriesError` naming the
    offending dimension vector and monomial (never silently dropped).
    """
    if order < 0:
        raise DTSeriesError("order must be nonnegative")
    fv = f if isinstance(f, DimVector) else q.dim(f)
    fq = frame(q, fv)
    dims = []
    for key in degree_box(len(q.vertices), order):
        for framing in (0, 1):
            full = (framing,) + key
            if any(full):
                dims.append(fq.dim(full))
    table = build_kac_table(
        fq,
        dims,
        point_budget=point_budget,
        end_budget=end_budget,
        workers=workers,
    )
    g = stack_series_from_kac(table, order + 1, require_complete=False)
    frame_var = f"t_{FRAME_VERTEX}"
    g1 = g.slice_var(frame_var, 1)
    g0 = g.slice_var(frame_var, 0).truncate(order)
    ratio = g1 / g0
    out: dict[tuple[int, ...], LaurentPoly] = {}
    for key in degree_box(len(q.vertices), order):
        if not any(key):
            out[key] = LaurentPoly.one()
            continue
        dv = q.dim(key)
        shift = -(euler_form(q, dv, dv) - sum(a * b for a, b in zip(fv.values, key)) + 1)
        c = ratio.coeff(key)
        w = (
            c
            * RationalFunction.from_laurent(LaurentPoly.q_power(1) - LaurentPoly.one())
            * RationalFunction.from_laurent(LaurentPoly.q_power(shift))
        )
        try:
            poly = w.as_laurent()
        except ExactAlgError as exc:
            raise DTSeriesError(f"weight at {key} is not polynomial: {w!r}") from exc
        if not poly.is_even():
            raise DTSeriesError(f"weight at {key} has odd powers of u: {poly!r}")
        for e, cf in sorted(poly.q_dict().items()):
            if cf.denominator != 1 or cf < 0 or e < 0:
                raise DTSeriesError(
                    f"weight at {key} fails positivity at monomial {cf}*q^{e}: {poly!r}"
                )
        out[key] = poly
    return out


# ---------------------------------------------------------------------------
# Closed-form series families
# ---------------------------------------------------------------------------

def char_stack_series(order: int, form: str = "exp") -> TruncSeries:
    """Point-count series of rank-n multiplicative-group character stacks in
    one variable t: Exp((q-1)(t + t^2 + ...)), equal to the product
    prod_{j>=1} (1 - t^j)/(1 - q t^j).  ``form`` selects the construction
    route ("exp" or "product"); both agree, which is itself a checked
    identity."""
    if order < 0:
        raise DTSeriesError("order must be nonnegative")
    variables = ("t",)
    if form == "exp":
        qm1 = RationalFunction.from_laurent(LaurentPoly.q_power(1) - LaurentPoly.one())
        return pleth_exp(TruncSeries(variables, order, {(j,): qm1 for j in range(1, order + 1)}))
    if form == "product":
        acc = TruncSeries.one(variables, order)
        for j in range(1, order + 1):
            num = TruncSeries.one(variables, order) - TruncSeries.monomial(
                variables, order, (j,), 1
            )
            den = TruncSeries.one(variables, order) - TruncSeries.monomial(
                variables, order, (j,), RationalFunction.from_laurent(LaurentPoly.q_power(1))
            )
            acc = acc * num / den
        return acc
    raise DTSeriesError(f"unknown form {form!r}; options: exp, product")


def hilb3_series(order: int) -> TruncSeries:
    """Refined point-count series for Hilbert schemes of points of affine
    3-space, in one variable t:

        prod_{m>=1} prod_{k=0}^{m-1} (1 - q^{2k+4-m} t^m)^{-1}

    truncated at t^order.  Coefficients are Laurent polynomials in q (the
    exponent 2k+4-m can be negative for large m); the weight normalization
    q^{n^2-n} of :func:`hilb3_weight_polys` makes them honest polynomials.
    At q -> 1 the t^n coefficient is the number of plane partitions of n.
    """
    if order < 0:
        raise DTSeriesError("order must be nonnegative")
    variables = ("t",)
    acc = TruncSeries.one(variables, order)
    for m in range(1, order + 1):
        for k in range(m):
            e = 2 * k + 4 - m
            factor = TruncSeries.one(variables, order) - TruncSeries.monomial(
                variables,
                order,
                (m,),
                RationalFunction.from_laurent(LaurentPoly.q_power(e)),
            )
            acc = acc / factor
    return acc


def hilb3_weight_polys(order: int) -> dict[int, LaurentPoly]:
    """Weight polynomials q^{n^2-n} * [t^n] of :func:`hilb3_series`."""
    g = hilb3_series(order)
    out: dict[int, LaurentPoly] = {}
    for n in range(order + 1):
        c = g.coeff((n,)) * RationalFunction.from_laurent(
            LaurentPoly.q_power(n * n - n)
        )
        try:
            out[n] = c.as_laurent()
        except ExactAlgError as exc:
            raise DTSeriesError(f"weight at t^{n} is not polynomial: {c!r}") from exc
    return out


# ---------------------------------------------------------------------------
# Duality and positivity
# ---------------------------------------------------------------------------

def duality_transform(k: KacTable) -> KacTable:
    """The table with every entry transformed by q -> q^{-1}.

    The result is flagged ``laurent`` because entries acquire negative powers
    of q; downstream consumers must treat it as a Laurent-coefficient table.
    """
    entries = {key: poly.substitute_u_power(-1) for key, poly in k.entries.items()}
    return KacTable(
        quiver=k.quiver,
        constraint=k.constraint,
        entries=entries,
        provenance=dict(k.provenance),
        laurent=True,
    )


@dataclass(frozen=True)
class PositivityRow:
    table: str
    key: str
    offending: str | None  # None when the entry passes

    @property
    def ok(self) -> bool:
        return self.offending is None

    def to_json_dict(self) -> dict:
        return {"table": self.table, "key": self.key, "ok": self.ok, "offending": self.offending}


@dataclass(frozen=True)
class PositivityReport:
    rows: tuple[PositivityRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def failures(self) -> list[PositivityRow]:
        return [r for r in self.rows if not r.ok]

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, "rows": [r.to_json_dict() for r in self.rows]}


def _positivity_offence(poly: LaurentPoly) -> str | None:
    if not poly.is_even():
        for e, c in poly.items():
            if e % 2:
                return f"{c}*u^{e}"
    for e, c in sorted(poly.q_dict().items()):
        if c.denominator != 1 or c < 0:
            return f"{c}*q^{e}"
    return None


def positivity_report(tables: Mapping) -> PositivityReport:
    """Per-entry nonnegative-integer-coefficient verdicts for a collection of
    tables: {name: KacTable | {key: LaurentPoly}}.  Every failing entry names
    its first offending monomial; nothing is summarized away."""
    rows: list[PositivityRow] = []
    for name in sorted(tables):
        tab = tables[name]
        items: Iterable
        if isinstance(tab, KacTable):
            items = ((k, tab.entries[k]) for k in tab.dims())
        else:
            items = sorted(tab.items())
        for key, poly in items:
            key_str = ",".join(str(x) for x in key) if isinstance(key, tuple) else str(key)
            rows.append(
                PositivityRow(table=name, key=key_str, offending=_positivity_offence(poly))
            )
    return PositivityReport(rows=tuple(rows))
