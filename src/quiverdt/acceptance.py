"""The acceptance suite: ten numbered exact-arithmetic criteria.

Each criterion returns a :class:`CriterionResult` carrying a pass/fail verdict
and a short witness string (the actual values compared, never just "ok").
Heavy oracle computations (Kac tables) are cached and shared across criteria.
:func:`run_all` never raises: an exception inside a criterion is reported as a
failure with the exception text as the witness.

Independent combinatorial oracles used for cross-checks live here too:
plane-partition counts by direct enumeration and the partition-generating
polynomials sum(q^{n + length(lambda)}) over partitions of n.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .census import (
    CapExceeded,
    census_report,
    gl_order,
    point_count,
    semistable_point_count,
    stack_count,
)
from .dtseries import (
    build_kac_table,
    char_stack_series,
    hilb3_series,
    hn_semistable_series,
    nakajima_series,
    positivity_report,
    stack_series_from_kac,
    wallcross_check,
)
from .exactalg import (
    LaurentPoly,
    RationalFunction,
    TruncSeries,
    pleth_exp,
    pleth_log,
)
from .quiver import (
    SerreConstraint,
    StabilityCondition,
    a2_quiver,
    euler_form,
    jordan_quiver,
    loops_nilpotent_constraint,
    multi_loop_quiver,
    nilpotent_module_constraint,
    point_quiver,
    quiver_to_dict,
)

__all__ = [
    "CriterionResult",
    "run_all",
    "CRITERIA",
    "plane_partition_count",
    "partition_weight_poly",
]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number} ({self.name}): {self.detail}"


# ---------------------------------------------------------------------------
# Independent combinatorial oracles
# ---------------------------------------------------------------------------

def plane_partition_count(n: int) -> int:
    """Number of plane partitions of n, by direct enumeration of row-stacked
    partitions with componentwise-dominated successive rows."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1

    def rows_under(bound: tuple[int, ...], cap: int) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []

        def rec(i: int, prev: int, acc: tuple[int, ...], s: int) -> None:
            hi = min(prev, bound[i], cap - s)
            for v in range(hi, 0, -1):
                row = acc + (v,)
                out.append(row)
                if i + 1 < len(bound):
                    rec(i + 1, v, row, s + v)

        rec(0, cap, (), 0)
        return out

    total = 0

    def rec(bound: tuple[int, ...], remaining: int) -> None:
        nonlocal total
        if remaining == 0:
            total += 1
            return
        for row in rows_under(bound, remaining):
            rec(row, remaining - sum(row))

    rec((n,) * n, n)
    return total


def _partitions(n: int, most: int | None = None) -> list[tuple[int, ...]]:
    if most is None:
        most = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, most), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return out


def partition_weight_poly(n: int) -> LaurentPoly:
    """sum over partitions lambda of n of q^{n + length(lambda)} — the
    independent oracle for the weight polynomials of point-counting the
    Hilbert schemes of the affine plane."""
    coeffs: dict[int, Fraction] = {}
    for lam in _partitions(n):
        e = n + len(lam)
        coeffs[e] = coeffs.get(e, Fraction(0)) + 1
    return LaurentPoly.from_q_dict(coeffs)


def _fmt(poly: LaurentPoly) -> str:
    qd = poly.q_dict()
    if not qd:
        return "0"
    bits = []
    for e in sorted(qd, reverse=True):
        c = qd[e]
        if e == 0:
            bits.append(str(c))
        else:
            cs = "" if c == 1 else f"{c}*"
            bits.append(f"{cs}q^{e}" if e != 1 else f"{cs}q")
    return "+".join(bits).replace("+-", "-")


# ---------------------------------------------------------------------------
# Shared cached oracle tables
# ---------------------------------------------------------------------------

_QUIVERS = {
    "jordan": jordan_quiver,
    "a2": a2_quiver,
    "2loop": lambda: multi_loop_quiver(2),
}


@lru_cache(maxsize=None)
def _oracle_table(quiver_name: str, flavor: str, workers: int):
    q = _QUIVERS[quiver_name]()
    if flavor == "plain":
        s: SerreConstraint | None = None
    elif flavor == "sn":
        s = loops_nilpotent_constraint(q)
    elif flavor == "ssn":
        s = nilpotent_module_constraint()
    else:
        raise ValueError(flavor)
    dims = [k for k in product(range(4), repeat=len(q.vertices)) if 0 < sum(k) <= 3]
    return build_kac_table(q, dims, s, workers=workers, on_cap="skip"), len(dims)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def _criterion_kac_values(workers: int) -> tuple[bool, str]:
    jt, _ = _oracle_table("jordan", "plain", workers)
    lt, _ = _oracle_table("2loop", "plain", workers)
    at, _ = _oracle_table("a2", "plain", workers)
    qpoly = LaurentPoly.q_power(1)
    checks = [
        ("jordan d=1", jt.entry((1,)), qpoly),
        ("jordan d=2", jt.entry((2,)), qpoly),
        ("a2 d=(1,1)", at.entry((1, 1)), LaurentPoly.one()),
        ("2loop d=1", lt.entry((1,)), LaurentPoly.q_power(2)),
    ]
    bad = [f"{n}: {_fmt(g)} != {_fmt(e)}" for n, g, e in checks if g != e]
    if bad:
        return False, "; ".join(bad)
    return True, "; ".join(f"{n} = {_fmt(g)}" for n, g, _ in checks) + " (check nodes consistent)"


def _criterion_census_identity(workers: int) -> tuple[bool, str]:
    jt, _ = _oracle_table("jordan", "plain", workers)
    g = stack_series_from_kac(jt, 2)
    c2 = g.coeff((2,))
    jq = jordan_quiver()
    got = []
    for p, frozen in ((2, Fraction(44, 3)), (3, Fraction(315, 16))):
        val = c2.eval_q(p)
        census = stack_count(jq, jq.dim((2,)), p, "preprojective", workers=workers)
        if val != frozen or census != frozen:
            return False, f"p={p}: series={val}, census={census}, expected={frozen}"
        got.append(f"q={p}: {val}")
    return True, "t^2 coefficient of Exp-series = census stack count: " + ", ".join(got)


def _criterion_positivity(workers: int) -> tuple[bool, str]:
    tables = {}
    checked = 0
    skipped = 0
    for qn in ("jordan", "a2", "2loop"):
        for flavor in ("plain", "sn", "ssn"):
            t, requested = _oracle_table(qn, flavor, workers)
            tables[f"{qn}/{flavor}"] = t
            checked += len(t.entries)
            skipped += requested - len(t.entries)
    rep = positivity_report(tables)
    if not rep.passed:
        f = rep.failures()[0]
        return False, f"{f.table} entry {f.key}: offending monomial {f.offending}"
    return True, (
        f"{checked} oracle entries across 9 tables have nonnegative integer "
        f"coefficients ({skipped} entries beyond the default point budget skipped)"
    )


def _criterion_char_stack(workers: int) -> tuple[bool, str]:
    g = char_stack_series(6, "exp")
    c2 = g.coeff((2,)).as_laurent()
    want = LaurentPoly.from_q_dict({2: Fraction(1), 0: Fraction(-1)})
    if c2 != want:
        return False, f"t^2 coefficient {_fmt(c2)} != {_fmt(want)}"
    at2 = c2.eval_q(2)
    jq = jordan_quiver()
    inv = SerreConstraint(((("x",), "invertible"), (("x*",), "invertible")))
    pairs = point_count(jq, jq.dim((2,)), 2, "preprojective", inv, workers=workers)
    census = Fraction(pairs, gl_order(jq.dim((2,)), 2))
    if at2 != census:
        return False, f"t^2 at q=2 is {at2}, census {pairs}/|GL| = {census}"
    prod = char_stack_series(6, "product")
    for j in range(7):
        if g.coeff((j,)) != prod.coeff((j,)):
            return False, f"Exp form != product form at t^{j}"
    return True, (
        f"t^2 = {_fmt(c2)}; at q=2 equals census {pairs}/{gl_order(jq.dim((2,)), 2)}"
        f" = {census}; Exp = product to order 6"
    )


def _criterion_hilb3(workers: int) -> tuple[bool, str]:
    g = hilb3_series(5)
    c1 = g.coeff((1,)).as_laurent()
    if c1 != LaurentPoly.from_q_dict({3: Fraction(1)}):
        return False, f"t^1 coefficient {_fmt(c1)} != q^3"
    got = []
    for n in range(1, 6):
        val = g.coeff((n,)).as_laurent().eval_q(1)
        oracle = plane_partition_count(n)
        if val != oracle:
            return False, f"t^{n} at q=1 is {val}, plane-partition oracle {oracle}"
        got.append(str(val))
    return True, f"t^1 = q^3; q->1 coefficients {','.join(got)} match enumeration oracle"


def _criterion_nakajima(workers: int) -> tuple[bool, str]:
    jq = jordan_quiver()
    nak = nakajima_series(jq, (1,), 2, workers=workers)
    for n in (1, 2):
        oracle = partition_weight_poly(n)
        if nak[(n,)] != oracle:
            return False, f"jordan f=1 n={n}: {_fmt(nak[(n,)])} != oracle {_fmt(oracle)}"
    pt = point_quiver()
    nak2 = nakajima_series(pt, (2,), 1, workers=workers)
    want = LaurentPoly.from_q_dict({2: Fraction(1), 1: Fraction(1)})
    if nak2[(1,)] != want:
        return False, f"point f=2 d=1: {_fmt(nak2[(1,)])} != {_fmt(want)}"
    return True, (
        f"jordan f=1: {_fmt(nak[(1,)])}, {_fmt(nak[(2,)])} match partition oracle; "
        f"point f=2 d=1: {_fmt(nak2[(1,)])}"
    )


def _criterion_pleth_roundtrip(workers: int) -> tuple[bool, str]:
    rng = random.Random(271828)
    palette = [
        RationalFunction.zero(),
        RationalFunction.from_int(1),
        RationalFunction.from_int(-1),
        RationalFunction.from_laurent(LaurentPoly.q_power(1)),
        RationalFunction.from_laurent(LaurentPoly.q_power(1)).scale(Fraction(-1)),
        RationalFunction.from_laurent(LaurentPoly.q_power(2)),
        RationalFunction.from_laurent(LaurentPoly.q_power(2)).scale(Fraction(-1)),
    ]
    variables = ("t_1", "t_2")
    order = 5
    keys = [
        (i, j) for i in range(order + 1) for j in range(order + 1) if 0 < i + j <= order
    ]
    for trial in range(100):
        terms = {k: rng.choice(palette) for k in keys}
        f = TruncSeries(variables, order, terms)
        if not (pleth_log(pleth_exp(f)) - f).is_zero():
            return False, f"Log(Exp(f)) != f at seeded trial {trial}"
        g = TruncSeries.one(variables, order) + f
        if not (pleth_exp(pleth_log(g)) - g).is_zero():
            return False, f"Exp(Log(g)) != g at seeded trial {trial}"
    return True, "Log(Exp(f)) = f and Exp(Log(1+f)) = 1+f for 100 seeded random series"


def _criterion_hn(workers: int) -> tuple[bool, str]:
    a2 = a2_quiver()
    z = StabilityCondition.from_map(a2, {"1": -1, "2": 0})
    dims = [(1, 0), (0, 1), (1, 1)]
    box = [(i, j) for i in range(2) for j in range(2) if i + j]
    results = []
    for p in (2, 3):
        total = {k: stack_count(a2, a2.dim(k), p, workers=workers) for k in box}
        for k in dims:
            dv = a2.dim(k)
            rec = hn_semistable_series(total, a2, z, dv, p)
            direct = Fraction(
                semistable_point_count(a2, dv, p, z), gl_order(dv, p)
            )
            if rec != direct:
                return False, f"p={p} d={k}: recursion {rec} != census {direct}"
            results.append(f"p={p},d={k}:{rec}")
    z0 = StabilityCondition.from_map(a2, {"1": 0, "2": 0})
    total2 = {k: stack_count(a2, a2.dim(k), 2, workers=workers) for k in box}
    for k in dims:
        rec = hn_semistable_series(total2, a2, z0, a2.dim(k), 2)
        if rec != total2[k]:
            return False, f"degenerate stability: sst({k}) = {rec} != total {total2[k]}"
    return True, (
        "recursion = brute-force census at "
        + " ".join(results)
        + "; degenerate stability reduces to identity"
    )


def _criterion_wallcross(workers: int) -> tuple[bool, str]:
    a2 = a2_quiver()
    z = StabilityCondition.from_map(a2, {"1": -1, "2": 0})
    rep = wallcross_check(a2, z, 2, 2, workers=workers)
    if not rep.passed:
        bad = [r for r in rep.rows if not r.ok][0]
        return False, f"factorization fails at d={bad.dim}: {bad.lhs} != {bad.rhs}"
    perturbed = wallcross_check(a2, z, 2, 2, perturb_twist=1, workers=workers)
    if perturbed.passed:
        return False, "perturbed twist +1 still passed (negative control broken)"
    mixed = {r.dim: (r.lhs, r.rhs) for r in rep.rows}[(1, 1)]
    return True, (
        f"total = slope-ordered product over {len(rep.rows)} dims "
        f"(d=(1,1): {mixed[0]} = {mixed[1]}); perturbed twist fails as required"
    )


def _criterion_determinism(workers: int) -> tuple[bool, str]:
    jq = jordan_quiver()
    reports = [
        census_report(jq, jq.dim((2,)), 3, "preprojective", workers=w)
        for w in (1, 2, 8)
    ]
    if not (reports[0] == reports[1] == reports[2]):
        return False, "census reports differ across 1/2/8 worker partitions"
    with tempfile.TemporaryDirectory() as td:
        qpath = os.path.join(td, "jordan.json")
        with open(qpath, "w", encoding="utf-8") as fh:
            json.dump(quiver_to_dict(jq), fh)
        outs = []
        for i in (1, 2):
            opath = os.path.join(td, f"out{i}.json")
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "quiverdt.cli",
                    "kac",
                    "--quiver",
                    qpath,
                    "--dim",
                    "2",
                    "--out",
                    opath,
                ],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                return False, f"CLI run {i} exited {proc.returncode}: {proc.stderr.strip()}"
            with open(opath, "rb") as fh:
                outs.append(fh.read())
    if outs[0] != outs[1]:
        return False, "repeated CLI runs are not byte-identical"
    return True, (
        f"census reports identical for 1/2/8 workers "
        f"(stack count {reports[0].stack_count}); repeated CLI runs byte-identical "
        f"({len(outs[0])} bytes)"
    )


CRITERIA = [
    (1, "kac-oracle-values", _criterion_kac_values),
    (2, "stack-series-census-identity", _criterion_census_identity),
    (3, "restricted-kac-positivity", _criterion_positivity),
    (4, "genus-one-character-stack", _criterion_char_stack),
    (5, "hilbert-scheme-3space-series", _criterion_hilb3),
    (6, "quiver-variety-weights", _criterion_nakajima),
    (7, "plethystic-roundtrip", _criterion_pleth_roundtrip),
    (8, "hn-recursion-vs-census", _criterion_hn),
    (9, "wall-crossing-factorization", _criterion_wallcross),
    (10, "determinism", _criterion_determinism),
]


def run_all(workers: int = 1) -> list[CriterionResult]:
    """Run all ten criteria; exceptions become failures, never crashes."""
    out = []
    for number, name, fn in CRITERIA:
        try:
            passed, detail = fn(workers)
        except Exception as exc:  # noqa: BLE001 - verdicts must always be produced
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append(CriterionResult(number=number, name=name, passed=passed, detail=detail))
    return out
