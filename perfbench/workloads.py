"""The benchmark's workloads: operation lists with golden values held here.

Each workload is a list of :class:`Op`.  An op calls the public quiverdt API
through module attributes looked up at call time (``dtseries.build_kac_table``,
``census.point_count``, ...), so the tracer's wrappers see every call.  Its
outcome is canonicalised to a name-free JSON value and compared exactly with
the golden value; an expected ``CapExceeded`` is an outcome like any other.

The seed relabels the vertices and arrows of every census quiver (names
change, the arrow order and so the amount of work does not) and draws the
random series of the plethystic round trips.

``smoke=True`` builds a reduced-size version of each workload for the
benchmark's own test; its golden values are held here too.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from quiverdt import census, dtseries, exactalg
from quiverdt.modp import first_primes
from quiverdt.quiver import (
    TRIVIAL_CONSTRAINT,
    Arrow,
    Quiver,
    SerreConstraint,
    StabilityCondition,
    a2_quiver,
    euler_form,
    jordan_quiver,
    loops_nilpotent_constraint,
    multi_loop_quiver,
    nilpotent_module_constraint,
)

CAP = "CapExceeded"

# Plane partitions of n = 0..12 (OEIS A000219).
PLANE_PARTITIONS = (1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479)

# Jordan quiver, preprojective relations, d=2: point counts (plain, with the
# invertibility clauses on x and x*), keyed by p.
PREPROJ_POINTS = {3: (945, 384), 7: (134113, 96768)}
# Jordan quiver with a nilpotent loop: stack count at (d, p).
NILP_LOOP_STACK = {(2, 5): Fraction(5, 96), (3, 5): Fraction(125, 11904)}
# 2-loop quiver, nilpotent module, d=2: point count at p.
NILP_MODULE_POINTS = {3: 33, 5: 145}
# A2, preprojective, p=5, stability (-1, 0): twisted total stack count of each
# dimension vector; the wall-crossing product must reproduce every one.
WALLCROSS_LHS = {
    (0, 1): "5/4", (0, 2): "125/96", (0, 3): "15625/11904", (0, 4): "9765625/7428096",
    (1, 0): "5/4", (1, 1): "45/16", (1, 2): "1225/384", (1, 3): "51875/15872",
    (2, 0): "125/96", (2, 1): "1225/384", (2, 2): "45625/9216",
    (3, 0): "15625/11904", (3, 1): "51875/15872", (4, 0): "9765625/7428096",
}
# A2, p=5, stability (-1, 0): semistable stack counts, the same from the HN
# recursion and from the direct census.
HN_SEMISTABLE = {
    (0, 1): "1/4", (0, 2): "1/480", (1, 0): "1/4", (1, 1): "1/4",
    (1, 2): "0", (2, 0): "1/480", (2, 1): "0", (2, 2): "1/480",
}


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``value`` maps the raw output to the canonical value compared with
    ``expect``; ``full`` maps it to the canonical value hashed into the
    determinism digest (the whole exact output, where it is larger than what
    is compared).  ``points`` is the census points the op covers: the sum of
    p**cells over its census calls, a number fixed by the inputs.
    """

    name: str
    call: Callable[[], object]
    value: Callable[[object], object]
    expect: object
    full: Callable[[object], object] | None = None
    points: int = 0


def outcome(op: Op, out: object) -> tuple[object, object]:
    """(compared value, digest value) of a raw output."""
    value = op.value(out)
    return value, (op.full(out) if op.full is not None else value)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def relabel(q: Quiver, rng: random.Random) -> Quiver:
    """The same quiver with fresh vertex and arrow names; order is kept."""
    tags = rng.sample(range(10**6), len(q.vertices) + len(q.arrows))
    vname = {v: f"v{t}" for v, t in zip(q.vertices, tags)}
    arrows = tuple(
        Arrow(f"a{t}", vname[a.src], vname[a.tgt])
        for a, t in zip(q.arrows, tags[len(q.vertices):])
    )
    return Quiver(tuple(vname[v] for v in q.vertices), arrows)


def cells(q: Quiver, d: tuple[int, ...], relations: str = "none") -> int:
    dim = dict(zip(q.vertices, d))
    n = sum(dim[a.src] * dim[a.tgt] for a in q.arrows)
    return 2 * n if relations == "preprojective" else n


def kac_points(q: Quiver, d: tuple[int, ...], budget: int | None = None) -> int:
    """Points a Kac interpolation covers: p**cells at each prime node, up to
    the first node over ``budget`` (where it refuses)."""
    bound = max(1 - euler_form(q, q.dim(d), q.dim(d)), 0)
    total = 0
    for p in first_primes(bound + 2):
        if budget is not None and p ** cells(q, d) > budget:
            break
        total += p ** cells(q, d)
    return total


def _q_dict(poly) -> dict[str, str]:
    return {str(e): str(c) for e, c in sorted(poly.q_dict().items())}


def _table(table: dtseries.KacTable) -> dict[str, dict[str, str]]:
    return {",".join(map(str, k)): _q_dict(table.entries[k]) for k in table.dims()}


def _series(g: exactalg.TruncSeries) -> list:
    return g.to_json_list()


def _box(n: int, order: int) -> list[tuple[int, ...]]:
    """Nonzero n-tuples of nonnegative integers with total at most order."""
    return [k for k in itertools.product(range(order + 1), repeat=n) if 0 < sum(k) <= order]


def _kac_op(q: Quiver, dims: list[tuple[int, ...]], golden: dict, workers: int, tag: str) -> Op:
    return Op(
        name=f"kac {tag} {' '.join(','.join(map(str, d)) for d in dims)}",
        call=lambda: dtseries.build_kac_table(q, dims, workers=workers),
        value=_table,
        expect={",".join(map(str, d)): golden[d] for d in dims},
        points=sum(kac_points(q, d) for d in dims),
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def kac_census(seed: int, workers: int, smoke: bool) -> list[Op]:
    """Criterion 1's hot path: Kac polynomials by census and interpolation."""
    rng = random.Random(seed)
    jq, aq, lq = relabel(jordan_quiver(), rng), relabel(a2_quiver(), rng), relabel(multi_loop_quiver(2), rng)
    q1, one = {"1": "1"}, {"0": "1"}
    jordan_dims = [(1,), (2,)] if smoke else [(1,), (2,), (3,)]
    a2_dims = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]
    a2_golden = {(1, 0): one, (0, 1): one, (1, 1): one, (2, 1): {}, (1, 2): {}, (2, 2): {}}
    return [
        _kac_op(jq, jordan_dims, {d: q1 for d in jordan_dims}, workers, "jordan"),
        _kac_op(aq, a2_dims, a2_golden, workers, "a2"),
        _kac_op(lq, [(1,)], {(1,): {"2": "1"}}, workers, "2loop"),
    ]


def _closed_table(q: Quiver, order: int, entry) -> dtseries.KacTable:
    keys = _box(len(q.vertices), order)
    return dtseries.KacTable(
        quiver=q,
        constraint=TRIVIAL_CONSTRAINT,
        entries={k: entry(k) for k in keys},
        provenance={k: "user-supplied" for k in keys},
    )


def _stack_roundtrip_op(q: Quiver, order: int, entry, tag: str) -> Op:
    table = _closed_table(q, order, entry)

    def call():
        g = dtseries.stack_series_from_kac(table, order)
        return g, dtseries.kac_from_stack_series(g, q)

    return Op(
        name=f"stack-roundtrip {tag} order {order}",
        call=call,
        value=lambda out: _table(out[1]),
        expect=_table(table),
        full=lambda out: [_series(out[0]), _table(out[1])],
    )


def _pleth_roundtrip_op(f: exactalg.TruncSeries, trial: int) -> Op:
    def call():
        g = exactalg.TruncSeries.one(f.variables, f.order) + f
        return f, exactalg.pleth_log(exactalg.pleth_exp(f)), g, exactalg.pleth_exp(exactalg.pleth_log(g))

    return Op(
        name=f"pleth-roundtrip trial {trial}",
        call=call,
        value=lambda out: [out[1] == out[0], out[3] == out[2]],
        expect=[True, True],
        full=lambda out: [_series(out[1]), _series(out[3])],
    )


def series_roundtrip(seed: int, workers: int, smoke: bool) -> list[Op]:
    """Criteria 2, 4, 5 and 7 without a census: exact series algebra over
    general-denominator (stack series) and Laurent-only (round trip)
    coefficients."""
    rng = random.Random(seed)
    RF, LP = exactalg.RationalFunction, exactalg.LaurentPoly
    jordan_order, a2_order, hilb_order, char_order, trials = (4, 3, 5, 6, 2) if smoke else (8, 5, 12, 10, 12)
    a2_roots = {(1, 0), (0, 1), (1, 1)}
    ops = [
        _stack_roundtrip_op(jordan_quiver(), jordan_order, lambda k: LP.q_power(1), "jordan"),
        _stack_roundtrip_op(
            a2_quiver(), a2_order, lambda k: LP.one() if k in a2_roots else LP.zero(), "a2"
        ),
        Op(
            name=f"hilb3 order {hilb_order} at q=1",
            call=lambda: dtseries.hilb3_series(hilb_order),
            value=lambda g: [str(g.coeff((n,)).as_laurent().eval_q(1)) for n in range(hilb_order + 1)],
            expect=[str(n) for n in PLANE_PARTITIONS[: hilb_order + 1]],
            full=_series,
        ),
        Op(
            name=f"char-stack order {char_order} exp = product",
            call=lambda: (
                dtseries.char_stack_series(char_order, "exp"),
                dtseries.char_stack_series(char_order, "product"),
            ),
            value=lambda out: out[0] == out[1],
            expect=True,
            full=lambda out: _series(out[0]),
        ),
    ]
    # Laurent-only coefficients, as in criterion 7.
    palette = [RF.zero(), RF.from_int(1), RF.from_int(-1)] + [
        RF.from_laurent(LP.q_power(e)).scale(s) for e in (1, 2) for s in (1, -1)
    ]
    variables, order = ("t_1", "t_2"), 5
    keys = _box(len(variables), order)
    for trial in range(trials):
        f = exactalg.TruncSeries(variables, order, {k: rng.choice(palette) for k in keys})
        ops.append(_pleth_roundtrip_op(f, trial))
    return ops


def count_filter(seed: int, workers: int, smoke: bool) -> list[Op]:
    """Filter-only census work (criteria 3, 4, 8 and 9): digit expansion,
    filter masks and subspace tests, plus a Kac interpolation that must be
    refused by its point budget."""
    rng = random.Random(seed)
    jq, aq, lq = relabel(jordan_quiver(), rng), relabel(a2_quiver(), rng), relabel(multi_loop_quiver(2), rng)
    x = jq.arrows[0].label
    inv = SerreConstraint((((x,), "invertible"), ((x + "*",), "invertible")))
    v1, v2 = aq.vertices
    z = StabilityCondition.from_map(aq, {v1: -1, v2: 0})
    pp, nil_d, nil_p, mod_p = (3, 2, 5, 3) if smoke else (7, 3, 5, 5)
    wc_order, hn_top = (2, 1) if smoke else (4, 2)
    # Refused at p=5 (smoke) or p=7 after the smaller nodes are censused.
    cap_budget = 7_000 if smoke else 400_000

    hn_box = [(i, j) for i in range(hn_top + 1) for j in range(hn_top + 1) if i + j]

    def hn_recursion():
        p = 5
        total = {k: census.stack_count(aq, aq.dim(k), p, workers=workers) for k in hn_box}
        out = {}
        for k in hn_box:
            rec = dtseries.hn_semistable_series(total, aq, z, aq.dim(k), p)
            direct = Fraction(census.semistable_point_count(aq, aq.dim(k), p, z), census.gl_order(aq.dim(k), p))
            out[",".join(map(str, k))] = [str(rec), str(direct)]
        return out

    wc_keys = _box(2, wc_order)
    wc_rows = [
        {"dim": ",".join(map(str, k)), "lhs": WALLCROSS_LHS[k], "rhs": WALLCROSS_LHS[k], "ok": True}
        for k in sorted(wc_keys)
    ]
    return [
        Op(
            name=f"preprojective point_count jordan d=2 p={pp}",
            call=lambda: census.point_count(jq, jq.dim((2,)), pp, "preprojective", workers=workers),
            value=str,
            expect=str(PREPROJ_POINTS[pp][0]),
            points=pp ** cells(jq, (2,), "preprojective"),
        ),
        Op(
            name=f"preprojective point_count jordan d=2 p={pp} invertible x, x*",
            call=lambda: census.point_count(jq, jq.dim((2,)), pp, "preprojective", inv, workers=workers),
            value=str,
            expect=str(PREPROJ_POINTS[pp][1]),
            points=pp ** cells(jq, (2,), "preprojective"),
        ),
        Op(
            name=f"nilpotent-loop stack_count jordan d={nil_d} p={nil_p}",
            call=lambda: census.stack_count(
                jq, jq.dim((nil_d,)), nil_p, "none", loops_nilpotent_constraint(jq), workers=workers
            ),
            value=str,
            expect=str(NILP_LOOP_STACK[(nil_d, nil_p)]),
            points=nil_p ** cells(jq, (nil_d,)),
        ),
        Op(
            name=f"nilpotent-module point_count 2loop d=2 p={mod_p}",
            call=lambda: census.point_count(
                lq, lq.dim((2,)), mod_p, "none", nilpotent_module_constraint(), workers=workers
            ),
            value=str,
            expect=str(NILP_MODULE_POINTS[mod_p]),
            points=mod_p ** cells(lq, (2,)),
        ),
        Op(
            name=f"wallcross_check a2 p=5 order {wc_order}",
            call=lambda: dtseries.wallcross_check(aq, z, 5, wc_order, workers=workers),
            value=lambda rep: [rep.passed, [r.to_json_dict() for r in rep.rows]],
            expect=[True, wc_rows],
            points=2 * sum(5 ** cells(aq, k, "preprojective") for k in wc_keys),
        ),
        Op(
            name=f"hn recursion = semistable census a2 p=5 up to ({hn_top},{hn_top})",
            call=hn_recursion,
            value=lambda out: out,
            expect={",".join(map(str, k)): [HN_SEMISTABLE[k]] * 2 for k in hn_box},
            points=2 * sum(5 ** cells(aq, k) for k in hn_box),
        ),
        Op(
            name=f"kac 2loop d=2 under point_budget={cap_budget}",
            call=lambda: census.kac_polynomial(lq, lq.dim((2,)), point_budget=cap_budget, workers=workers),
            value=_q_dict,
            expect=f"{CAP}: point enumeration",
            points=kac_points(lq, (2,), cap_budget),
        ),
    ]


WORKLOADS = {
    "kac-census": kac_census,
    "series-roundtrip": series_roundtrip,
    "count-filter": count_filter,
}


def build(workload: str, seed: int, workers: int, smoke: bool = False) -> list[Op]:
    return WORKLOADS[workload](seed, workers, smoke)
