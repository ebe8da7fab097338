"""Generating-series layer: Kac tables, stack series, HN recursion,
wall-crossing, quiver-variety weights, closed-form families, positivity."""

from fractions import Fraction

import pytest

from quiverdt.census import (
    gl_order,
    semistable_point_count,
    stack_count,
)
from quiverdt.dtseries import (
    DTSeriesError,
    KacTable,
    SliceSpec,
    build_kac_table,
    char_stack_series,
    duality_transform,
    hilb3_series,
    hilb3_weight_polys,
    hn_semistable_series,
    kac_from_stack_series,
    nakajima_series,
    positivity_report,
    series_variables,
    stack_series_from_kac,
    wallcross_check,
)
from quiverdt.exactalg import (
    LaurentPoly,
    RationalFunction,
    TruncSeries,
)
from quiverdt.quiver import (
    DimVector,
    StabilityCondition,
    TRIVIAL_CONSTRAINT,
    a2_quiver,
    euler_form,
    jordan_quiver,
    point_quiver,
    slope,
)

JQ = jordan_quiver()
A2 = a2_quiver()

Q1 = LaurentPoly.q_power(1)
ONE = LaurentPoly.one()


@pytest.fixture(scope="module")
def jordan_table():
    return build_kac_table(JQ, [(1,), (2,)])


@pytest.fixture(scope="module")
def a2_table():
    return build_kac_table(A2, [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)])


# -- KacTable ------------------------------------------------------------------

def test_kac_table_basics(jordan_table):
    assert jordan_table.entry((1,)) == Q1
    assert jordan_table.entry((2,)) == Q1
    assert jordan_table.provenance[(2,)] == "oracle"
    assert jordan_table.has((2,)) and not jordan_table.has((3,))
    with pytest.raises(DTSeriesError):
        jordan_table.entry((3,))


def test_kac_table_rejects_bad_entries():
    with pytest.raises(DTSeriesError):  # key length
        KacTable(JQ, TRIVIAL_CONSTRAINT, {(1, 2): ONE}, {(1, 2): "oracle"})
    with pytest.raises(DTSeriesError):  # zero vector
        KacTable(JQ, TRIVIAL_CONSTRAINT, {(0,): ONE}, {(0,): "oracle"})
    with pytest.raises(DTSeriesError):  # odd power of u
        KacTable(JQ, TRIVIAL_CONSTRAINT, {(1,): LaurentPoly.u_power(1)}, {(1,): "oracle"})
    with pytest.raises(DTSeriesError):  # non-integer coefficient
        KacTable(
            JQ,
            TRIVIAL_CONSTRAINT,
            {(1,): ONE.scale(Fraction(1, 2))},
            {(1,): "oracle"},
        )
    with pytest.raises(DTSeriesError):  # negative power without the laurent flag
        KacTable(JQ, TRIVIAL_CONSTRAINT, {(1,): LaurentPoly.q_power(-1)}, {(1,): "oracle"})
    with pytest.raises(DTSeriesError):  # unknown provenance
        KacTable(JQ, TRIVIAL_CONSTRAINT, {(1,): ONE}, {(1,): "guessed"})


def test_kac_table_json_roundtrip(a2_table):
    data = a2_table.to_json_dict()
    assert data["entries"]["1,1"] == {"0": "1"}
    back = KacTable.from_json_dict(data, A2)
    assert back.entries == a2_table.entries
    assert back.provenance == a2_table.provenance
    assert back.laurent == a2_table.laurent


def test_build_kac_table_on_cap(jordan_table):
    with pytest.raises(Exception):
        build_kac_table(JQ, [(2,)], point_budget=10, on_cap="raise")
    skipped = build_kac_table(JQ, [(1,), (2,)], point_budget=30, on_cap="skip")
    assert (1,) in skipped.entries  # p in {2,3,5} at d=1 needs at most 25 points
    assert (2,) not in skipped.entries
    with pytest.raises(DTSeriesError):
        build_kac_table(JQ, [(1,)], on_cap="maybe")


# -- stack series and extraction --------------------------------------------------

def test_series_variables_order():
    assert series_variables(A2) == ("t_1", "t_2")


def test_stack_series_census_identity(jordan_table, a2_table):
    # the t^d coefficient at q=p equals the preprojective census stack count
    # times p^{(d,d)} for every in-cap instance at p in {2,3}
    for table, q in ((jordan_table, JQ), (a2_table, A2)):
        g = stack_series_from_kac(table, 2)
        for key in table.dims():
            if sum(key) > 2:
                continue
            dv = q.dim(key)
            tw = euler_form(q, dv, dv)
            for p in (2, 3):
                census = stack_count(q, dv, p, "preprojective")
                assert g.coeff(key).eval_q(p) == census * Fraction(p) ** tw


def test_stack_series_requires_complete_table(jordan_table):
    with pytest.raises(DTSeriesError):
        stack_series_from_kac(jordan_table, 3)  # (3,) missing
    g = stack_series_from_kac(jordan_table, 3, require_complete=False)
    assert g.coeff((2,)) == stack_series_from_kac(jordan_table, 2).coeff((2,))


def test_stack_series_factor_variant_breaks_census_identity(jordan_table):
    g = stack_series_from_kac(jordan_table, 2, kac_factor="1/(q-1)")
    census = stack_count(JQ, JQ.dim((2,)), 2, "preprojective")
    assert g.coeff((2,)).eval_q(2) != census
    with pytest.raises(DTSeriesError):
        stack_series_from_kac(jordan_table, 2, kac_factor="q^2/(q-1)")


def test_kac_roundtrip_through_series(jordan_table, a2_table):
    for table in (jordan_table, a2_table):
        g = stack_series_from_kac(table, 2)
        back = kac_from_stack_series(g, table.quiver)
        for key in back.dims():
            if table.has(key):
                assert back.entry(key) == table.entry(key)
            assert back.provenance[key] == "series-extracted"


def test_kac_extraction_euler_twist_route(a2_table):
    # untwist the normalized series into raw stack-count form, then extract
    # with the twist reapplied
    g = stack_series_from_kac(a2_table, 2)
    variables = series_variables(A2)
    terms = {}
    for key, coeff in g.items():
        dv = DimVector(A2.vertices, key)
        e = 0 if dv.is_zero() else euler_form(A2, dv, dv)
        terms[key] = coeff * RationalFunction.from_laurent(LaurentPoly.q_power(-e))
    raw = TruncSeries(variables, g.order, terms)
    back = kac_from_stack_series(raw, A2, euler_twist=True)
    for key in back.dims():
        if a2_table.has(key):
            assert back.entry(key) == a2_table.entry(key)


def test_kac_extraction_rejects_wrong_variables():
    g = TruncSeries.one(("t",), 2)
    with pytest.raises(DTSeriesError):
        kac_from_stack_series(g, A2)


def test_kac_extraction_rejects_non_normalized_series():
    # 1 + t would need a_1 = (q-1)/q, which is not a polynomial in q: the
    # extraction must refuse loudly instead of returning junk
    g = TruncSeries.one(("t_0",), 2) + TruncSeries.monomial(("t_0",), 2, (1,), 1)
    with pytest.raises(DTSeriesError):
        kac_from_stack_series(g, JQ)
    # and a non-integer multiple of the correct shape is refused too
    h = TruncSeries.one(("t_0",), 1) + TruncSeries.monomial(
        ("t_0",), 1, (1,), RationalFunction.from_laurent(Q1.scale(Fraction(1, 3)))
    )
    with pytest.raises(DTSeriesError):
        kac_from_stack_series(h, JQ)


# -- HN recursion -------------------------------------------------------------------

def _a2_totals(p, order=2):
    box = [
        (i, j)
        for i in range(order + 1)
        for j in range(order + 1)
        if 0 < i + j <= order
    ]
    return {k: stack_count(A2, A2.dim(k), p) for k in box}


def test_hn_recursion_matches_direct_census():
    z = StabilityCondition.from_map(A2, {"1": -1, "2": 0})
    for p in (2, 3):
        totals = _a2_totals(p)
        for k in ((1, 0), (0, 1), (1, 1), (2, 1)):
            if sum(k) > 2:
                continue
            dv = A2.dim(k)
            rec = hn_semistable_series(totals, A2, z, dv, p)
            direct = Fraction(semistable_point_count(A2, dv, p, z), gl_order(dv, p))
            assert rec == direct


def test_hn_recursion_reversed_stability():
    zr = StabilityCondition.from_map(A2, {"1": 0, "2": -1})
    totals = _a2_totals(2)
    assert hn_semistable_series(totals, A2, zr, A2.dim((1, 1)), 2) == 0


def test_hn_recursion_missing_total_raises():
    z = StabilityCondition.from_map(A2, {"1": -1, "2": 0})
    with pytest.raises(DTSeriesError):
        hn_semistable_series({(1, 1): Fraction(2)}, A2, z, A2.dim((1, 1)), 2)


def test_hn_degenerate_stability_is_identity():
    z0 = StabilityCondition.from_map(A2, {"1": 0, "2": 0})
    totals = _a2_totals(3)
    for k, v in totals.items():
        assert hn_semistable_series(totals, A2, z0, A2.dim(k), 3) == v


# -- wall-crossing ---------------------------------------------------------------------

def test_wallcross_a2_passes_and_perturbation_fails():
    z = StabilityCondition.from_map(A2, {"1": -1, "2": 0})
    rep = wallcross_check(A2, z, 2, 2)
    assert rep.passed
    assert wallcross_check(A2, z, 2, 2, workers=2) == rep
    rows = {r.dim: r for r in rep.rows}
    assert rows[(1, 1)].lhs == Fraction(6)
    bad = wallcross_check(A2, z, 2, 2, perturb_twist=1)
    assert not bad.passed
    assert {r.dim: r for r in bad.rows}[(1, 1)].rhs != Fraction(6)


def test_wallcross_slope_grading_bookkeeping():
    # the mixed-dimension RHS coefficient must assemble exactly from the
    # HN-compatible decomposition (descending slopes), measured independently
    z = StabilityCondition.from_map(A2, {"1": -1, "2": 0})
    p = 2
    rep = wallcross_check(A2, z, p, 2)
    rows = {r.dim: r for r in rep.rows}

    def sst_tw(k):
        dv = A2.dim(k)
        sst = Fraction(
            semistable_point_count(A2, dv, p, z, "preprojective"), gl_order(dv, p)
        )
        return sst * Fraction(p) ** euler_form(A2, dv, dv)

    # slope((1,0)) = 1 > slope((0,1)) = 0: the only mixed product for (1,1)
    expected = sst_tw((1, 1)) + sst_tw((1, 0)) * sst_tw((0, 1))
    assert rows[(1, 1)].rhs == expected
    assert rep.slopes == tuple(sorted(rep.slopes, reverse=True))


def test_wallcross_report_json():
    z = StabilityCondition.from_map(A2, {"1": -1, "2": 0})
    rep = wallcross_check(A2, z, 2, 1)
    data = rep.to_json_dict()
    assert data["passed"] is True
    assert all(set(r) == {"dim", "lhs", "rhs", "ok"} for r in data["rows"])


def test_slice_spec_contains():
    z = StabilityCondition.from_map(A2, {"1": -1, "2": 0})
    spec = SliceSpec(z, Fraction(1, 2))
    assert spec.contains(A2.dim((1, 1))) and spec.contains(A2.dim((2, 2)))
    assert not spec.contains(A2.dim((1, 0)))
    assert not spec.contains(A2.dim((0, 0)))


# -- quiver-variety weights ----------------------------------------------------------------

def test_nakajima_jordan_framing_one():
    nak = nakajima_series(JQ, (1,), 2)
    assert nak[(0,)] == ONE
    assert nak[(1,)] == LaurentPoly.q_power(2)
    assert nak[(2,)] == LaurentPoly.from_q_dict({4: Fraction(1), 3: Fraction(1)})


def test_nakajima_point_framing_two():
    nak = nakajima_series(point_quiver(), (2,), 1)
    assert nak[(1,)] == LaurentPoly.from_q_dict({2: Fraction(1), 1: Fraction(1)})


def test_nakajima_accepts_mapping_framing():
    nak = nakajima_series(JQ, {"0": 1}, 1)
    assert nak[(1,)] == LaurentPoly.q_power(2)


def test_nakajima_outputs_pass_positivity():
    nak = nakajima_series(JQ, (1,), 2)
    assert positivity_report({"nakajima": nak}).passed


# -- closed-form families ---------------------------------------------------------------------

def test_char_stack_forms_agree_to_order_six():
    ge = char_stack_series(6, "exp")
    gp = char_stack_series(6, "product")
    assert (ge - gp).is_zero()
    with pytest.raises(DTSeriesError):
        char_stack_series(3, "sum")


def test_char_stack_low_coefficients():
    g = char_stack_series(3)
    assert g.coeff((1,)).as_laurent() == Q1 - ONE
    assert g.coeff((2,)).as_laurent() == LaurentPoly.q_power(2) - ONE


def test_hilb3_low_coefficients_and_macmahon():
    g = hilb3_series(5)
    assert g.coeff((1,)).as_laurent() == LaurentPoly.q_power(3)
    assert g.coeff((2,)).as_laurent() == LaurentPoly.from_q_dict(
        {2: Fraction(1), 4: Fraction(1), 6: Fraction(1)}
    )
    plane_partitions = [1, 1, 3, 6, 13, 24]
    for n in range(6):
        assert g.coeff((n,)).as_laurent().eval_q(1) == plane_partitions[n]


def test_hilb3_weight_polys_positive():
    w = hilb3_weight_polys(5)
    assert w[1] == LaurentPoly.q_power(3)
    rep = positivity_report({"hilb3": w})
    assert rep.passed


# -- duality and positivity ---------------------------------------------------------------------

def test_duality_transform(jordan_table):
    dual = duality_transform(jordan_table)
    assert dual.laurent
    assert dual.entry((1,)) == LaurentPoly.q_power(-1)
    assert dual.provenance == jordan_table.provenance
    # involution
    again = duality_transform(dual)
    assert again.entries == jordan_table.entries


def test_positivity_report_flags_offender():
    bad = LaurentPoly.from_q_dict({0: Fraction(1), 2: Fraction(-5)})
    rep = positivity_report({"tbl": {(1, 0): bad, (0, 1): ONE}})
    assert not rep.passed
    failure = rep.failures()[0]
    assert failure.key == "1,0"
    assert failure.offending == "-5*q^2"
    data = rep.to_json_dict()
    assert data["passed"] is False


def test_positivity_report_accepts_kac_tables(jordan_table):
    assert positivity_report({"jordan": jordan_table}).passed
