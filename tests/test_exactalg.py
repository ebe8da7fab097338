"""Exact coefficient arithmetic: Laurent polynomials in the half twist u,
canonical rational functions, truncated series, plethystic Exp/Log."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverdt import exactalg
from quiverdt.dtseries import (
    KacTable,
    char_stack_series,
    hilb3_series,
    kac_from_stack_series,
    stack_series_from_kac,
)
from quiverdt.exactalg import (
    ExactAlgError,
    LaurentPoly,
    RationalFunction,
    TruncSeries,
    adams,
    eval_at_q,
    mobius,
    pleth_exp,
    pleth_log,
    series_invert,
)
from quiverdt.quiver import TRIVIAL_CONSTRAINT, jordan_quiver

Q = LaurentPoly.q_power
U = LaurentPoly.u_power
ONE = LaurentPoly.one()


# -- LaurentPoly ----------------------------------------------------------------

def test_q_power_is_even_u_power():
    assert Q(3) == U(6)
    assert Q(-1) == U(-2)
    assert Q(0) == ONE


def test_from_q_dict_roundtrip():
    p = LaurentPoly.from_q_dict({2: Fraction(3), 0: Fraction(-1)})
    assert p.q_dict() == {2: Fraction(3), 0: Fraction(-1)}
    assert p.is_even()


def test_add_mul_neg():
    p = Q(1) + ONE
    assert (p * p).q_dict() == {2: Fraction(1), 1: Fraction(2), 0: Fraction(1)}
    assert (p - p).is_zero()
    assert ((-p) + p).is_zero()


def test_min_max_exp():
    p = U(-3) + U(5)
    assert p.min_exp() == -3 and p.max_exp() == 5
    assert not p.is_even()


def test_substitute_u_power_inverts_exponents():
    p = Q(2) + Q(1).scale(Fraction(3))
    assert p.substitute_u_power(-1).q_dict() == {-2: Fraction(1), -1: Fraction(3)}
    assert p.substitute_u_power(-1).substitute_u_power(-1) == p


def test_eval_q_rejects_odd_support():
    with pytest.raises(ExactAlgError):
        U(1).eval_q(2)
    assert U(2).eval_q(5) == 5
    assert (Q(-1)).eval_q(2) == Fraction(1, 2)


def test_eval_u_at_zero_with_negative_exponent_rejected():
    with pytest.raises(ExactAlgError):
        U(-1).eval_u(0)


def test_pow():
    assert (Q(1) + ONE) ** 0 == ONE
    assert ((Q(1) + ONE) ** 3).eval_q(1) == 8


_small_fracs = st.integers(min_value=-4, max_value=4).map(Fraction)
_polys = st.dictionaries(
    st.integers(min_value=-4, max_value=4), _small_fracs, max_size=4
).map(lambda d: LaurentPoly(d))


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, _polys)
def test_laurent_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero() == a
    assert a * ONE == a


# -- RationalFunction -------------------------------------------------------------

def test_rf_canonical_equality():
    q = Q(1)
    a = RationalFunction(q * q - q, q - ONE)  # q(q-1)/(q-1) == q
    assert a == RationalFunction.from_laurent(q)
    assert a.is_laurent()
    assert a.as_laurent() == q


def test_rf_division_and_zero():
    a = RationalFunction.from_laurent(Q(1) - ONE)
    b = RationalFunction.from_laurent(Q(1))
    assert (a / b) * b == a
    with pytest.raises(ExactAlgError):
        _ = a / RationalFunction.zero()


def test_rf_non_polynomial_rejected_by_as_laurent():
    r = RationalFunction(ONE, Q(1) - ONE)  # 1/(q-1)
    assert not r.is_laurent()
    with pytest.raises(ExactAlgError):
        r.as_laurent()


def test_rf_negative_power():
    r = RationalFunction.from_laurent(Q(1) - ONE) ** -2
    assert r.eval_q(3) == Fraction(1, 4)


def test_rf_eval_matches_fraction_arithmetic():
    r = RationalFunction(Q(2) + ONE, Q(1) - ONE)
    assert r.eval_q(4) == Fraction(16 + 1, 4 - 1)


def test_rf_substitute_u_power():
    r = RationalFunction(Q(1), Q(1) - ONE)  # q/(q-1)
    s = r.substitute_u_power(-1)  # (1/q)/((1/q)-1) = 1/(1-q)
    assert s.eval_q(3) == Fraction(1, 1 - 3)


@settings(max_examples=40, deadline=None)
@given(_polys, _polys)
def test_rf_field_laws(a, b):
    ra, rb = RationalFunction.from_laurent(a), RationalFunction.from_laurent(b)
    assert ra + rb == rb + ra
    assert ra * rb == rb * ra
    if not rb.is_zero():
        assert (ra / rb) * rb == ra


# -- cyclotomic denominators against the Euclidean route ---------------------------

def _euclid(num, den):
    """``num / den`` canonicalised by the Euclidean gcd alone: cyclotomic
    recognition switched off."""
    with mock.patch.object(exactalg, "_cyclotomic_factors", lambda d: None):
        return RationalFunction(num, den)


def _phi_oracle(m):
    """Phi_m(u) = prod_{d | m} (u^d - 1)^mu(m/d), divided out by Euclid."""
    up, down = ONE, ONE
    for d in range(1, m + 1):
        if m % d == 0 and mobius(m // d) == 1:
            up = up * (U(d) - ONE)
        elif m % d == 0 and mobius(m // d) == -1:
            down = down * (U(d) - ONE)
    return _euclid(up, down).as_laurent()


def _cyc_poly(cyc):
    p = ONE
    for m, e in cyc.items():
        p = p * _phi_oracle(m) ** e
    return p


def _cyclotomic(num, cyc):
    r = RationalFunction(num, _cyc_poly(cyc))
    assert r._cyc is not None
    assert r == _euclid(num, _cyc_poly(cyc))
    return r


_multisets = st.dictionaries(st.integers(1, 10), st.integers(1, 2), max_size=2)


@settings(max_examples=50, deadline=None)
@given(_polys, _polys, _multisets, _multisets, _multisets)
def test_cyclotomic_ops_match_euclid(na, nb, ca, cb, shared):
    # shared factors in a's numerator and b's denominator force cancellation
    a = _cyclotomic(na * _cyc_poly(shared), ca)
    b = _cyclotomic(nb, {m: cb.get(m, 0) + shared.get(m, 0) for m in {**cb, **shared}})
    # same multiset as a, numerator chosen so that a + c cancels a factor
    c = _cyclotomic(nb * _cyc_poly(dict(list(ca.items())[:1])) - a.num, ca)
    monomial = _cyclotomic(U(3).scale(-2), cb)
    for x, y in ((a, b), (a, c), (b, c), (c, monomial)):
        s, p, d = x + y, x * y, x / y if not y.is_zero() else None
        assert s == _euclid(x.num * y.den + y.num * x.den, x.den * y.den)
        assert p == _euclid(x.num * y.num, x.den * y.den)
        assert s._cyc is not None and p._cyc is not None
        if d is not None:
            assert d == _euclid(x.num * y.den, x.den * y.num)
    for v in (Fraction(-3, 2), 0):
        assert a.scale(v) == _euclid(a.num.scale(v), a.den)
    for n in (-2, -1, 2, 3):
        r = a.substitute_u_power(n)
        assert r._cyc is not None
        assert r == _euclid(a.num.substitute_u_power(n), a.den.substitute_u_power(n))


def test_non_cyclotomic_denominator_falls_back_to_euclid():
    h = Q(2) + Q(1) + ONE.scale(3)  # q^2 + q + 3
    pal = U(40) + U(20).scale(3) + ONE  # palindromic, integer, roots off the unit circle
    s = RationalFunction(ONE, Q(1) - ONE)
    for den in (h, pal, h * (Q(1) - ONE)):
        r = RationalFunction(Q(1) + ONE, den)
        assert r._cyc is None
        for u0 in (Fraction(2), Fraction(3, 2)):
            assert (r + s).eval_u(u0) == r.eval_u(u0) + s.eval_u(u0)
            assert (r * s).eval_u(u0) == r.eval_u(u0) * s.eval_u(u0)
            assert (s / r).eval_u(u0) == s.eval_u(u0) / r.eval_u(u0)
            assert r.substitute_u_power(-1).eval_u(u0) == r.eval_u(1 / u0)
            assert r.scale(3).eval_u(u0) == 3 * r.eval_u(u0)
        back = r * RationalFunction.from_laurent(den)
        assert back == RationalFunction.from_laurent(Q(1) + ONE)
        assert back._cyc == {}  # recognised again once the factor cancels


def test_recognition_tries_few_candidates(monkeypatch):
    pal = U(40) + U(20).scale(3) + ONE
    RationalFunction(ONE, pal)  # fills the Phi_m table
    calls = []
    div = exactalg._exact_div
    monkeypatch.setattr(exactalg, "_exact_div", lambda a, b: calls.append(1) or div(a, b))
    assert RationalFunction(ONE, pal)._cyc is None
    # one trial division per m with phi(m) <= 40 (there are 81), none beyond
    assert len(calls) < 100


def test_series_hot_path_runs_no_euclid(monkeypatch):
    def no_gcd(a, b):
        raise AssertionError("Euclidean gcd on the series hot path")

    monkeypatch.setattr(exactalg, "_dense_gcd", no_gcd)
    jq = jordan_quiver()
    keys = [(d,) for d in range(1, 7)]
    table = KacTable(jq, TRIVIAL_CONSTRAINT, {k: Q(1) for k in keys}, {k: "oracle" for k in keys})
    assert kac_from_stack_series(stack_series_from_kac(table, 6), jq).entries == table.entries
    assert char_stack_series(8, "exp") == char_stack_series(8, "product")
    g = hilb3_series(8)
    assert [g.coeff((n,)).as_laurent().eval_q(1) for n in range(9)] == [
        1, 1, 3, 6, 13, 24, 48, 86, 160
    ]
    # criterion 7: Laurent-only coefficients
    rng = random.Random(7)
    palette = [RationalFunction.from_int(v) for v in (0, 1, -1)] + [
        RationalFunction.from_laurent(Q(e).scale(s)) for e in (1, 2) for s in (1, -1)
    ]
    keys = [(i, j) for i in range(6) for j in range(6) if 0 < i + j <= 5]
    f = TruncSeries(("t_1", "t_2"), 5, {k: rng.choice(palette) for k in keys})
    assert pleth_log(pleth_exp(f)) == f
    g = TruncSeries.one(f.variables, f.order) + f
    assert pleth_exp(pleth_log(g)) == g


def test_eval_at_q_guardrails():
    assert eval_at_q(Q(2), 3) == 9
    assert eval_at_q(RationalFunction(Q(1), Q(1) - ONE), 2) == 2
    with pytest.raises(ExactAlgError):
        eval_at_q(Q(1), 1)  # below the smallest prime power
    with pytest.raises(ExactAlgError):
        eval_at_q(Q(1), "2")


# -- TruncSeries --------------------------------------------------------------------

V = ("x", "y")


def _mono(exps, coeff=1):
    return TruncSeries.monomial(V, 5, exps, coeff)


def test_series_truncates_products():
    t = _mono((1, 0))
    s = (TruncSeries.one(V, 5) + t) ** 6
    assert s.coeff((5, 0)) == RationalFunction.from_int(6)
    with pytest.raises(ExactAlgError):
        s.coeff((6, 0))


def test_series_mismatched_variables_rejected():
    with pytest.raises(ExactAlgError):
        TruncSeries.one(("x",), 3) + TruncSeries.one(("x", "y"), 3)


def test_series_invert_geometric():
    one = TruncSeries.one(V, 5)
    s = one - _mono((1, 0))
    inv = series_invert(s)
    for k in range(6):
        assert inv.coeff((k, 0)) == RationalFunction.from_int(1)
    assert (s * inv - one).is_zero()


def test_series_invert_requires_unit_constant():
    with pytest.raises(ExactAlgError, match="zero constant term"):
        series_invert(_mono((1, 0)))
    with pytest.raises(ExactAlgError, match="zero constant term"):
        TruncSeries.one(V, 5) / _mono((1, 0))


def test_series_division():
    one = TruncSeries.one(V, 5)
    a = one + _mono((1, 0))
    b = one - _mono((0, 1))
    assert ((a / b) * b - a).is_zero()


def test_slice_var_extracts_and_drops_variable():
    g = TruncSeries.monomial(("x", "y"), 4, (1, 2), Q(1)) + TruncSeries.monomial(
        ("x", "y"), 4, (0, 1), 7
    )
    s1 = g.slice_var("x", 1)
    assert s1.variables == ("y",)
    assert s1.order == 3
    assert s1.coeff((2,)) == RationalFunction.from_laurent(Q(1))
    s0 = g.slice_var("x", 0)
    assert s0.coeff((1,)) == RationalFunction.from_int(7)


def test_valuation():
    assert TruncSeries.zero(V, 5).valuation() == 6  # order + 1 for the zero series
    assert (_mono((1, 1)) + _mono((3, 0))).valuation() == 2


def test_series_json_roundtrip():
    g = _mono((1, 0), RationalFunction(Q(1), Q(1) - ONE)) + _mono((0, 2), -3)
    data = g.to_json_list()
    h = TruncSeries.from_json_list(V, 5, data)
    assert (g - h).is_zero()


# -- Adams operations and plethystic Exp/Log ------------------------------------------

def test_adams_identity_and_composition():
    f = _mono((1, 0), Q(1)) + _mono((1, 1), -2) + _mono((0, 3))
    assert (adams(1, f) - f).is_zero()
    assert (adams(2, adams(3, f)) - adams(6, f)).is_zero()


def test_adams_is_multiplicative():
    f = TruncSeries.one(V, 5) + _mono((1, 0), Q(1))
    g = TruncSeries.one(V, 5) + _mono((0, 1), -1)
    assert (adams(2, f * g) - adams(2, f) * adams(2, g)).is_zero()


def test_adams_scales_exponents_and_coefficients():
    f = _mono((1, 0), Q(1))
    a = adams(3, f)
    assert a.coeff((3, 0)) == RationalFunction.from_laurent(Q(3))


def test_mobius_values():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_exp_requires_zero_constant_term():
    with pytest.raises(ExactAlgError):
        pleth_exp(TruncSeries.one(V, 3))


def test_log_requires_unit_constant_term():
    with pytest.raises(ExactAlgError):
        pleth_log(TruncSeries.zero(V, 3))


def test_exp_of_single_variable_is_geometric():
    # Exp(t) = 1/(1-t): all coefficients 1
    t = TruncSeries.monomial(("t",), 6, (1,), 1)
    g = pleth_exp(t)
    for k in range(7):
        assert g.coeff((k,)) == RationalFunction.from_int(1)


def test_exp_qminus1_t_closed_form():
    # Exp((q-1) t) = (1-t)/(1-qt)
    t = TruncSeries.monomial(("t",), 6, (1,), Q(1) - ONE)
    g = pleth_exp(t)
    one = TruncSeries.one(("t",), 6)
    qt = TruncSeries.monomial(("t",), 6, (1,), Q(1))
    closed = (one - TruncSeries.monomial(("t",), 6, (1,), 1)) * series_invert(one - qt)
    assert (g - closed).is_zero()


def test_exp_log_inverse_on_structured_example():
    f = _mono((1, 0), Q(1)) + _mono((0, 1), -1) + _mono((2, 1), Q(2) + ONE)
    assert (pleth_log(pleth_exp(f)) - f).is_zero()
    g = TruncSeries.one(V, 5) + _mono((1, 1), Q(1))
    assert (pleth_exp(pleth_log(g)) - g).is_zero()


def test_exp_is_multiplicative_on_sums():
    f = _mono((1, 0), Q(1))
    g = _mono((0, 1), -2)
    lhs = pleth_exp(f + g)
    rhs = pleth_exp(f) * pleth_exp(g)
    assert (lhs - rhs).is_zero()


# -- the degree-by-degree solver against the textbook power sums ----------------------

_COEFFS = [
    RationalFunction.from_int(1),
    RationalFunction.from_int(-2),
    RationalFunction.from_fraction(Fraction(1, 3)),
    RationalFunction.from_laurent(Q(1)),
    RationalFunction.from_laurent(U(1) - Q(2)),
    RationalFunction(Q(1), Q(1) - ONE),
]
# Constant terms that are units but not 1, one of them not even Laurent.
_UNITS = [
    RationalFunction.from_laurent(Q(1)),
    RationalFunction.from_laurent(Q(1) + ONE),
    RationalFunction.from_int(-2),
    RationalFunction(ONE, Q(1) - ONE),
]


@st.composite
def _series(draw, variables, order):
    """A series with zero constant term and coefficients from _COEFFS."""
    keys = itertools.product(range(order + 1), repeat=len(variables))
    terms = {k: draw(st.sampled_from(_COEFFS)) for k in keys if 0 < sum(k) <= order}
    return TruncSeries(variables, order, {k: v for k, v in terms.items() if draw(st.booleans())})


def _textbook_exp(f):
    """sum_k F^k / k! with F = sum_n psi_n(f) / n."""
    big_f = TruncSeries.zero(f.variables, f.order)
    for n in range(1, f.order + 1):
        big_f = big_f + adams(n, f).scale(Fraction(1, n))
    out, fact = TruncSeries.zero(f.variables, f.order), 1
    for k in range(f.order + 1):
        fact *= max(k, 1)
        out = out + (big_f**k).scale(Fraction(1, fact))
    return out


def _textbook_log(g):
    """sum_n mu(n)/n psi_n(log g), log g by the Mercator series in h = g - 1."""
    h = g - TruncSeries.one(g.variables, g.order)
    lg = TruncSeries.zero(g.variables, g.order)
    for k in range(1, g.order + 1):
        lg = lg + (h**k).scale(Fraction((-1) ** (k + 1), k))
    out = TruncSeries.zero(g.variables, g.order)
    for n in range(1, g.order + 1):
        out = out + adams(n, lg).scale(Fraction(mobius(n), n))
    return out


def _geometric_inverse(b):
    """(1/c) sum_k h^k for b = c (1 - h)."""
    inv_c = RationalFunction.one() / b.constant_term()
    h = TruncSeries.one(b.variables, b.order) - b.scale(inv_c)
    out = TruncSeries.zero(b.variables, b.order)
    for k in range(b.order + 1):
        out = out + h**k
    return out.scale(inv_c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solver_matches_textbook_sums(data):
    variables = data.draw(st.sampled_from([("t",), ("x", "y")]))
    order = data.draw(st.integers(0, 4))
    f = data.draw(_series(variables, order))
    one = TruncSeries.one(variables, order)
    assert pleth_exp(f) == _textbook_exp(f)
    assert pleth_log(one + f) == _textbook_log(one + f)
    c = data.draw(st.sampled_from(_UNITS))
    b = f + one.scale(c)
    assert series_invert(b) == _geometric_inverse(b)
    a = data.draw(_series(variables, data.draw(st.integers(0, 4))))
    assert a / b == a * b.invert()
