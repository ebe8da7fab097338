"""Exact arithmetic: Laurent polynomials in a half-weight variable u with
u^2 = q, canonical rational functions, truncated multivariate power series,
and the plethystic operations Exp/Log.

All coefficients are exact ``fractions.Fraction`` values; nothing here is
floating point.  The variable convention: ``u`` is the half weight, ``q = u^2``
is the point-count variable.  Integer weight polynomials in q are Laurent
polynomials supported on even u-exponents; evaluation at a numeric q refuses
odd exponents rather than guessing a square root.

Rational functions are kept in a unique canonical form (monic denominator
with nonzero constant term, coprime to the numerator).  Every denominator the
series code produces is a product of cyclotomic polynomials Phi_m(u), since
``q^k - 1 = prod_{m | 2k} Phi_m(u)``; such a denominator is stored as the
multiset of its m, and sums, products, scalings and Adams substitutions
canonicalise by exact trial division by those Phi_m alone.  The Euclidean gcd
over Q runs only for a denominator the constructor does not recognise as
cyclotomic (division by an arbitrary polynomial), and for every operation on
such a value.

Truncated series are multivariate in formal symbols ``t_v`` (one per quiver
vertex, or a single ``t``), truncated by *total* degree.  Binary operations
between series with different truncation orders return the minimum order, so
precision is never silently overstated.

The plethystic exponential uses the Adams operations
``psi_n: u -> u^n, t^d -> t^(n d)``:

    Exp(f) = exp(sum_{n>=1} psi_n(f)/n),     f with zero constant term,
    Log(g) = sum_{n>=1} mu(n)/n psi_n(log g), g with constant term 1,

and ``Log(Exp(f)) = f`` to the truncation order.

Division, Exp and Log are one degree-by-degree recurrence (``_solve``): the
coefficients y_k are set in order of total degree |k|, each from the
already known y_{k-j}.  With the Euler operator ``E: t^k -> |k| t^k``, which
satisfies ``E psi_n = n psi_n E``:

    a / b:   b_0 y_k = a_k - sum_{0<j<=k} b_j y_{k-j},
    Exp(f):  E g = g * sum_n psi_n(E f),  so |k| g_k = sum_{0<j<=k} h_j g_{k-j},
    Log(g):  E^-1 sum_n mu(n) psi_n(E g / g),

and ``invert()`` is ``1 / f``.  Each is one pass over the total-degree box,
about the cost of one series product.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

__all__ = [
    "ExactAlgError",
    "LaurentPoly",
    "RationalFunction",
    "TruncSeries",
    "adams",
    "degree_box",
    "pleth_exp",
    "pleth_log",
    "mobius",
    "series_invert",
    "eval_at_q",
]


class ExactAlgError(ValueError):
    """Raised on invalid exact-arithmetic operations (odd-exponent evaluation,
    division by zero, order/variable mismatches)."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ExactAlgError(f"not an exact scalar: {x!r}")


# ---------------------------------------------------------------------------
# Laurent polynomials in u
# ---------------------------------------------------------------------------

class LaurentPoly:
    """A Laurent polynomial in u with exact rational coefficients.

    Internally a map from integer u-exponent to nonzero Fraction.  Supports
    both-sign exponents; ``q`` means ``u^2``.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Fraction | int | str] | None = None):
        c: dict[int, Fraction] = {}
        if coeffs:
            for e, v in coeffs.items():
                fv = _frac(v)
                if fv != 0:
                    c[int(e)] = fv
        self._c = c

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> LaurentPoly:
        return LaurentPoly()

    @staticmethod
    def one() -> LaurentPoly:
        return LaurentPoly({0: 1})

    @staticmethod
    def u_power(e: int, coeff: Fraction | int | str = 1) -> LaurentPoly:
        return LaurentPoly({int(e): _frac(coeff)})

    @staticmethod
    def q_power(e: int, coeff: Fraction | int | str = 1) -> LaurentPoly:
        """``coeff * q^e`` as a Laurent polynomial in u."""
        return LaurentPoly({2 * int(e): _frac(coeff)})

    @staticmethod
    def from_q_dict(qcoeffs: Mapping[int, Fraction | int | str]) -> LaurentPoly:
        """Build from a map q-exponent -> coefficient (u-exponents doubled)."""
        return LaurentPoly({2 * int(e): _frac(v) for e, v in qcoeffs.items()})

    @staticmethod
    def const(v: Fraction | int | str) -> LaurentPoly:
        return LaurentPoly({0: _frac(v)})

    # -- accessors --------------------------------------------------------

    def coeff(self, u_exp: int) -> Fraction:
        return self._c.get(u_exp, Fraction(0))

    def items(self) -> list[tuple[int, Fraction]]:
        return sorted(self._c.items())

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {0: Fraction(1)}

    def min_exp(self) -> int:
        if not self._c:
            raise ExactAlgError("zero polynomial has no valuation")
        return min(self._c)

    def max_exp(self) -> int:
        if not self._c:
            raise ExactAlgError("zero polynomial has no degree")
        return max(self._c)

    def is_even(self) -> bool:
        """True iff supported on even u-exponents only (a genuine function of q)."""
        return all(e % 2 == 0 for e in self._c)

    def q_dict(self) -> dict[int, Fraction]:
        """The map q-exponent -> coefficient; raises on odd u-exponents."""
        if not self.is_even():
            raise ExactAlgError("Laurent polynomial has odd u-exponents; not a function of q")
        return {e // 2: v for e, v in self._c.items()}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        c = dict(self._c)
        for e, v in other._c.items():
            nv = c.get(e, Fraction(0)) + v
            if nv == 0:
                c.pop(e, None)
            else:
                c[e] = nv
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    def __neg__(self) -> LaurentPoly:
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -v for e, v in self._c.items()}
        return out

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        c: dict[int, Fraction] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                nv = c.get(e, Fraction(0)) + v1 * v2
                if nv == 0:
                    c.pop(e, None)
                else:
                    c[e] = nv
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    def scale(self, v: Fraction | int) -> LaurentPoly:
        fv = _frac(v)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {} if fv == 0 else {e: c * fv for e, c in self._c.items()}
        return out

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by ``u^k``."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e + k: v for e, v in self._c.items()}
        return out

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ExactAlgError("negative power of a Laurent polynomial; use RationalFunction")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def substitute_u_power(self, n: int) -> LaurentPoly:
        """The Adams substitution ``u -> u^n`` (n may be negative: ``u -> 1/u``)."""
        if n == 0:
            raise ExactAlgError("u -> u^0 is not a ring map on Laurent polynomials")
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e * n: v for e, v in self._c.items()}
        return out

    def eval_u(self, u0: Fraction | int) -> Fraction:
        """Evaluate at a numeric u (any exponent parity allowed)."""
        u0 = _frac(u0)
        if u0 == 0 and self._c and self.min_exp() < 0:
            raise ExactAlgError("evaluation at u=0 with negative exponents")
        return sum((v * u0 ** e for e, v in self._c.items()), Fraction(0))

    def eval_q(self, q0: Fraction | int) -> Fraction:
        """Evaluate at a numeric q; requires even support."""
        q0 = _frac(q0)
        total = Fraction(0)
        for e, v in self._c.items():
            if e % 2 != 0:
                raise ExactAlgError(f"cannot evaluate odd u-exponent {e} at a numeric q")
            k = e // 2
            if q0 == 0 and k < 0:
                raise ExactAlgError("evaluation at q=0 with negative exponents")
            total += v * q0 ** k
        return total

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __repr__(self) -> str:
        if not self._c:
            return "LaurentPoly(0)"
        bits = []
        for e, v in self.items():
            bits.append(f"{v}*u^{e}")
        return "LaurentPoly(" + " + ".join(bits) + ")"

    def to_json_dict(self) -> dict[str, str]:
        """Map u-exponent (as string) -> coefficient (as exact string)."""
        return {str(e): str(v) for e, v in self.items()}

    @staticmethod
    def from_json_dict(data: Mapping[str, str]) -> LaurentPoly:
        return LaurentPoly({int(e): Fraction(v) for e, v in data.items()})


U = LaurentPoly.u_power(1)
Q = LaurentPoly.q_power(1)


# ---------------------------------------------------------------------------
# Dense polynomial helpers (index = u-exponent, coefficients Fractions)
# ---------------------------------------------------------------------------

def _dense_trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _dense_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not b:
        raise ExactAlgError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b) and _dense_trim(a):
        shift = len(a) - len(b)
        c = a[-1] * inv_lead
        q[shift] = c
        for i, bv in enumerate(b):
            a[shift + i] -= c * bv
        _dense_trim(a)
    return _dense_trim(q), a


def _dense_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = list(a), list(b)
    while b:
        _, r = _dense_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [v / lead for v in a]
    return a


def _poly_to_dense(p: LaurentPoly) -> list[Fraction]:
    """Convert a Laurent polynomial with nonnegative exponents to a dense list."""
    if p.is_zero():
        return []
    if p.min_exp() < 0:
        raise ExactAlgError("negative exponents in polynomial context")
    out = [Fraction(0)] * (p.max_exp() + 1)
    for e, v in p.items():
        out[e] = v
    return out


def _dense_to_poly(a: Sequence[Fraction]) -> LaurentPoly:
    return LaurentPoly({e: v for e, v in enumerate(a) if v != 0})


def _exact_div(a: list, b: Sequence[int]) -> list | None:
    """The quotient of dense ``a`` by the monic dense ``b``, or None when
    ``b`` does not divide ``a``."""
    db = len(b) - 1
    if len(a) <= db:
        return None
    a = list(a)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            for j in range(db):
                if b[j]:
                    a[i - db + j] -= c * b[j]
    if any(a[:db]):
        return None
    return a[db:]


# ---------------------------------------------------------------------------
# Cyclotomic polynomials Phi_m(u)
# ---------------------------------------------------------------------------

_PHI: dict[int, tuple[int, ...]] = {}
_CYC_PRODUCT: dict[tuple[tuple[int, int], ...], LaurentPoly] = {}


def _phi(m: int) -> tuple[int, ...]:
    """Dense integer coefficients of Phi_m(u), constant term first:
    u^m - 1 divided by Phi_d for every proper divisor d of m."""
    c = _PHI.get(m)
    if c is None:
        a = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                a = _exact_div(a, _phi(d))
        c = _PHI[m] = tuple(a)
    return c


def _cyc_product(cyc: Mapping[int, int]) -> LaurentPoly:
    """``prod Phi_m^e`` over the multiset ``{m: e}``."""
    key = tuple(sorted(cyc.items()))
    p = _CYC_PRODUCT.get(key)
    if p is None:
        p = LaurentPoly.one()
        for m, e in key:
            p = p * _dense_to_poly(_phi(m)) ** e
        _CYC_PRODUCT[key] = p
    return p


def _cyclotomic_factors(d: list[Fraction]) -> dict[int, int] | None:
    """The multiset ``{m: e}`` with ``d = prod Phi_m^e`` for a dense monic
    ``d`` with nonzero constant term, or None when ``d`` is no such product.

    A product of cyclotomics has integer coefficients, constant term
    ``(-1)^e_1`` and ``d[n-i] = d[0] d[i]`` (Phi_1 is anti-palindromic, every
    other Phi_m palindromic); only then are the Phi_m with phi(m) <= deg d
    tried.  Since phi(m) >= sqrt(m) for m > 6, those m are at most
    max(6, deg^2).
    """
    n = len(d) - 1
    if n == 0:
        return {}
    if any(v.denominator != 1 for v in d) or abs(d[0]) != 1:
        return None
    if any(d[n - i] != d[0] * d[i] for i in range(n + 1)):
        return None
    top = max(6, n * n)
    totient = list(range(top + 1))
    for p in range(2, top + 1):
        if totient[p] == p:
            for k in range(p, top + 1, p):
                totient[k] -= totient[k] // p
    cyc: dict[int, int] = {}
    for m in range(1, top + 1):
        if len(d) == 1:
            return cyc
        if totient[m] >= len(d):
            continue
        ph = _phi(m)
        while (qd := _exact_div(d, ph)) is not None:
            d = qd
            cyc[m] = cyc.get(m, 0) + 1
    return cyc if len(d) == 1 else None


def _divide_out(num: LaurentPoly, ms: Iterable[int], cyc: dict[int, int]) -> LaurentPoly:
    """``num`` divided by each Phi_m, m in ``ms``, as often as it divides and
    ``cyc`` still holds a copy; ``cyc`` loses the copies divided out."""
    s = num.min_exp()
    a = _poly_to_dense(num.shift(-s))
    changed = False
    for m in ms:
        ph = _phi(m)
        while m in cyc and (qa := _exact_div(a, ph)) is not None:
            a, changed = qa, True
            cyc[m] -= 1
            if not cyc[m]:
                del cyc[m]
    return _dense_to_poly(a).shift(s) if changed else num


def _times_excess(num: LaurentPoly, lcm: Mapping[int, int], cyc: Mapping[int, int]) -> LaurentPoly:
    """``num`` times the cyclotomic factors by which ``lcm`` exceeds ``cyc``."""
    excess = {m: e - cyc.get(m, 0) for m, e in lcm.items() if e > cyc.get(m, 0)}
    return num * _cyc_product(excess) if excess else num


# ---------------------------------------------------------------------------
# Rational functions in u
# ---------------------------------------------------------------------------

class RationalFunction:
    """A rational function in u in a canonical reduced form.

    Canonical form: ``num / den`` where ``den`` is an honest polynomial in u
    with nonzero constant term and leading coefficient 1, ``num`` is a Laurent
    polynomial (any overall u-shift and scalar live in the numerator), and the
    shifted-to-polynomial numerator is coprime to the denominator.  Structural
    equality is then mathematical equality.

    Every denominator the series code produces divides a product of
    ``q^k - 1 = prod_{m | 2k} Phi_m(u)``, so ``den`` is kept as the multiset
    ``{m: e}`` of its cyclotomic factors as well (empty for a Laurent
    polynomial).  Sums, products, scalings and Adams substitutions then stay
    canonical by exact trial division of the numerator by the Phi_m of that
    multiset alone.  The constructor recognises a cyclotomic denominator;
    any other one is reduced by the Euclidean gcd over Q, keeps no multiset,
    and sends every operation that touches it down the same Euclid route.
    """

    __slots__ = ("num", "den", "_cyc")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero():
            raise ExactAlgError("rational function with zero denominator")
        # Shift the denominator to nonzero constant term and make it monic;
        # fold the shift and the scalar into the numerator.
        dshift = den.min_exp()
        dd = _poly_to_dense(den.shift(-dshift))
        lead = dd[-1]
        dd = [v / lead for v in dd]
        num = num.scale(1 / lead).shift(-dshift)
        cyc = {} if num.is_zero() else _cyclotomic_factors(dd)
        if cyc is not None:
            self._set(_divide_out(num, list(cyc), cyc) if cyc else num, cyc)
            return
        nshift = num.min_exp()
        nd = _poly_to_dense(num.shift(-nshift))
        g = _dense_gcd(nd, dd)
        if len(g) > 1:
            nd, _ = _dense_divmod(nd, g)
            dd, _ = _dense_divmod(dd, g)
            cyc = _cyclotomic_factors(dd)
        self._set(_dense_to_poly(nd).shift(nshift), cyc, _dense_to_poly(dd))

    def _set(
        self, num: LaurentPoly, cyc: dict[int, int] | None, den: LaurentPoly | None = None
    ) -> None:
        """Store ``num / den``, already canonical; ``den`` defaults to the
        product of the multiset ``cyc``."""
        if num.is_zero():
            cyc, den = {}, None
        self.num = num
        self.den = _cyc_product(cyc) if den is None else den
        self._cyc = cyc

    @staticmethod
    def _make(
        num: LaurentPoly, cyc: dict[int, int] | None, den: LaurentPoly | None = None
    ) -> RationalFunction:
        out = RationalFunction.__new__(RationalFunction)
        out._set(num, cyc, den)
        return out

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_laurent(p: LaurentPoly) -> RationalFunction:
        return RationalFunction(p, LaurentPoly.one())

    @staticmethod
    def from_int(n: int) -> RationalFunction:
        return RationalFunction(LaurentPoly.const(n), LaurentPoly.one())

    @staticmethod
    def from_fraction(v: Fraction) -> RationalFunction:
        return RationalFunction(LaurentPoly.const(v), LaurentPoly.one())

    @staticmethod
    def zero() -> RationalFunction:
        return RationalFunction(LaurentPoly.zero(), LaurentPoly.one())

    @staticmethod
    def one() -> RationalFunction:
        return RationalFunction(LaurentPoly.one(), LaurentPoly.one())

    # -- predicates/accessors ---------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_laurent(self) -> bool:
        return self.den.is_one()

    def as_laurent(self) -> LaurentPoly:
        if not self.is_laurent():
            raise ExactAlgError(f"not a Laurent polynomial: {self!r}")
        return self.num

    # -- field operations ----------------------------------------------------

    def __add__(self, other: RationalFunction) -> RationalFunction:
        a, b = self._cyc, other._cyc
        if a is None or b is None:
            return RationalFunction(
                self.num * other.den + other.num * self.den, self.den * other.den
            )
        # Bring both to the lcm (elementwise max).  Phi_m can divide the sum
        # only where both multiplicities agree: elsewhere the sum is, mod
        # Phi_m, a numerator coprime to Phi_m times other cyclotomics.
        lcm = dict(a)
        for m, e in b.items():
            if e > lcm.get(m, 0):
                lcm[m] = e
        num = _times_excess(self.num, lcm, a) + _times_excess(other.num, lcm, b)
        common = [m for m, e in a.items() if b.get(m) == e]
        if common and not num.is_zero():
            num = _divide_out(num, common, lcm)
        return RationalFunction._make(num, lcm)

    def __neg__(self) -> RationalFunction:
        return RationalFunction._make(-self.num, self._cyc, self.den)

    def __sub__(self, other: RationalFunction) -> RationalFunction:
        return self + (-other)

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        a, b = self._cyc, other._cyc
        if a is None or b is None:
            return RationalFunction(self.num * other.num, self.den * other.den)
        if self.is_zero() or other.is_zero():
            return RF_ZERO
        # Each numerator is coprime to its own denominator, so a Phi_m cancels
        # only against the other operand's numerator.
        cyc = dict(a)
        for m, e in b.items():
            cyc[m] = cyc.get(m, 0) + e
        na, nb = self.num, other.num
        ms = [m for m in b if m not in a]
        if ms:
            na = _divide_out(na, ms, cyc)
        ms = [m for m in a if m not in b]
        if ms:
            nb = _divide_out(nb, ms, cyc)
        return RationalFunction._make(na * nb, cyc)

    def __truediv__(self, other: RationalFunction) -> RationalFunction:
        if other.is_zero():
            raise ExactAlgError("division by the zero rational function")
        if other._cyc is not None and len(other.num._c) == 1:
            # c u^k / D has the Laurent reciprocal D u^-k / c.
            ((k, c),) = other.num._c.items()
            return self * RationalFunction._make(other.den.shift(-k).scale(1 / c), {})
        return RationalFunction(self.num * other.den, self.den * other.num)

    def scale(self, v: Fraction | int) -> RationalFunction:
        return RationalFunction._make(self.num.scale(v), self._cyc, self.den)

    def __pow__(self, n: int) -> RationalFunction:
        if n < 0:
            if self.is_zero():
                raise ExactAlgError("negative power of zero")
            return (RationalFunction.one() / self) ** (-n)
        result = RationalFunction.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def substitute_u_power(self, n: int) -> RationalFunction:
        """Adams substitution ``u -> u^n`` (n nonzero; negative n is the duality
        ``u -> 1/u``)."""
        num = self.num.substitute_u_power(n)
        if self._cyc is None:
            return RationalFunction(num, self.den.substitute_u_power(n))
        # Phi_m(u^k) = prod Phi_j over j = m g, g | k, gcd(j, k) = g (the
        # roots of unity w with w^k of order m).  A root of num(u^k) there
        # would be a root of num at a primitive m-th root, so no Phi_j
        # cancels.
        k = abs(n)
        cyc = {
            m * g: e
            for m, e in self._cyc.items()
            for g in range(1, k + 1)
            if k % g == 0 and gcd(m * g, k) == g
        }
        if n < 0:
            # Phi_1(1/u) = -u^-1 Phi_1(u) and Phi_m(1/u) = u^-phi(m) Phi_m(u)
            # for m >= 2: the sign and the shift move into the numerator.
            num = num.shift(k * self.den.max_exp())
            if self._cyc.get(1, 0) % 2:
                num = -num
        return RationalFunction._make(num, cyc)

    def eval_q(self, q0: Fraction | int) -> Fraction:
        q0 = _frac(q0)
        d = self.den.eval_q(q0)
        if d == 0:
            raise ExactAlgError(f"denominator vanishes at q={q0}")
        return self.num.eval_q(q0) / d

    def eval_u(self, u0: Fraction | int) -> Fraction:
        u0 = _frac(u0)
        d = self.den.eval_u(u0)
        if d == 0:
            raise ExactAlgError(f"denominator vanishes at u={u0}")
        return self.num.eval_u(u0) / d

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.is_laurent():
            return f"RF({self.num!r})"
        return f"RF({self.num!r} / {self.den!r})"

    def to_json_dict(self) -> dict:
        return {"num": self.num.to_json_dict(), "den": self.den.to_json_dict()}

    @staticmethod
    def from_json_dict(data: Mapping) -> RationalFunction:
        return RationalFunction(
            LaurentPoly.from_json_dict(data["num"]), LaurentPoly.from_json_dict(data["den"])
        )


RF_ZERO = RationalFunction.zero()
RF_ONE = RationalFunction.one()


def _coerce_rf(v) -> RationalFunction:
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, LaurentPoly):
        return RationalFunction.from_laurent(v)
    if isinstance(v, (int, Fraction)):
        return RationalFunction.from_fraction(_frac(v))
    raise ExactAlgError(f"cannot coerce {v!r} to a rational function")


# ---------------------------------------------------------------------------
# Truncated multivariate power series
# ---------------------------------------------------------------------------

class TruncSeries:
    """A power series in variables ``t_v`` truncated at a total degree.

    ``terms`` maps exponent tuples (aligned with ``variables``) to nonzero
    RationalFunction coefficients; keys with total degree exceeding ``order``
    are never stored.  Binary operations require identical variable tuples and
    return the minimum of the two orders.
    """

    __slots__ = ("variables", "order", "terms")

    def __init__(
        self,
        variables: tuple[str, ...],
        order: int,
        terms: Mapping[tuple[int, ...], RationalFunction] | None = None,
    ):
        if order < 0:
            raise ExactAlgError("truncation order must be >= 0")
        self.variables = tuple(variables)
        self.order = int(order)
        t: dict[tuple[int, ...], RationalFunction] = {}
        if terms:
            for k, v in terms.items():
                k = tuple(int(x) for x in k)
                if len(k) != len(self.variables):
                    raise ExactAlgError("exponent tuple length mismatch")
                if any(x < 0 for x in k):
                    raise ExactAlgError("negative exponent in power series")
                if sum(k) > self.order:
                    continue
                rv = _coerce_rf(v)
                if not rv.is_zero():
                    t[k] = rv
        self.terms = t

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str], order: int) -> TruncSeries:
        return TruncSeries(tuple(variables), order)

    @staticmethod
    def one(variables: Sequence[str], order: int) -> TruncSeries:
        key = (0,) * len(tuple(variables))
        return TruncSeries(tuple(variables), order, {key: RF_ONE})

    @staticmethod
    def monomial(
        variables: Sequence[str], order: int, exponents: Sequence[int], coeff=1
    ) -> TruncSeries:
        return TruncSeries(tuple(variables), order, {tuple(exponents): _coerce_rf(coeff)})

    # -- accessors --------------------------------------------------------

    def coeff(self, exponents: Sequence[int]) -> RationalFunction:
        k = tuple(int(x) for x in exponents)
        if sum(k) > self.order:
            raise ExactAlgError(
                f"coefficient at degree {sum(k)} beyond truncation order {self.order}"
            )
        return self.terms.get(k, RF_ZERO)

    def constant_term(self) -> RationalFunction:
        return self.terms.get((0,) * len(self.variables), RF_ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> list[tuple[tuple[int, ...], RationalFunction]]:
        return sorted(self.terms.items())

    def valuation(self) -> int:
        """Minimum total degree of a nonzero term (order+1 for the zero series)."""
        if not self.terms:
            return self.order + 1
        return min(sum(k) for k in self.terms)

    def truncate(self, order: int) -> TruncSeries:
        if order > self.order:
            raise ExactAlgError("cannot raise the truncation order of a series")
        return TruncSeries(self.variables, order, self.terms)

    def _align(self, other: TruncSeries) -> int:
        if self.variables != other.variables:
            raise ExactAlgError(
                f"series variables differ: {self.variables} vs {other.variables}"
            )
        return min(self.order, other.order)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: TruncSeries) -> TruncSeries:
        order = self._align(other)
        t = {k: v for k, v in self.terms.items() if sum(k) <= order}
        for k, v in other.terms.items():
            if sum(k) > order:
                continue
            nv = t.get(k, RF_ZERO) + v
            if nv.is_zero():
                t.pop(k, None)
            else:
                t[k] = nv
        return TruncSeries(self.variables, order, t)

    def __neg__(self) -> TruncSeries:
        return TruncSeries(self.variables, self.order, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        return self + (-other)

    def __mul__(self, other: TruncSeries) -> TruncSeries:
        order = self._align(other)
        t: dict[tuple[int, ...], RationalFunction] = {}
        for k1, v1 in self.terms.items():
            d1 = sum(k1)
            if d1 > order:
                continue
            for k2, v2 in other.terms.items():
                if d1 + sum(k2) > order:
                    continue
                k = tuple(a + b for a, b in zip(k1, k2))
                nv = t.get(k, RF_ZERO) + v1 * v2
                if nv.is_zero():
                    t.pop(k, None)
                else:
                    t[k] = nv
        return TruncSeries(self.variables, order, t)

    def scale(self, v) -> TruncSeries:
        rv = _coerce_rf(v)
        return TruncSeries(
            self.variables, self.order, {k: c * rv for k, c in self.terms.items()}
        )

    def __pow__(self, n: int) -> TruncSeries:
        if n < 0:
            return self.invert() ** (-n)
        result = TruncSeries.one(self.variables, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def invert(self) -> TruncSeries:
        """Multiplicative inverse; requires an invertible constant term."""
        return TruncSeries.one(self.variables, self.order) / self

    def __truediv__(self, other: TruncSeries) -> TruncSeries:
        order = self._align(other)
        c = other.constant_term()
        if c.is_zero():
            raise ExactAlgError("cannot invert a series with zero constant term")
        a, inv_c = self.terms, RF_ONE / c
        return _solve(other.truncate(order), lambda k, s: (a.get(k, RF_ZERO) - s) * inv_c)

    # -- variable surgery ---------------------------------------------------

    def slice_var(self, var: str, exponent: int) -> TruncSeries:
        """The coefficient of ``var^exponent`` as a series in the remaining
        variables, with truncation order reduced by ``exponent``."""
        if var not in self.variables:
            raise ExactAlgError(f"unknown variable {var!r}")
        i = self.variables.index(var)
        rest = self.variables[:i] + self.variables[i + 1 :]
        if exponent > self.order:
            raise ExactAlgError("slice exponent beyond truncation order")
        t = {
            k[:i] + k[i + 1 :]: v
            for k, v in self.terms.items()
            if k[i] == exponent
        }
        return TruncSeries(rest, self.order - exponent, t)

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.variables == other.variables
            and self.order == other.order
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        bits = [f"{v!r}*t^{k}" for k, v in self.items()[:6]]
        more = "" if len(self.terms) <= 6 else f" ... ({len(self.terms)} terms)"
        return f"TruncSeries[{','.join(self.variables)}; O({self.order + 1})](" + " + ".join(bits) + more + ")"

    def to_json_list(self) -> list[dict]:
        """Deterministic JSON form: a list sorted by exponent tuple, each entry
        ``{"dim": [...], "num": {u_exp: coeff}, "den": {...}}``."""
        out = []
        for k, v in self.items():
            out.append({"dim": list(k), "num": v.num.to_json_dict(), "den": v.den.to_json_dict()})
        return out

    @staticmethod
    def from_json_list(
        variables: Sequence[str], order: int, data: Iterable[Mapping]
    ) -> TruncSeries:
        terms = {
            tuple(entry["dim"]): RationalFunction.from_json_dict(entry)
            for entry in data
        }
        return TruncSeries(tuple(variables), order, terms)


# ---------------------------------------------------------------------------
# Plethystic operations
# ---------------------------------------------------------------------------

def adams(n: int, f: TruncSeries) -> TruncSeries:
    """The Adams operation ``psi_n``: ``u -> u^n`` on coefficients and
    ``t^d -> t^(n d)`` on monomials, truncated at f's order."""
    if n < 1:
        raise ExactAlgError("Adams operations are indexed by n >= 1")
    t: dict[tuple[int, ...], RationalFunction] = {}
    for k, v in f.terms.items():
        nk = tuple(n * x for x in k)
        if sum(nk) > f.order:
            continue
        t[nk] = v.substitute_u_power(n)
    return TruncSeries(f.variables, f.order, t)


def degree_box(n: int, order: int) -> list[tuple[int, ...]]:
    """All n-tuples of nonnegative integers with total <= order, in
    lexicographic order."""
    return [k for k in itertools.product(range(order + 1), repeat=n) if sum(k) <= order]


def _solve(f: TruncSeries, step) -> TruncSeries:
    """The series y with ``y_k = step(k, sum_{0<j<=k} f_j y_{k-j})``.

    Keys are visited in order of total degree, so every y_{k-j} on the right
    is already known; k runs over f's whole box, the zero key included."""
    fj = [(j, v) for j, v in f.terms.items() if any(j)]
    y: dict[tuple[int, ...], RationalFunction] = {}
    for k in sorted(degree_box(len(f.variables), f.order), key=sum):
        s = RF_ZERO
        for j, v in fj:
            r = tuple(a - b for a, b in zip(k, j))
            if r in y:
                s = s + v * y[r]
        yk = step(k, s)
        if not yk.is_zero():
            y[k] = yk
    return TruncSeries(f.variables, f.order, y)


def _euler(f: TruncSeries, power: int = 1) -> TruncSeries:
    """The Euler operator ``E: t^k -> |k| t^k``, or its inverse on a series
    with zero constant term for ``power=-1``."""
    return TruncSeries(
        f.variables, f.order, {k: v.scale(Fraction(sum(k)) ** power) for k, v in f.terms.items()}
    )


def mobius(n: int) -> int:
    """The Moebius function by trial division (n small)."""
    if n < 1:
        raise ExactAlgError("mobius is defined for n >= 1")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def pleth_exp(f: TruncSeries) -> TruncSeries:
    """Plethystic exponential ``Exp(f) = exp(sum_{n>=1} psi_n(f)/n)``.

    Requires zero constant term.  Satisfies ``Exp(f+g) = Exp(f) Exp(g)`` and
    ``Exp(c q^a t^d) = (1 - q^a t^d)^(-c)`` for integer c on a single monomial.
    """
    if not f.constant_term().is_zero():
        raise ExactAlgError("Exp requires zero constant term")
    ef = _euler(f)
    h = TruncSeries.zero(f.variables, f.order)
    for n in range(1, f.order + 1):
        h = h + adams(n, ef)
    return _solve(h, lambda k, s: s.scale(Fraction(1, sum(k))) if any(k) else RF_ONE)


def pleth_log(g: TruncSeries) -> TruncSeries:
    """Plethystic logarithm: the inverse of :func:`pleth_exp`.

    ``Log(g) = sum_{n>=1} mu(n)/n psi_n(log g)``, requiring constant term 1.
    """
    if not g.constant_term().is_one():
        raise ExactAlgError("Log requires constant term 1")
    d = _euler(g) / g
    acc = TruncSeries.zero(g.variables, g.order)
    for n in range(1, g.order + 1):
        mu = mobius(n)
        if mu:
            acc = acc + adams(n, d).scale(mu)
    return _euler(acc, -1)


def series_invert(f: TruncSeries) -> TruncSeries:
    """Multiplicative inverse of a truncated series with invertible (nonzero)
    constant term; errors otherwise."""
    return f.invert()


def eval_at_q(poly, q0: int) -> Fraction:
    """Evaluate a Laurent polynomial or rational function at q = q0.

    Only even powers of the half-variable u (u^2 = q) are meaningful at an
    integer q-value; an odd power raises :class:`ExactAlgError`, as does a
    q0 below 2 (small integers collide with denominator zeros such as q - 1
    and are never census moduli).
    """
    if not isinstance(q0, int) or q0 < 2:
        raise ExactAlgError(f"evaluation point must be an integer >= 2, got {q0!r}")
    if isinstance(poly, LaurentPoly):
        return poly.eval_q(q0)
    if isinstance(poly, RationalFunction):
        return poly.eval_q(q0)
    raise ExactAlgError(f"cannot evaluate object of type {type(poly).__name__}")
