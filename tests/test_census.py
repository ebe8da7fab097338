"""Finite-field census engine: point/stack counts, endomorphism algebras,
classification, Kac interpolation, semistability, budgets, determinism."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from quiverdt import census
from quiverdt.census import (
    CapExceeded,
    CensusError,
    Classification,
    MatrixRep,
    census_report,
    classify,
    count_abs_indecomposable,
    endomorphism_algebra,
    gl_order,
    kac_polynomial,
    point_count,
    semistable_point_count,
    stack_count,
)
from quiverdt.exactalg import LaurentPoly
from quiverdt.modp import index_to_digits
from quiverdt.quiver import (
    Arrow,
    Quiver,
    QuiverError,
    SerreConstraint,
    StabilityCondition,
    a2_quiver,
    jordan_quiver,
    loops_nilpotent_constraint,
    multi_loop_quiver,
    nilpotent_module_constraint,
    point_quiver,
)

JQ = jordan_quiver()
A2 = a2_quiver()
PT = point_quiver()


@pytest.fixture()
def no_chunks(monkeypatch):
    """Make enumerating any chunk of points an error, so that a cap raised
    under this fixture was raised before the census started."""

    def refuse(*args):
        raise AssertionError("a chunk was enumerated before the caps were checked")

    monkeypatch.setattr(census._Workspace, "matrices_for_range", refuse)


# -- |GL| ---------------------------------------------------------------------

def test_gl_order_values():
    assert gl_order(JQ.dim((2,)), 2) == 6
    assert gl_order(JQ.dim((2,)), 3) == 48
    assert gl_order(A2.dim((2, 1)), 2) == 6 * 1
    assert gl_order(A2.dim((1, 1)), 3) == 4
    with pytest.raises(CensusError):
        gl_order(JQ.dim((2,)), 4)


# -- point and stack counts ------------------------------------------------------

def test_commuting_pairs_frozen_counts():
    # pairs of commuting 2x2 matrices = points of the doubled Jordan quiver
    # on the moment-map zero fiber
    assert point_count(JQ, JQ.dim((2,)), 2, "preprojective") == 88
    assert point_count(JQ, JQ.dim((2,)), 3, "preprojective") == 945
    assert stack_count(JQ, JQ.dim((2,)), 2, "preprojective") == Fraction(44, 3)
    assert stack_count(JQ, JQ.dim((2,)), 3, "preprojective") == Fraction(315, 16)


def test_unconstrained_point_count_is_full_space():
    # no relations: every matrix assignment is a point
    assert point_count(JQ, JQ.dim((2,)), 2) == 2 ** 4
    assert point_count(A2, A2.dim((2, 2)), 3) == 3 ** 4


def test_point_quiver_stack_count():
    assert stack_count(PT, PT.dim((1,)), 7) == Fraction(1, 6)
    # no End system is built, so its column cap does not apply
    assert point_count(PT, PT.dim((8,)), 2) == 1


def test_invertible_commuting_pairs():
    inv = SerreConstraint(((("x",), "invertible"), (("x*",), "invertible")))
    assert point_count(JQ, JQ.dim((2,)), 2, "preprojective", inv) == 18


def test_nilpotent_loop_point_count():
    nil = SerreConstraint(((("x",), "nilpotent"),))
    # 2x2 nilpotent matrices over F_2: zero plus the three rank-1 squares-to-zero
    assert point_count(JQ, JQ.dim((2,)), 2, "none", nil) == 4


def test_serre_clauses_on_starred_arrows_need_preprojective():
    inv = SerreConstraint(((("x*",), "invertible"),))
    with pytest.raises(QuiverError):
        point_count(JQ, JQ.dim((2,)), 2, "none", inv)


# -- census report -----------------------------------------------------------------

def test_census_report_jordan_d2_p2():
    rep = census_report(JQ, JQ.dim((2,)), 2)
    assert rep.point_count == 16
    assert rep.stack_count == Fraction(8, 3)
    assert rep.iso_classes == 6
    assert rep.indecomposable_classes == 3
    assert rep.abs_indecomposable_classes == 2


def test_census_report_zero_dim_rejected():
    with pytest.raises(QuiverError):
        census_report(A2, A2.dim((0, 0)), 2)


def test_census_report_json_shape():
    d = census_report(JQ, JQ.dim((2,)), 2).to_json_dict()
    assert d["point_count"] == "16"
    assert d["stack_count"] == "8/3"
    assert d["dim"] == "2"


# -- MatrixRep validation --------------------------------------------------------------

def test_matrixrep_validates_prime():
    with pytest.raises(CensusError):
        MatrixRep(JQ, 4, JQ.dim((1,)), {"x": [[1]]})


def test_matrixrep_validates_shape():
    with pytest.raises(QuiverError):
        MatrixRep(JQ, 2, JQ.dim((2,)), {"x": [[1]]})


def test_matrixrep_rejects_unknown_arrow():
    with pytest.raises(QuiverError):
        MatrixRep(JQ, 2, JQ.dim((1,)), {"y": [[0]]})


def test_matrixrep_canonicalizes_and_defaults():
    rho = MatrixRep(JQ, 3, JQ.dim((1,)), {"x": [[5]]})
    assert rho.matrix("x")[0, 0] == 2
    rho2 = MatrixRep(A2, 2, A2.dim((1, 1)), {})
    assert rho2.matrix("a").shape == (1, 1) and rho2.matrix("a")[0, 0] == 0


# -- endomorphism algebras ---------------------------------------------------------------

def test_end_of_nilpotent_jordan_block_is_local():
    rho = MatrixRep(JQ, 2, JQ.dim((2,)), {"x": [[0, 1], [0, 0]]})
    alg = endomorphism_algebra(rho)
    # End = F_2[x]/(x^2): dimension 2, units {1, 1+x}, nilpotents {0, x}
    assert alg.dim == 2
    assert alg.unit_count == 2
    assert alg.nilpotent_count == 2
    assert alg.is_local
    assert alg.radical_dim == 1


def test_end_of_split_diagonal_is_not_local():
    rho = MatrixRep(JQ, 2, JQ.dim((2,)), {"x": [[0, 0], [0, 1]]})
    alg = endomorphism_algebra(rho)
    # End = F_2 x F_2: units only (1,1), nilpotents only 0, semisimple
    assert alg.dim == 2
    assert alg.unit_count == 1
    assert alg.nilpotent_count == 1
    assert not alg.is_local
    assert alg.radical_dim == 0


def test_end_of_zero_dim_rep():
    rho = MatrixRep(JQ, 2, JQ.dim((0,)), {})
    alg = endomorphism_algebra(rho)
    assert alg.dim == 0 and alg.unit_count == 1


def test_end_of_scalar_extension_field():
    # companion matrix of x^2+x+1 over F_2: End = F_4, local with residue F_4
    rho = MatrixRep(JQ, 2, JQ.dim((2,)), {"x": [[0, 1], [1, 1]]})
    alg = endomorphism_algebra(rho)
    assert alg.dim == 2 and alg.is_local and alg.radical_dim == 0
    assert alg.unit_count == 3  # F_4 units
    c = classify(rho)
    assert c.is_indecomposable() and not c.is_absolutely_indecomposable()
    assert c.residue_dim == 2


def test_classify_examples():
    indec = classify(MatrixRep(JQ, 2, JQ.dim((2,)), {"x": [[0, 1], [0, 0]]}))
    assert indec.is_indecomposable() and indec.is_absolutely_indecomposable()
    dec = classify(MatrixRep(JQ, 2, JQ.dim((2,)), {"x": [[0, 0], [0, 1]]}))
    assert not dec.is_indecomposable()
    a2_one = classify(MatrixRep(A2, 2, A2.dim((1, 1)), {"a": [[1]]}))
    assert a2_one.is_absolutely_indecomposable()
    a2_zero = classify(MatrixRep(A2, 2, A2.dim((1, 1)), {"a": [[0]]}))
    assert not a2_zero.is_indecomposable()


def test_classification_invariant_under_conjugation():
    # rho and g.rho.g^{-1} classify identically
    g = np.array([[1, 1], [0, 1]])
    ginv = np.array([[1, 1], [0, 1]])  # self-inverse mod 2
    for mat in ([[0, 1], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 1]]):
        m = np.array(mat)
        conj = (g @ m @ ginv) % 2
        a = classify(MatrixRep(JQ, 2, JQ.dim((2,)), {"x": m}))
        b = classify(MatrixRep(JQ, 2, JQ.dim((2,)), {"x": conj}))
        assert a == b


def _burnside_dual_route(q, dims, p):
    # classify every single point individually and reproduce the batched
    # census class counts via Burnside sums |Aut|/|GL| (= 1/orbit size)
    d = q.dim(dims)
    gl = gl_order(d, p)
    shapes = [(a.label, (d[a.tgt], d[a.src])) for a in q.arrows]
    cells = sum(m * n for _, (m, n) in shapes)
    iso = Fraction(0)
    indec = Fraction(0)
    absind = Fraction(0)
    for flat in itertools.product(range(p), repeat=cells):
        mats, at = {}, 0
        for label, (m, n) in shapes:
            mats[label] = np.array(flat[at : at + m * n]).reshape(m, n)
            at += m * n
        rho = MatrixRep(q, p, d, mats)
        aut = endomorphism_algebra(rho).unit_count
        c = classify(rho)
        iso += Fraction(aut, gl)
        if c.is_indecomposable():
            indec += Fraction(aut, gl)
        if c.is_absolutely_indecomposable():
            absind += Fraction(aut, gl)
    rep = census_report(q, d, p)
    assert iso == rep.iso_classes
    assert indec == rep.indecomposable_classes
    assert absind == rep.abs_indecomposable_classes


def test_burnside_dual_route_jordan_d2_p2():
    _burnside_dual_route(JQ, (2,), 2)


@pytest.mark.parametrize("q, dims, p", [(JQ, (2,), 3), (A2, (2, 1), 3)], ids=["jordan-d2-p3", "a2-d21-p3"])
def test_burnside_dual_route_sliced(q, dims, p):
    _burnside_dual_route(q, dims, p)


# -- absolutely indecomposable counts and Kac polynomials ----------------------------------

def test_abs_indecomposable_counts_frozen():
    assert count_abs_indecomposable(JQ, JQ.dim((1,)), 2) == 2
    assert count_abs_indecomposable(JQ, JQ.dim((1,)), 3) == 3
    assert count_abs_indecomposable(JQ, JQ.dim((2,)), 2) == 2
    assert count_abs_indecomposable(A2, A2.dim((1, 1)), 2) == 1
    assert count_abs_indecomposable(A2, A2.dim((2, 1)), 2) == 0


def test_kac_jordan_is_q():
    q_poly = LaurentPoly.q_power(1)
    assert kac_polynomial(JQ, JQ.dim((1,))) == q_poly
    assert kac_polynomial(JQ, JQ.dim((2,))) == q_poly


def test_kac_a2_roots_and_nonroots():
    one = LaurentPoly.one()
    for d in ((1, 0), (0, 1), (1, 1)):
        assert kac_polynomial(A2, A2.dim(d)) == one
    assert kac_polynomial(A2, A2.dim((2, 1))).is_zero()


def test_kac_two_loop_rank_one():
    assert kac_polynomial(multi_loop_quiver(2), multi_loop_quiver(2).dim((1,))) == (
        LaurentPoly.q_power(2)
    )


def test_kac_restricted_jordan():
    sn = loops_nilpotent_constraint(JQ)
    one = LaurentPoly.one()
    assert kac_polynomial(JQ, JQ.dim((1,)), sn) == one
    assert kac_polynomial(JQ, JQ.dim((2,)), sn) == one
    ssn = nilpotent_module_constraint()
    assert kac_polynomial(JQ, JQ.dim((2,)), ssn) == one


def test_kac_point_quiver():
    assert kac_polynomial(PT, PT.dim((1,))) == LaurentPoly.one()
    assert kac_polynomial(PT, PT.dim((2,))).is_zero()


def test_kac_zero_dim_rejected():
    with pytest.raises(QuiverError):
        kac_polynomial(JQ, JQ.dim((0,)))


def test_kac_node_reproduction_with_larger_node_set():
    default = kac_polynomial(JQ, JQ.dim((2,)))
    explicit = kac_polynomial(JQ, JQ.dim((2,)), nodes=(2, 3, 5, 7))
    assert default == explicit


def test_kac_node_validation():
    with pytest.raises(QuiverError):
        kac_polynomial(JQ, JQ.dim((2,)), nodes=(2, 3, 4))  # composite
    with pytest.raises(QuiverError):
        kac_polynomial(JQ, JQ.dim((2,)), nodes=(3, 2, 5))  # not increasing
    with pytest.raises(QuiverError):
        kac_polynomial(JQ, JQ.dim((2,)), nodes=(2, 3))  # too few for degree bound


# -- semistable counts -----------------------------------------------------------------------

def test_semistable_counts_a2():
    z = StabilityCondition.from_map(A2, {"1": -1, "2": 0})
    d = A2.dim((1, 1))
    # destabilizer is the sub at vertex 1; only a = 0 admits it
    assert semistable_point_count(A2, d, 2, z) == 1
    assert semistable_point_count(A2, d, 3, z) == 2
    zr = StabilityCondition.from_map(A2, {"1": 0, "2": -1})
    # the sub at vertex 2 is always arrow-invariant: nothing is semistable
    assert semistable_point_count(A2, d, 2, zr) == 0


def test_semistable_equals_total_when_no_destabilizer():
    z = StabilityCondition.from_map(A2, {"1": -1, "2": 0})
    d = A2.dim((1, 0))
    assert semistable_point_count(A2, d, 3, z) == point_count(A2, d, 3)


# -- budgets -----------------------------------------------------------------------------------

def test_point_budget_cap(no_chunks):
    with pytest.raises(CapExceeded) as ei:
        point_count(JQ, JQ.dim((2,)), 2, point_budget=10)
    assert ei.value.kind == "point enumeration"
    assert ei.value.required == 16 and ei.value.budget == 10


def test_end_budget_cap_on_endomorphism_algebra():
    rho = MatrixRep(JQ, 2, JQ.dim((2,)), {"x": [[0, 1], [0, 0]]})
    with pytest.raises(CapExceeded) as ei:
        endomorphism_algebra(rho, end_budget=3)
    assert ei.value.kind == "endomorphism enumeration"


def test_end_budget_refuses_scalar_end_before_first_chunk(no_chunks):
    # the preprojective scan enumerates End(scalar, scalar) = M_2(F_3), with
    # (3^4 - 1)/2 = 40 projective elements
    with pytest.raises(CapExceeded) as ei:
        census_report(JQ, JQ.dim((2,)), 3, "preprojective", end_budget=39)
    assert (ei.value.kind, ei.value.required, ei.value.budget) == ("endomorphism enumeration", 40, 39)


def test_end_budget_charges_only_enumerated_end(monkeypatch):
    full = census_report(JQ, JQ.dim((2,)), 3, "preprojective")
    assert census_report(JQ, JQ.dim((2,)), 3, "preprojective", end_budget=40) == full

    def refuse(*args):
        raise AssertionError("a loop-only census enumerated End")

    # a loop-only census reads its classification from the orbit table and
    # charges no End, whatever the size of M_3(F_5) (488,281 projective elements)
    monkeypatch.setattr(census, "_end_counts", refuse)
    r = census_report(JQ, JQ.dim((3,)), 5, end_budget=1000)
    assert (r.iso_classes, r.indecomposable_classes, r.abs_indecomposable_classes) == (155, 45, 5)


def test_subspace_budget_cap(no_chunks):
    z = StabilityCondition.from_map(A2, {"1": -1, "2": 0})
    with pytest.raises(CapExceeded) as ei:
        semistable_point_count(A2, A2.dim((2, 2)), 3, z, subspace_budget=2)
    assert ei.value.kind == "subspace enumeration"
    # e = (1, 0): the 4 lines of F_3^2 at vertex 1 times the zero space at vertex 2
    assert ei.value.required == 4


def test_word_budget_cap(no_chunks):
    ssn = nilpotent_module_constraint()
    with pytest.raises(CapExceeded) as ei:
        point_count(multi_loop_quiver(2), multi_loop_quiver(2).dim((2,)), 2, "none", ssn,
                    word_budget=3)
    assert ei.value.kind == "nilpotent-module word enumeration"


def test_end_system_column_cap(no_chunks):
    # End of an 8-dimensional point representation has 64 unknowns, more
    # columns than rref_mod handles
    with pytest.raises(CapExceeded) as ei:
        census_report(PT, PT.dim((8,)), 2)
    assert (ei.value.kind, ei.value.required, ei.value.budget) == (
        "endomorphism system columns", 64, 62
    )
    # 62 is a fixed limit of rref_mod, not a budget that a flag could raise
    assert "fixed limit of rref_mod" in str(ei.value)
    assert "raise the relevant budget" not in str(ei.value)
    with pytest.raises(CapExceeded) as ei:
        endomorphism_algebra(MatrixRep(PT, 2, PT.dim((8,)), {}))
    assert ei.value.kind == "endomorphism system columns"
    assert "fixed limit of rref_mod" in str(ei.value)


def test_cap_exceeded_message_names_numbers():
    err = CapExceeded("point enumeration", 100, 10)
    assert "100" in str(err) and "10" in str(err)


# -- determinism across worker counts ------------------------------------------------------------

def test_census_deterministic_across_workers():
    reports = [
        census_report(JQ, JQ.dim((2,)), 3, "preprojective", workers=w) for w in (1, 2, 8)
    ]
    assert reports[0] == reports[1] == reports[2]


def test_point_count_deterministic_across_workers():
    vals = {point_count(A2, A2.dim((2, 2)), 3, workers=w) for w in (1, 2, 8)}
    assert len(vals) == 1


def test_semistable_count_deterministic_across_workers_and_chunks(monkeypatch):
    z = StabilityCondition.from_map(A2, {"1": -1, "2": 0})
    d = A2.dim((2, 2))
    vals = [semistable_point_count(A2, d, 3, z, "preprojective", workers=w) for w in (1, 2, 8)]
    monkeypatch.setattr(census, "_MAX_CHUNK", 7)  # chunk boundaries inside the 3^8 points
    vals += [semistable_point_count(A2, d, 3, z, "preprojective", workers=w) for w in (1, 2, 8)]
    assert vals == [48] * 6


# -- orbit-sliced classification -----------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_jordan_classes_are_similarity_classes(p):
    # similarity classes of M_n(F_p): p^2 + p for n = 2 and p^3 + p^2 + p
    # for n = 3; the indecomposable ones are the companion matrices of f^k
    # with f irreducible, deg(f) k = n, and the absolutely indecomposable
    # ones those with f linear (p of them)
    two = census_report(JQ, JQ.dim((2,)), p)
    assert (two.iso_classes, two.indecomposable_classes, two.abs_indecomposable_classes) == (
        p ** 2 + p, p + (p ** 2 - p) // 2, p
    )
    three = census_report(JQ, JQ.dim((3,)), p, workers=2)
    assert (three.iso_classes, three.indecomposable_classes, three.abs_indecomposable_classes) == (
        p ** 3 + p ** 2 + p, p + (p ** 3 - p) // 3, p
    )
    if p == 2:
        # p^4 + p^3 + 2p^2 + p classes; f^k with deg(f) k = 4: two linear f,
        # one irreducible quadratic and three irreducible quartics
        four = census_report(JQ, JQ.dim((4,)), p)
        assert (four.iso_classes, four.indecomposable_classes, four.abs_indecomposable_classes) == (
            34, 6, 2
        )


@pytest.mark.parametrize(
    "n, p", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 5), (4, 2)]
)
def test_closed_form_classes_match_end_enumeration(n, p):
    # every similarity class: the table's closed-form (size, e, units,
    # nilpotents) against the End enumeration of its representative
    ws = census._Workspace(JQ, JQ.dim((n,)), "none", None)
    table = census._orbit_table(ws, p, census.DEFAULT_END_BUDGET)
    reps = index_to_digits(table.reps, table.cells, p).reshape(-1, n, n)
    e, units, nilps = census._end_counts(ws, {"x": reps}, p, census.DEFAULT_END_BUDGET, len(reps))
    gl = gl_order(JQ.dim((n,)), p)
    enumerated = [(gl // u, a, u, b) for a, u, b in zip(e.tolist(), units.tolist(), nilps.tolist())]
    closed = [(s, *row) for s, row in zip(table.sizes.tolist(), table.ends.tolist())]
    assert closed == enumerated


def test_centraliser_order_not_dividing_gl_raises(monkeypatch):
    real = census._pairing
    monkeypatch.setattr(census, "_pairing", lambda lam: real(lam) + 1)
    with pytest.raises(CensusError, match="does not divide"):
        census_report(JQ, JQ.dim((2,)), 2)


def _every_point_table(ws, p, end_budget):
    """The orbit table with every point its own representative, of weight 1."""
    n = p ** ws.total_cells
    return census._OrbitTable(ws.total_cells, np.arange(n, dtype=np.int64), np.ones(n, dtype=np.int64))


# an arrow into a vertex carrying a loop: with d=(0, 2) the first arrow has
# no cells and the loop is sliced instead
A2_LOOP = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("x", "2", "2")))
# a loop and a vertex with no arrow: the loop carries every cell but not every
# dimension, so End is not the centraliser of the loop alone
LOOP_AND_POINT = Quiver(("1", "2"), (Arrow("x", "1", "1"),))

SLICED_CASES = [
    (JQ, (2,), 3, "preprojective", None),
    (A2_LOOP, (0, 2), 3, "none", None),
    (A2_LOOP, (1, 2), 2, "none", None),
    (A2, (2, 2), 3, "none", None),
    (multi_loop_quiver(2), (2,), 2, "none", None),
    (multi_loop_quiver(2), (2,), 3, "none", None),
    (JQ, (3,), 2, "none", loops_nilpotent_constraint(JQ)),
    (JQ, (3,), 2, "none", None),
    (JQ, (2,), 5, "none", None),
    (LOOP_AND_POINT, (2, 1), 3, "none", None),
]


@pytest.mark.parametrize(
    "q, dims, p, relations, s",
    SLICED_CASES,
    ids=["jordan-pp-d2-p3", "a2loop-d02-p3", "a2loop-d12-p2", "a2-d22-p3", "2loop-d2-p2", "2loop-d2-p3", "jordan-sn-d3-p2",
         "jordan-d3-p2", "jordan-d2-p5", "loop-point-d21-p3"],
)
def test_sliced_census_equals_unsliced(monkeypatch, q, dims, p, relations, s):
    sliced = census_report(q, q.dim(dims), p, relations, s)
    monkeypatch.setattr(census, "_orbit_table", _every_point_table)
    assert census_report(q, q.dim(dims), p, relations, s) == sliced


def test_orbit_table_sizes_sum_to_arrow_space():
    for q, dims, p, relations, _s in SLICED_CASES + [(PT, (2,), 3, "none", None)]:
        ws = census._Workspace(q, q.dim(dims), relations, None)
        table = census._orbit_table(ws, p, census.DEFAULT_END_BUDGET)
        assert sum(table.sizes.tolist()) == p ** table.cells
        assert not table.reps.flags.writeable and not table.sizes.flags.writeable
        assert table.ends is None or not table.ends.flags.writeable
    # the point quiver has no arrow cells: one point of weight 1
    assert table.cells == 0 and table.reps.tolist() == [0] and table.sizes.tolist() == [1]
    # the loop, not the cell-less first arrow, is sliced: 3^2 + 3 similarity classes
    table = census._orbit_table(
        census._Workspace(A2_LOOP, A2_LOOP.dim((0, 2)), "none", None), 3, census.DEFAULT_END_BUDGET
    )
    assert table.cells == 4 and len(table.reps) == 12


def test_sliced_census_deterministic_across_workers_and_chunks(monkeypatch):
    # the 2-loop census classifies through End, the Jordan one reads the table
    cases = [(multi_loop_quiver(2), (2,)), (JQ, (3,))]
    reports = [[census_report(q, q.dim(d), 3, workers=w) for w in (1, 2, 8)] for q, d in cases]
    monkeypatch.setattr(census, "_MAX_CHUNK", 7)  # representatives split across chunks
    for (q, d), runs in zip(cases, reports):
        runs += [census_report(q, q.dim(d), 3, workers=w) for w in (1, 2, 8)]
        assert all(r == runs[0] for r in runs)


@pytest.mark.parametrize("orbits", ["_similarity_orbits", "_rank_orbits"])
def test_corrupted_orbit_size_raises(monkeypatch, orbits):
    real = getattr(census, orbits)

    def corrupted(*args):
        mats, sizes, *ends = real(*args)
        return (mats, [sizes[0] + 1] + sizes[1:], *ends)

    monkeypatch.setattr(census, orbits, corrupted)
    q, d = (JQ, (2,)) if orbits == "_similarity_orbits" else (A2, (2, 1))
    with pytest.raises(CensusError, match="orbit sizes"):
        census_report(q, q.dim(d), 2)


def test_filter_that_is_not_gl_invariant_raises(monkeypatch):
    real = census._filter_mask

    def drop_one(ws, mats, p, B):
        # [[0, 1], [0, 0]] is nilpotent but not a rational canonical form
        # (that is [[0, 0], [1, 0]]), so the classified points do not change
        mask = real(ws, mats, p, B)
        hit = np.flatnonzero((mats["x"].reshape(B, 4) == [0, 1, 0, 0]).all(axis=1))
        mask[hit[:1]] = False
        return mask

    monkeypatch.setattr(census, "_filter_mask", drop_one)
    assert point_count(JQ, JQ.dim((2,)), 2) == 15
    with pytest.raises(CensusError, match="not GL-invariant"):
        census_report(JQ, JQ.dim((2,)), 2)


def _feit_fine_commuting_pairs(q, top):
    """|C_n(F_q)|, the number of commuting pairs of n x n matrices, for
    n <= top, from the Feit-Fine product
    sum_n |C_n|/|GL_n| t^n = prod_{i>=1} prod_{j>=0} (1 - q^(1-j) t^i)^(-1),
    each j-product summed exactly by the q-binomial series
    prod_{j>=0} (1 - q q^(-j) x)^(-1) = sum_k q^k x^k / prod_{i=1..k} (1 - q^(-i))."""
    series = [Fraction(1)] + [Fraction(0)] * top
    for i in range(1, top + 1):
        factor = [Fraction(0)] * (top + 1)
        term = Fraction(1)
        for k in range(top // i + 1):
            if k:
                term *= Fraction(q) / (1 - Fraction(1, q ** k))
            factor[i * k] = term
        series = [sum(series[a] * factor[n - a] for a in range(n + 1)) for n in range(top + 1)]
    return [c * gl_order(JQ.dim((n,)), q) for n, c in enumerate(series)]


@pytest.mark.parametrize("d, p, expected", [(2, 2, 88), (2, 3, 945), (2, 5, 18625), (2, 7, 134113), (3, 2, 7456)])
def test_feit_fine_commuting_pairs(d, p, expected):
    assert _feit_fine_commuting_pairs(p, d)[d] == expected
    assert point_count(JQ, JQ.dim((d,)), p, "preprojective") == expected
