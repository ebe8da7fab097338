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
from quiverdt.quiver import (
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


def test_burnside_dual_route_jordan_d2_p2():
    # classify every single 2x2 matrix over F_2 individually and reproduce the
    # batched census class counts via Burnside sums |Aut|/|GL| (= 1/orbit size)
    gl = gl_order(JQ.dim((2,)), 2)
    iso = Fraction(0)
    indec = Fraction(0)
    absind = Fraction(0)
    for flat in itertools.product(range(2), repeat=4):
        m = np.array(flat).reshape(2, 2)
        rho = MatrixRep(JQ, 2, JQ.dim((2,)), {"x": m})
        aut = endomorphism_algebra(rho).unit_count
        c = classify(rho)
        iso += Fraction(aut, gl)
        if c.is_indecomposable():
            indec += Fraction(aut, gl)
        if c.is_absolutely_indecomposable():
            absind += Fraction(aut, gl)
    rep = census_report(JQ, JQ.dim((2,)), 2)
    assert iso == rep.iso_classes
    assert indec == rep.indecomposable_classes
    assert absind == rep.abs_indecomposable_classes


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
    with pytest.raises(CapExceeded) as ei:
        endomorphism_algebra(MatrixRep(PT, 2, PT.dim((8,)), {}))
    assert ei.value.kind == "endomorphism system columns"


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
