import random
from importlib import resources

import pytest

from comodcheck import coalg as ca
from comodcheck import comod as cm
from comodcheck import hyperdoctrine as hd
from comodcheck import indexed as ix
from comodcheck import dsl, runner
from comodcheck import oracle as orc
from comodcheck.errors import UnsupportedBaseError
from comodcheck.exactlin import Matrix
from comodcheck.fields import QQ
from comodcheck.gen import random_comodule

from test_coalg import gx_coalgebra
from test_indexed import count_calls

F = QQ


@pytest.fixture
def g_ab():
    return ca.grouplike_coalgebra(F, ["a", "b"])


# -- the comparison functor -----------------------------------------------------------

def test_u_c_of_identity_is_regular(g_ab):
    obj = hd.CoalgCObject(g_ab.identity_morphism())
    assert hd.U_C(obj) == cm.regular_comodule(g_ab)


def test_u_c_grouplike_collapse():
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    g_a = ca.grouplike_coalgebra(F, ["a"])
    phi = ca.grouplike_morphism(g_xy, g_a, {"x": "a", "y": "a"})
    u = hd.U_C(hd.CoalgCObject(phi))
    assert u.dim == 2 and orc.to_graded(u).dims == (2,)


def test_u_over_trivial_base_is_forgetful(g_ab):
    eps = ca.counit_morphism(g_ab)
    u = hd.U_C(hd.CoalgCObject(eps))
    assert u.dim == g_ab.dim
    assert u.base.dim == 1


def test_slice_objects_allow_non_cosemisimple_domain(g_ab):
    gx = gx_coalgebra()
    # gx admits a morphism to the group-likes sending g to a
    mat = Matrix.from_rows(F, [[1, 0], [0, 0]])
    phi = ca.CoalgebraMorphism(gx, g_ab, mat)
    obj = hd.CoalgCObject(phi)
    assert hd.U_C(obj).dim == 2


# -- products in the slice ---------------------------------------------------------------

def test_slice_product_with_terminal(g_ab):
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    o = hd.CoalgCObject(
        ca.grouplike_morphism(g_xy, g_ab, {"x": "a", "y": "b"}))
    prod, p1, p2 = hd.coalgC_product(
        o, hd.CoalgCObject(g_ab.identity_morphism()))
    assert p1.is_isomorphism()
    assert o.phi @ p1 == prod.phi


def test_slice_product_is_fiber_product(g_ab):
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    g_pq = ca.grouplike_coalgebra(F, ["p", "q"])
    o1 = hd.CoalgCObject(
        ca.grouplike_morphism(g_xy, g_ab, {"x": "a", "y": "b"}))
    o2 = hd.CoalgCObject(
        ca.grouplike_morphism(g_pq, g_ab, {"p": "a", "q": "a"}))
    prod, _, _ = hd.coalgC_product(o1, o2)
    assert set(prod.domain.labels) == {("x", "p"), ("x", "q")}


def test_strong_monoidality(g_ab):
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    g_pq = ca.grouplike_coalgebra(F, ["p", "q"])
    o1 = hd.CoalgCObject(
        ca.grouplike_morphism(g_xy, g_ab, {"x": "a", "y": "b"}))
    o2 = hd.CoalgCObject(
        ca.grouplike_morphism(g_pq, g_ab, {"p": "a", "q": "a"}))
    rep = hd.strong_monoidality_check(o1, o2)
    assert rep.passed
    assert rep.dims["product_side"] == rep.dims["cotensor_side"]


def test_strong_monoidality_identity_objects(g_ab):
    obj = hd.CoalgCObject(g_ab.identity_morphism())
    rep = hd.strong_monoidality_check(obj, obj)
    assert rep.passed
    assert rep.dims["product_side"] == g_ab.dim


# -- base change -------------------------------------------------------------------------

def test_l_f_identity(g_ab):
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    o = hd.CoalgCObject(
        ca.grouplike_morphism(g_xy, g_ab, {"x": "a", "y": "b"}))
    lf, _ = hd.L_f(g_ab.identity_morphism(), o)
    assert lf.domain.dim == o.domain.dim


def test_l_f_fiber_product(g_ab):
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    g_pq = ca.grouplike_coalgebra(F, ["p", "q"])
    f = ca.grouplike_morphism(g_pq, g_ab, {"p": "a", "q": "b"})
    o = hd.CoalgCObject(
        ca.grouplike_morphism(g_xy, g_ab, {"x": "a", "y": "a"}))
    lf, x_tilde = hd.L_f(f, o)
    assert set(lf.domain.labels) == {("x", "p"), ("y", "p")}


def test_l_f_preserves_terminal(g_ab):
    g_pq = ca.grouplike_coalgebra(F, ["p", "q"])
    f = ca.grouplike_morphism(g_pq, g_ab, {"p": "a", "q": "b"})
    lt, _ = hd.L_f(f, hd.CoalgCObject(g_ab.identity_morphism()))
    assert lt.phi.is_isomorphism()


def test_lnl_morphism_check(g_ab):
    g_pq = ca.grouplike_coalgebra(F, ["p", "q"])
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    f = ca.grouplike_morphism(g_pq, g_ab, {"p": "a", "q": "b"})
    o = hd.CoalgCObject(
        ca.grouplike_morphism(g_xy, g_ab, {"x": "a", "y": "b"}))
    rep = hd.lnl_morphism_check(f, o)
    assert rep.passed
    assert "KU=U'L" in rep.details and "binary-products" in rep.details


def test_lnl_identity_base_change(g_ab):
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    o = hd.CoalgCObject(
        ca.grouplike_morphism(g_xy, g_ab, {"x": "a", "y": "a"}))
    rep = hd.lnl_morphism_check(g_ab.identity_morphism(), o)
    assert rep.passed


def test_lnl_check_builds_each_pullback_once(monkeypatch):
    # L_f of obj, of the terminal object and of obj x obj, the slice
    # products obj x obj and L_f obj x L_f obj, and the product in the
    # strong-monoidality check
    doc = dsl.parse((resources.files("comodcheck") / "corpus"
                     / "11_lnl.cd").read_text())
    calls = [count_calls(monkeypatch, module, name) for module, name in
             ((ca, "pullback"), (ix, "coalg_pullback"),
              (hd, "coalg_pullback"))]
    assert all(rep.passed for rep in runner.run(doc))
    assert sum(map(len, calls)) == 6


def test_lnl_requires_cosemisimple():
    gx = gx_coalgebra()
    obj = hd.CoalgCObject(gx.identity_morphism())
    with pytest.raises(UnsupportedBaseError):
        hd.lnl_morphism_check(gx.identity_morphism(), obj)


# -- base powers ---------------------------------------------------------------------------

def test_base_power_zero_is_trivial(g_ab):
    bp = hd.base_power(g_ab, 0)
    assert bp.coalgebra.dim == 1


def test_base_power_one_is_the_base(g_ab):
    bp = hd.base_power(g_ab, 1)
    assert bp.coalgebra.dim == g_ab.dim
    assert bp.coalgebra.delta == g_ab.delta


def test_base_power_two_grouplike_on_pairs(g_ab):
    bp = hd.base_power(g_ab, 2)
    assert bp.coalgebra.dim == 4 and bp.coalgebra.is_grouplike()


def test_base_power_needs_cosemisimple():
    with pytest.raises(UnsupportedBaseError):
        hd.base_power(gx_coalgebra(), 1)


def test_power_morphisms(g_ab):
    bp1 = hd.base_power(g_ab, 1)
    bp2 = hd.base_power(g_ab, 2)
    diag = hd.power_morphism(bp1, bp2, (0, 0))
    pr0 = hd.power_morphism(bp2, bp1, (0,))
    swap = hd.power_morphism(bp2, bp2, (1, 0))
    assert (pr0 @ diag).matrix == Matrix.identity(F, 2)
    assert (swap @ swap).matrix == Matrix.identity(F, 4)
    terminal = hd.power_morphism(bp2, hd.base_power(g_ab, 0), ())
    assert terminal.target.dim == 1


# -- quantifiers along projections ------------------------------------------------------------

def test_exists_and_forall_along_projection(g_ab):
    bp1 = hd.base_power(g_ab, 1)
    prod_ic, _, _ = ca.product(bp1.coalgebra, g_ab)
    v = cm.graded_comodule(prod_ic, [1, 2, 0, 1])
    assert orc.to_graded(hd.exists_along_projection(bp1, v)).dims == (3, 1)
    assert orc.to_graded(hd.forall_along_projection(bp1, v)).dims == (3, 1)


def test_exists_collapses_over_point(g_ab):
    bp0 = hd.base_power(g_ab, 0)
    prod_ic, _, _ = ca.product(bp0.coalgebra, g_ab)
    v = cm.graded_comodule(prod_ic, [2, 1])
    assert hd.exists_along_projection(bp0, v).dim == 3


def test_quantifier_triple_adjunction(g_ab):
    rng = random.Random(3)
    for k in range(2):
        bp = hd.base_power(g_ab, k)
        prod_ic, p_i, _ = ca.product(bp.coalgebra, g_ab)
        v = random_comodule(rng, prod_ic, max_dim=2, max_total=6)
        w = random_comodule(rng, bp.coalgebra, max_dim=2, max_total=4)
        assert ix.sigma_triangle_identities(p_i, v, w)
        assert ix.forall_triangle_identities(p_i, v, w)


def test_exists_matches_frobenius_shape(g_ab):
    # Sigma after pullback has the size predicted by Frobenius with W = unit
    bp1 = hd.base_power(g_ab, 1)
    prod_ic, p_i, _ = ca.product(bp1.coalgebra, g_ab)
    w = cm.graded_comodule(bp1.coalgebra, [1, 1])
    pw, _ = ix.pullback_functor(p_i, w)
    v = cm.graded_comodule(prod_ic, [1, 1, 1, 1])
    inner, _ = cm.cotensor(v, pw)
    lhs = ix.sigma(p_i, inner)
    rep = ix.frobenius_check(p_i, v, w)
    assert rep.passed
    assert lhs.dim == rep.dims["sigma_of_cotensor"]


# -- hyperdoctrine conditions -------------------------------------------------------------------

def test_condition2_identity(g_ab):
    bp1 = hd.base_power(g_ab, 1)
    ident = hd.power_morphism(bp1, bp1, (0,))
    prod_ic = ca.product(bp1.coalgebra, g_ab)[0]
    v = cm.graded_comodule(prod_ic, [1, 0, 2, 1])
    rep = hd.hyperdoctrine_condition2_check(ident, bp1, bp1, v)
    assert rep.passed


def test_condition2_projection_from_square(g_ab):
    bp1 = hd.base_power(g_ab, 1)
    bp2 = hd.base_power(g_ab, 2)
    pr = hd.power_morphism(bp2, bp1, (0,))
    prod_ic = ca.product(bp1.coalgebra, g_ab)[0]
    rng = random.Random(9)
    v = random_comodule(rng, prod_ic, max_dim=2, max_total=6)
    rep = hd.hyperdoctrine_condition2_check(pr, bp2, bp1, v)
    assert rep.passed
    assert "forall-square" in rep.details and "exists-square" in rep.details


def test_condition2_diagonal(g_ab):
    bp1 = hd.base_power(g_ab, 1)
    bp2 = hd.base_power(g_ab, 2)
    diag = hd.power_morphism(bp1, bp2, (0, 0))
    prod_ic = ca.product(bp2.coalgebra, g_ab)[0]
    rng = random.Random(10)
    v = random_comodule(rng, prod_ic, max_dim=1)
    rep = hd.hyperdoctrine_condition2_check(diag, bp1, bp2, v)
    assert rep.passed


def test_condition3_symmetry(g_ab):
    bp1 = hd.base_power(g_ab, 1)
    prod_ci = ca.product(g_ab, bp1.coalgebra)[0]
    v = cm.graded_comodule(prod_ci, [1, 1, 0, 2])
    rep = hd.condition3_symmetry_check(bp1, v)
    assert rep.passed


def test_everything_degenerates_over_trivial_base():
    # with C = k every power is k and all structure is plain linear algebra
    k = ca.trivial_coalgebra(F)
    bp = hd.base_power(k, 2)
    assert bp.coalgebra.dim == 1
    prod_ic, p_i, _ = ca.product(bp.coalgebra, k)
    v = cm.graded_comodule(prod_ic, [3])
    w = cm.graded_comodule(bp.coalgebra, [2])
    assert ix.sigma_triangle_identities(p_i, v, w)
    assert ix.forall_triangle_identities(p_i, v, w)
    ident = hd.power_morphism(bp, bp, (0, 1))
    rep = hd.hyperdoctrine_condition2_check(ident, bp, bp, v)
    assert rep.passed


# -- one tower per hyperdoctrine check ------------------------------------------------------------

HYPERDOCTRINE_C1 = ("field Q\ncoalg C = grouplike {a, b}\n"
                    "check hyperdoctrine C 1\n")


def run_hyperdoctrine_c1():
    reports = runner.run(dsl.parse(HYPERDOCTRINE_C1), seed=0)
    assert [rep.verdict for rep in reports] == ["pass"]
    return reports[0]


def test_hyperdoctrine_decides_each_projection_coflat_once(monkeypatch):
    # one splitting solve for U(p_I) at each of the powers 0 and 1
    calls = count_calls(monkeypatch, cm, "is_injective")
    run_hyperdoctrine_c1()
    assert len(calls) == 2


def test_hyperdoctrine_builds_each_product_once(monkeypatch):
    # I x C and C x I at the powers 0 and 1, and the product inside the
    # canonical pullback of each of the 3 condition-2 squares
    calls = [count_calls(monkeypatch, ca, "product"),
             count_calls(monkeypatch, hd, "coalg_product")]
    run_hyperdoctrine_c1()
    assert sum(map(len, calls)) == 7


def test_condition2_pulls_v_back_once_per_square(monkeypatch):
    squares = []
    real_square = hd.PullbackSquare

    def square(*args, **kwargs):
        squares.append(real_square(*args, **kwargs))
        return squares[-1]

    monkeypatch.setattr(hd, "PullbackSquare", square)
    calls = [count_calls(monkeypatch, ix, "pullback_functor"),
             count_calls(monkeypatch, hd, "pullback_functor")]
    rep = run_hyperdoctrine_c1()
    assert len(squares) == rep.dims["condition2_squares"] == 3
    for sq in squares:
        along = [args for args in calls[0] + calls[1] if args[0] is sq.delta]
        assert len(along) == 1
