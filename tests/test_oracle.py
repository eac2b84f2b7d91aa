import random

import pytest

from comodcheck import coalg as ca
from comodcheck import comod as cm
from comodcheck import oracle as orc
from comodcheck.errors import AxiomError, UnsupportedBaseError
from comodcheck.exactlin import Matrix
from comodcheck.fields import GF, QQ
from comodcheck.gen import random_coalgebra, random_comodule

from conftest import find_isomorphism, sqrt2_dual

F = QQ


@pytest.fixture
def g2():
    return ca.grouplike_coalgebra(F, ["a", "b"])


def test_to_graded_examples(g2):
    assert orc.to_graded(cm.regular_comodule(g2)).dims == (1, 1)
    assert orc.to_graded(cm.cofree_comodule(g2, 2)).dims == (2, 2)
    assert orc.to_graded(cm.zero_comodule(g2)).dims == (0, 0)


def test_to_graded_requires_grouplike():
    with pytest.raises(UnsupportedBaseError):
        orc.to_graded(cm.regular_comodule(sqrt2_dual()))


def dense_graded_dims(v):
    """Each eigenspace dimension as the kernel of the dense rho - S_x,
    S_x = I (x) x: a test-only reference for ``to_graded``."""
    f, n, m = v.field, v.base.dim, v.dim
    dims = []
    for x in range(n):
        sx = [0] * (m * n * m)
        for i in range(m):
            sx[(i * n + x) * m + i] = 1
        dims.append((v.rho - Matrix(f, m * n, m, sx)).kernel().dim)
    return dims


@pytest.mark.parametrize("field", [QQ, GF(7), GF(3)],
                         ids=["Q", "F7", "F3"])
def test_to_graded_matches_the_dense_eigenspaces(field):
    rng = random.Random(f"eigenspaces {field.char}")
    for _ in range(12):
        base = random_coalgebra(rng, field, max_labels=4)
        v = random_comodule(rng, base, max_dim=3, conjugated=True)
        assert list(orc.to_graded(v).dims) == dense_graded_dims(v)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(3)],
                         ids=["Q", "F7", "F3"])
def test_to_graded_rejects_a_planted_coaction_with_too_few_eigenvectors(
        field):
    # rho e_0 = e_0 (x) a, rho e_1 = (e_0 + e_1) (x) b is not coassociative;
    # its eigenspaces are <e_0> at a and 0 at b, which do not add up to V
    c = ca.grouplike_coalgebra(field, ["a", "b"])
    v = cm.graded_comodule(c, [1, 1])
    v._rho_cols = [{0: 1}, {1: 1, 3: 1}]
    assert dense_graded_dims(v) == [1, 0]
    with pytest.raises(AxiomError) as err:
        orc.to_graded(v)
    assert err.value.axiom == "grading"


def test_round_trip_up_to_isomorphism(g2):
    rng = random.Random(2)
    for _ in range(5):
        v = random_comodule(rng, g2, max_dim=3, conjugated=True)
        back = orc.from_graded(g2, orc.to_graded(v))
        assert find_isomorphism(v, back, rng) is not None


def test_graded_cotensor():
    gv = orc.GradedVectorSpace(("a", "b"), [1, 2])
    gw = orc.GradedVectorSpace(("a", "b"), [3, 1])
    out = orc.graded_cotensor(gv, gw)
    assert out.dims == (3, 2) and out.total == 5
    ones = orc.GradedVectorSpace(("a", "b"), [1, 1])
    assert orc.graded_cotensor(gv, ones) == gv


def test_fiber_functors():
    f = orc.SetMap(("x", "y", "z"), ("a", "b"),
                   {"x": "a", "y": "a", "z": "b"})
    assert orc.graded_sigma(
        f, orc.GradedVectorSpace(("x", "y", "z"), [1, 1, 1])).dims == (2, 1)
    assert orc.graded_forall(
        f, orc.GradedVectorSpace(("x", "y", "z"), [1, 2, 3])).dims == (3, 3)
    assert orc.graded_pullback(
        f, orc.GradedVectorSpace(("a", "b"), [2, 1])).dims == (2, 2, 1)


def test_fiber_functors_identity():
    idm = orc.SetMap(("a", "b"), ("a", "b"), {"a": "a", "b": "b"})
    g = orc.GradedVectorSpace(("a", "b"), [2, 3])
    assert orc.graded_sigma(idm, g) == g
    assert orc.graded_forall(idm, g) == g
    assert orc.graded_pullback(idm, g) == g


def test_adjunction_dimension_tables():
    # hom-dimension counting: Sigma -| pullback -| forall
    f = orc.SetMap(("x", "y", "z"), ("a", "b"),
                   {"x": "a", "y": "a", "z": "b"})
    v = orc.GradedVectorSpace(("x", "y", "z"), [1, 2, 1])
    w = orc.GradedVectorSpace(("a", "b"), [2, 1])
    assert orc.graded_hom_dim(orc.graded_sigma(f, v), w) \
        == orc.graded_hom_dim(v, orc.graded_pullback(f, w))
    assert orc.graded_hom_dim(orc.graded_pullback(f, w), v) \
        == orc.graded_hom_dim(w, orc.graded_forall(f, v))


def test_set_fiber_product():
    f = orc.SetMap(("x", "y", "z"), ("a", "b"),
                   {"x": "a", "y": "a", "z": "b"})
    idm = orc.SetMap(("a", "b"), ("a", "b"), {"a": "a", "b": "b"})
    pairs, p1, p2 = orc.set_fiber_product(f, idm)
    assert len(pairs) == 3
    c1 = orc.SetMap(("x", "y"), ("t",), {"x": "t", "y": "t"})
    c2 = orc.SetMap(("u", "v"), ("t",), {"u": "t", "v": "t"})
    pairs, _, _ = orc.set_fiber_product(c1, c2)
    assert len(pairs) == 4


def test_fiber_product_matches_coalgebra_pullback():
    g_ab = ca.grouplike_coalgebra(F, ["a", "b"])
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    g_rst = ca.grouplike_coalgebra(F, ["r", "s", "t"])
    f1 = ca.grouplike_morphism(g_xy, g_ab, {"x": "a", "y": "b"})
    f2 = ca.grouplike_morphism(g_rst, g_ab, {"r": "a", "s": "a", "t": "b"})
    pb, _, _ = ca.pullback(f1, f2)
    pairs, _, _ = orc.set_fiber_product(orc.setmap_of_morphism(f1),
                                        orc.setmap_of_morphism(f2))
    assert set(pb.labels) == set(pairs)


def test_matrix_functors_agree_with_oracle(g2):
    rng = random.Random(4)
    for _ in range(10):
        a = random_comodule(rng, g2, max_dim=3)
        b = random_comodule(rng, g2, max_dim=3)
        t, _ = cm.cotensor(a, b)
        assert orc.to_graded(t) == orc.graded_cotensor(orc.to_graded(a),
                                                       orc.to_graded(b))
        assert cm.hom_space(a, b).dim \
            == orc.graded_hom_dim(orc.to_graded(a), orc.to_graded(b))


def test_setmap_of_morphism_roundtrip(g2):
    g3 = ca.grouplike_coalgebra(F, ["x", "y", "z"])
    mapping = {"x": "a", "y": "a", "z": "b"}
    m = ca.grouplike_morphism(g3, g2, mapping)
    assert orc.setmap_of_morphism(m).mapping == mapping
