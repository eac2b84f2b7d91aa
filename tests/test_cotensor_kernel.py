"""The cotensor kernel read off the coseparability idempotent.

Over a base with a coseparability form, ``comod._cotensor_kernel`` returns
the image of e = (r_V (x) id)(id (x) tau rho_W), certified by r_V rho_V =
id and A B = 0.  Each test compares it with the independent reference, the
elimination ``_cotensor_matrix(v, w).kernel()``, or plants a fault that one
of the two equations must catch.  Without a form the kernel is that
elimination, certified by the same A B = 0.
"""

import random

import pytest

from comodcheck import _core_py as core
from comodcheck import coalg as ca
from comodcheck import comod as cm
from comodcheck import dsl, runner
from comodcheck import indexed as ix
from comodcheck.errors import AxiomError
from comodcheck.exactlin import Matrix
from comodcheck.fields import GF, QQ
from comodcheck.gen import (random_coalgebra, random_comodule,
                            random_invertible, random_setmap_morphism)

from conftest import count_calls, gx_coalgebra, sqrt2_dual

FIELDS = [QQ, GF(7), GF(3)]


def reference(v, w):
    return cm._cotensor_matrix(v, w).kernel()


def assert_matches_reference(v, w):
    assert cm.coseparability_retraction(v) is not None
    sub = cm._cotensor_kernel(v, w)
    ref = reference(v, w)
    assert sub.basis == ref.basis
    assert sub.pivots == ref.pivots


def graded_pairs(rng, field, count):
    """Pairs of random graded comodules over random group-like bases, in
    standard and in conjugated bases."""
    pairs = []
    for i in range(count):
        base = random_coalgebra(rng, field, max_labels=4)
        conjugated = bool(i % 2)
        pairs.append(tuple(random_comodule(rng, base, max_dim=2,
                                           conjugated=conjugated)
                           for _ in range(2)))
    return pairs


def regular_sums(rng, base):
    """The regular comodule of ``base`` and its double, each also in a
    random basis."""
    reg = cm.regular_comodule(base)
    out = [reg, cm.direct_sum(reg, reg)]
    return out + [cm.conjugate(v, random_invertible(rng, base.field, v.dim))
                  for v in out]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_graded_cotensors_match_the_reference(field):
    rng = random.Random(f"graded {field.char}")
    for v, w in graded_pairs(rng, field, 8):
        assert_matches_reference(v, w)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_regular_sums_over_non_grouplike_bases_match_the_reference(field):
    rng = random.Random(f"regular {field.char}")
    k = sqrt2_dual(field)
    for base in (k, ca.product(k, k)[0]):
        assert not base.is_grouplike()
        comods = regular_sums(rng, base)
        for v in comods[::2]:
            for w in comods[1::2]:
                assert_matches_reference(v, w)
                assert_matches_reference(w, v)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_hom_spaces_match_the_reference(field):
    rng = random.Random(f"hom {field.char}")
    regular = regular_sums(rng, sqrt2_dual(field))
    pairs = graded_pairs(rng, field, 4)
    pairs += [(v, w) for v in regular for w in regular[1:3]]
    for v, w in pairs:
        assert cm.hom_space(v, w) == reference(w, cm.dual_comodule(v))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_pullbacks_match_the_reference(field):
    rng = random.Random(f"pullback {field.char}")
    for _ in range(4):
        target = random_coalgebra(rng, field, max_labels=3)
        d1 = random_coalgebra(rng, field, max_labels=3)
        d2 = random_coalgebra(rng, field, max_labels=3)
        phi1 = random_setmap_morphism(rng, d1, target)
        phi2 = random_setmap_morphism(rng, d2, target)
        w = random_comodule(rng, target, max_dim=2, conjugated=True)
        _, sub = ix.pullback_functor(phi1, w)
        assert sub == reference(w, ix.coaction_comodule(phi1))
        apex, u, v = ca.pullback(phi1, phi2)
        ref_apex, ref_u, ref_v = ca.pullback(
            phi1, phi2, _kernel=reference(ix.coaction_comodule(phi1),
                                          ix.coaction_comodule(phi2)))
        assert apex == ref_apex
        assert (u.matrix, v.matrix) == (ref_u.matrix, ref_v.matrix)


# -- planted faults ----------------------------------------------------------------

COTENSOR_DOC = ("field Q\ncoalg C = grouplike {a, b}\n"
                "comod V over C {graded {a: 1, b: 2}}\n"
                "comod W over C {graded {a: 2, b: 1}}\n"
                "check cotensor V W\n")


def identity_idempotent(real):
    return lambda r, v, w: Matrix.identity(v.field, v.dim * w.dim)


def one_vector_too_many(real):
    # e + E_66 also spans v_2 (x) w_0 = b (x) a, whose defect A x lies in
    # rows 4 and 5 only
    def plant(r, v, w):
        e = real(r, v, w)
        data = list(e.data)
        data[6 * e.cols + 6] = 1
        return Matrix(e.field, e.rows, e.cols, data)
    return plant


@pytest.mark.parametrize("plant", [identity_idempotent, one_vector_too_many])
def test_an_idempotent_with_too_large_an_image_fails(monkeypatch, plant):
    monkeypatch.setattr(cm, "_cotensor_idempotent",
                        plant(cm._cotensor_idempotent))
    c = ca.grouplike_coalgebra(QQ, "ab")
    v, w = cm.graded_comodule(c, [1, 2]), cm.graded_comodule(c, [2, 1])
    with pytest.raises(AxiomError) as exc:
        cm._cotensor_kernel(v, w)
    assert exc.value.axiom == "coseparability"
    rep = runner.run(dsl.parse(COTENSOR_DOC))[0]
    assert rep.verdict == "fail"
    assert rep.witness["equation"].startswith("coseparability: A e != 0")


def test_a_form_that_breaks_the_retraction_fails(monkeypatch):
    # r rho = 2 id: x in ker A would no longer be fixed by e
    real = ca.coseparability_form
    monkeypatch.setattr(cm, "coseparability_form",
                        lambda c: real(c).scale(2))
    c = ca.grouplike_coalgebra(QQ, "ab")
    v, w = cm.graded_comodule(c, [1, 2]), cm.graded_comodule(c, [2, 1])
    with pytest.raises(AxiomError) as exc:
        cm._cotensor_kernel(v, w)
    assert exc.value.axiom == "coseparability"
    assert "r rho != id" in str(exc.value)
    rep = runner.run(dsl.parse(COTENSOR_DOC))[0]
    assert rep.verdict == "fail"
    assert rep.witness["equation"].startswith("coseparability: r rho != id")


N_DOC = ("field Q\n"
         "coalg N = raw dim=2 delta=[1, 0, 0, 1, 0, 1, 0, 0] eps=[1, 0]\n"
         "comod R over N {dim 2 rho=[1, 0, 0, 1, 0, 1, 0, 0]}\n"
         "check hom R R\n")


def test_a_wrong_kernel_without_a_form_fails(monkeypatch):
    # N has no coseparability form, so ker A is eliminated; a zero A
    # passes every vector as a kernel vector, and A B = 0, computed from
    # rho_V and rho_W as block maps, catches the basis it returns
    n = gx_coalgebra()
    reg = cm.regular_comodule(n)
    assert cm.coseparability_retraction(reg) is None
    assert cm._cotensor_kernel(reg, reg).dim == 2
    assert runner.run(dsl.parse(N_DOC))[0].passed
    monkeypatch.setattr(cm, "_cotensor_matrix", lambda v, w: Matrix.zeros(
        v.field, v.dim * v.base.dim * w.dim, v.dim * w.dim))
    with pytest.raises(AxiomError) as exc:
        cm._cotensor_kernel(reg, reg)
    assert exc.value.axiom == "cotensor-kernel"
    rep = runner.run(dsl.parse(N_DOC))[0]
    assert rep.verdict == "fail"
    assert rep.witness["equation"].startswith("cotensor-kernel: A e != 0")


# -- what runs -----------------------------------------------------------------------

def test_the_retraction_is_built_once_per_comodule():
    c = ca.grouplike_coalgebra(QQ, "ab")
    v = cm.graded_comodule(c, [1, 2])
    r = cm.coseparability_retraction(v)
    assert cm.coseparability_retraction(v) is r
    assert cm.is_injective(v)
    assert cm.coseparability_retraction(v) is r


def test_hyperdoctrine_two_runs_no_tall_elimination(monkeypatch):
    # every base is group-like: each kernel is one square elimination of
    # side m_V m_W, and the cotensor matrix A is never built
    matrices = count_calls(monkeypatch, cm, "_cotensor_matrix")
    sides, shapes = [], []
    real_kernel, real_bareiss = cm._cotensor_kernel, core.bareiss_echelon

    def kernel(v, w):
        sides.append(v.dim * w.dim)
        try:
            return real_kernel(v, w)
        finally:
            sides.pop()

    def bareiss(data, rows, cols):
        if sides:
            shapes.append((rows, cols, sides[-1]))
        return real_bareiss(data, rows, cols)

    monkeypatch.setattr(cm, "_cotensor_kernel", kernel)
    monkeypatch.setattr(ix, "_cotensor_kernel", kernel)
    monkeypatch.setattr(core, "bareiss_echelon", bareiss)
    doc = dsl.parse("field Q\ncoalg C = grouplike {a, b}\n"
                    "check hyperdoctrine C 2\n")
    assert [rep.verdict for rep in runner.run(doc)] == ["pass"]
    assert matrices == []
    assert shapes
    assert all(rows == cols == side for rows, cols, side in shapes)


def test_injective_over_a_base_without_a_form_builds_the_matrix(monkeypatch):
    # sum(K, N) is not cosemisimple, so it has no coseparability form
    kn = ca.direct_sum(sqrt2_dual(), gx_coalgebra())
    rho = ", ".join(map(str, kn.delta.data))
    doc = dsl.parse("field Q\n"
                    "coalg K = raw dim=2 delta=[1, 0, 0, 1, 0, 1, 2, 0] "
                    "eps=[1, 0]\n"
                    "coalg N = raw dim=2 delta=[1, 0, 0, 1, 0, 1, 0, 0] "
                    "eps=[1, 0]\n"
                    "coalg KN = sum(K, N)\n"
                    f"comod R over KN {{dim 4 rho=[{rho}]}}\n"
                    "check injective R\n")
    matrices = count_calls(monkeypatch, cm, "_cotensor_matrix")
    reps = runner.run(doc)
    assert [(rep.verdict, rep.value) for rep in reps] == [("pass", True)]
    assert len(matrices) == 1
