import random
import sys
from fractions import Fraction
from importlib import resources

import pytest

from comodcheck import coalg as ca
from comodcheck._backend import core
from comodcheck import comod as cm
from comodcheck import dsl, indexed, runner
from comodcheck import hyperdoctrine as hd
from comodcheck import oracle as orc
from comodcheck.errors import AxiomError, BaseMismatchError
from comodcheck.exactlin import Matrix, Subspace
from comodcheck.fields import GF, QQ
from comodcheck.gen import random_comodule, random_invertible

from conftest import (chart_embedding, column_dicts, columns, count_calls,
                      find_isomorphism, gx_coalgebra, hom_morphisms,
                      intertwines, inverse, kron, matmul, retraction_splits,
                      sqrt2_dual)

F = QQ


@pytest.fixture
def g2():
    return ca.grouplike_coalgebra(F, ["a", "b"])


@pytest.fixture
def g3():
    return ca.grouplike_coalgebra(F, ["a", "b", "c"])


# -- constructors -----------------------------------------------------------------

def test_regular_comodule_over_trivial_base():
    k = ca.trivial_coalgebra(F)
    reg = cm.regular_comodule(k)
    assert reg.rho == Matrix.identity(F, 1)


def test_regular_comodule_grouplike(g2):
    reg = cm.regular_comodule(g2)
    assert reg.rho == g2.delta
    assert orc.to_graded(reg).dims == (1, 1)


def test_cofree_comodule(g2):
    assert cm.cofree_comodule(g2, 0).dim == 0
    assert cm.cofree_comodule(g2, 1).rho == cm.regular_comodule(g2).rho
    assert orc.to_graded(cm.cofree_comodule(g2, 2)).dims == (2, 2)


def test_comodule_axioms_rejected(g2):
    with pytest.raises(AxiomError) as err:
        cm.Comodule(g2, 2, [{}, {}])
    assert err.value.axiom == "comodule-counit"


def test_comodule_coassociativity_rejected():
    gx = gx_coalgebra()
    # rho(e) = e x g + e x x keeps the counit, but (rho x id) rho has
    # e x x x x and (id x delta) rho has not
    with pytest.raises(AxiomError) as err:
        cm.Comodule(gx, 1, columns(F, [[1], [1]]))
    assert err.value.axiom == "comodule-coassociativity"
    # rho(e) = e x x breaks both laws; the counit is checked first
    with pytest.raises(AxiomError) as err:
        cm.Comodule(gx, 1, columns(F, [[0], [1]]))
    assert err.value.axiom == "comodule-counit"


@pytest.mark.parametrize("field", [QQ, GF(7), GF(3)], ids=repr)
def test_comodule_constructors_name_the_one_broken_law(field):
    gx = gx_coalgebra(field)
    with pytest.raises(AxiomError) as err:
        cm.Comodule(gx, 1, columns(field, [[1], [1]]))
    assert err.value.axiom == "comodule-coassociativity"
    c = ca.grouplike_coalgebra(field, "ab")
    # rho = 0 is coassociative and drops the counit
    with pytest.raises(AxiomError) as err:
        cm.Comodule(c, 1, [{}])
    assert err.value.axiom == "comodule-counit"
    # a nonzero map from the a-component onto the b-component
    va, vb = cm.graded_comodule(c, [1, 0]), cm.graded_comodule(c, [0, 1])
    with pytest.raises(AxiomError) as err:
        cm.ComoduleMorphism(va, vb, columns(field, [[2]]))
    assert err.value.axiom == "comodule-morphism"


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_axioms_accepted_in_a_changed_basis(field):
    # over F_7 the axiom sums run past 7 and must be reduced to compare
    g = ca.grouplike_coalgebra(field, ["a", "b"])
    p = Matrix.from_rows(field, [[1, 3], [2, 1]])
    p_inv = inverse(p)
    moved = ca.Coalgebra(field, 2,
                         column_dicts(matmul(kron(p_inv, p_inv), g.delta, p)),
                         column_dicts(matmul(g.epsilon, p)))
    assert ca.CoalgebraMorphism(moved, g, column_dicts(p)).matrix == p
    assert cm.regular_comodule(moved).rho == moved.delta
    assert cm.conjugate(cm.regular_comodule(g),
                        column_dicts(p_inv)).dim == 2


# -- hom spaces -------------------------------------------------------------------

def test_hom_contains_identity(g2):
    v = cm.graded_comodule(g2, [1, 2])
    ident = Matrix(F, v.dim * v.dim, 1,
                   Matrix.identity(F, v.dim).data)
    assert cm.hom_space(v, v).coords(column_dicts(ident)) is not None


def test_hom_regular_dimension_two(g2):
    reg = cm.regular_comodule(g2)
    assert cm.hom_space(reg, reg).dim == 2


def test_hom_over_trivial_base_all_maps():
    k = ca.trivial_coalgebra(F)
    v = cm.graded_comodule(k, [2])
    w = cm.graded_comodule(k, [3])
    assert cm.hom_space(v, w).dim == 6


def hom_reference_pairs(field):
    """(V, W) pairs over group-like and non-group-like bases: conjugated
    graded comodules, and conjugated sums of regular comodules over K, N,
    K + N and K x K, with N's non-injective simple comodule."""
    rng = random.Random(field.char)
    g = ca.product(ca.grouplike_coalgebra(field, "ab"),
                   ca.grouplike_coalgebra(field, "xyz"))[0]
    mods = [random_comodule(rng, g, max_dim=2, max_total=5, conjugated=True)
            for _ in range(3)]
    pairs = [(v, w) for v in mods for w in mods]
    k, n = sqrt2_dual(field), gx_coalgebra(field)
    for c, copies in ((k, 2), (n, 2), (ca.direct_sum(k, n), 2),
                      (ca.product(k, k)[0], 1)):
        mods = regular_sums(rng, c, 2, copies)
        pairs += [(v, w) for v in mods for w in mods]
    one = cm.Comodule(n, 1, columns(field, [[1], [0]]))
    reg = cm.regular_comodule(n)
    return pairs + [(one, reg), (reg, one), (cm.direct_sum(one, reg), one)]


def intertwiner_equations(v, w):
    """(f x id) rho_V - rho_W f = 0 entry by entry: one row per (a, c, j),
    in the unknowns f[a, i] at index a * dim V + i."""
    n, mv, mw = v.base.dim, v.dim, w.dim
    rows = []
    for a in range(mw):
        for c in range(n):
            for j in range(mv):
                row = [0] * (mw * mv)
                for i in range(mv):
                    row[a * mv + i] += v.rho[i * n + c, j]
                for b in range(mw):
                    row[b * mv + j] -= w.rho[a * n + c, b]
                rows.append(row)
    return rows


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_hom_space_matches_sympy(field):
    pytest.importorskip("sympy")
    from sympy.polys.domains import GF as SymGF, QQ as SymQQ
    from sympy.polys.matrices import DomainMatrix

    p = field.char
    dom = SymGF(p) if p else SymQQ

    def to_sympy(rows, ncols):
        entries = [[dom(x) if p else dom(Fraction(x).numerator,
                                         Fraction(x).denominator)
                    for x in row] for row in rows]
        return DomainMatrix(entries, (len(rows), ncols), dom)

    for v, w in hom_reference_pairs(field):
        unknowns = v.dim * w.dim
        eqs = to_sympy(intertwiner_equations(v, w), unknowns)
        basis = hom_morphisms(v, w)
        assert len(basis) == unknowns - eqs.rank()
        if basis:
            vecs = to_sympy([m.matrix.data for m in basis], unknowns)
            assert vecs.rank() == len(basis)
            assert (eqs * vecs.transpose()).is_zero_matrix


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_dual_comodule_is_an_involution(field):
    for v, _ in hom_reference_pairs(field):
        assert cm.dual_comodule(cm.dual_comodule(v)) == v


def test_planted_non_morphism_is_outside_the_hom_span():
    rng = random.Random(4)
    k = sqrt2_dual()
    v, w = regular_sums(rng, k, 2, 2)
    span = cm.hom_space(v, w)
    first = Matrix(F, w.dim, v.dim, span.basis.data[0::span.dim])
    # a basis map plus a rank-one elementary matrix: the image of a
    # comodule map is a subcomodule, and K has no group-likes, hence no
    # one-dimensional comodule, so the elementary matrix is no morphism
    planted = first + Matrix(F, w.dim, v.dim,
                             [1] + [0] * (w.dim * v.dim - 1))
    with pytest.raises(AxiomError):
        cm.ComoduleMorphism(v, w, column_dicts(planted))
    assert span.coords(column_dicts(
        Matrix(F, w.dim * v.dim, 1, planted.data))) is None
    assert span.coords(column_dicts(
        Matrix(F, w.dim * v.dim, 1, first.data))) is not None


def test_hom_space_constructs_no_morphism(monkeypatch):
    # A B = 0 in the kernel is the intertwining equation of every basis
    # map, so hom_space checks no map again
    inits = count_calls(monkeypatch, cm.ComoduleMorphism, "__init__")
    dims = [cm.hom_space(v, w).dim for v, w in hom_reference_pairs(QQ)]
    assert any(dims)
    assert inits == []


# -- cotensor ---------------------------------------------------------------------

def test_cotensor_over_trivial_base_multiplies_dims():
    k = ca.trivial_coalgebra(F)
    v = cm.graded_comodule(k, [2])
    w = cm.graded_comodule(k, [3])
    t, e = cm.cotensor(v, w)
    assert t.dim == 6


def test_cotensor_graded_dims(g2):
    v = cm.graded_comodule(g2, [1, 2])
    w = cm.graded_comodule(g2, [3, 1])
    t, e = cm.cotensor(v, w)
    assert t.dim == 5
    assert orc.to_graded(t).dims == (3, 2)


def test_cotensor_base_mismatch(g2, g3):
    v = cm.graded_comodule(g2, [1, 0])
    w = cm.graded_comodule(g3, [1, 0, 0])
    with pytest.raises(Exception):
        cm.cotensor(v, w)


def test_cotensor_with_regular_is_identity(g2):
    # X (x)_C C ~ X through the explicit unitor, for random comodules
    rng = random.Random(0)
    for _ in range(5):
        v = random_comodule(rng, g2, max_dim=3, conjugated=True)
        fwd, back = cm.right_unitor(v)
        assert (fwd @ back).matrix == Matrix.identity(F, v.dim)
        assert (back @ fwd).matrix == Matrix.identity(F, fwd.source.dim)


def test_a_subspace_that_is_no_subcomodule_fails_the_restriction(
        monkeypatch, g2):
    # the line through e_0 + e_1 of graded {a: 1, b: 1} is no subcomodule:
    # rho(e_0 + e_1) = e_0 (x) a + e_1 (x) b leaves it (x) C
    v = cm.graded_comodule(g2, [1, 1])
    line = Subspace(F, 2, column_dicts(Matrix(F, 2, 1, [1, 1])))
    with pytest.raises(AxiomError) as exc:
        cm._restricted_coaction(g2, v._rho_cols, line, "planted-coaction")
    assert exc.value.axiom == "planted-coaction"
    # the same line planted as the kernel of U (x)_C V inside U (x) V = V,
    # for U = graded {a: 1, b: 0}
    unit = cm.graded_comodule(g2, [1, 0])
    monkeypatch.setattr(cm, "_cotensor_kernel", lambda a, b: line)
    with pytest.raises(AxiomError) as exc:
        cm.cotensor(unit, v)
    assert exc.value.axiom == "cotensor-coaction"


def test_check_cotensor_runs_no_axiom_check_in_restricted_coaction(
        monkeypatch):
    # the restriction equation implies both comodule axioms, so no
    # restricted coaction goes through the Comodule constructor
    inits = count_calls(monkeypatch, cm.Comodule, "__init__")
    inside = []
    real = cm._restricted_coaction

    def restricted(*args):
        before = len(inits)
        out = real(*args)
        inside.append(len(inits) - before)
        return out

    monkeypatch.setattr(cm, "_restricted_coaction", restricted)
    doc = dsl.parse((resources.files("comodcheck") / "corpus"
                     / "04_cotensor.cd").read_text())
    reps = runner.run(doc)
    assert reps and all(rep.passed for rep in reps)
    assert inside and not any(inside)
    assert inits


def test_unitors_on_regular_agree(g2):
    reg = cm.regular_comodule(g2)
    r, _ = cm.right_unitor(reg)
    l, _ = cm.left_unitor(reg)
    assert r.source.dim == l.source.dim == reg.dim


# -- structural isomorphisms ---------------------------------------------------------

def test_braiding_involution(g2):
    v = cm.graded_comodule(g2, [1, 2])
    w = cm.graded_comodule(g2, [2, 1])
    s1, src, _ = cm.braiding(cm.atom(v), cm.atom(w))
    s2, _, _ = cm.braiding(cm.atom(w), cm.atom(v))
    assert matmul(s2.matrix, s1.matrix) == Matrix.identity(F,
                                                           src.module.dim)


def test_structural_isos_are_isomorphisms(g2):
    v = cm.graded_comodule(g2, [1, 2])
    w = cm.graded_comodule(g2, [2, 1])
    x = cm.graded_comodule(g2, [1, 1])
    isos, _ = cm.coherence(v, w, x, v)
    for name in ("associator", "left_unitor", "right_unitor", "braiding"):
        assert isos[name].is_isomorphism()


def test_pentagon_triangle_symmetry(g3):
    u = cm.graded_comodule(g3, [1, 1, 0])
    v = cm.graded_comodule(g3, [2, 0, 1])
    w = cm.graded_comodule(g3, [1, 2, 1])
    isos, failing = cm.coherence(u, v, w, u)
    assert failing is None
    assert isos["braiding"].source == cm.cotensor(u, v)[0]


@pytest.mark.parametrize("args", [
    lambda u, v, w, x: (u, v, w, u),
    lambda u, v, w, x: (u, v, w, x),
    lambda u, v, w, x: (u, v, u, v),
], ids=["structural_isos", "pentagon_holds", "symmetry_holds"])
def test_coherence_checks_build_each_cotensor_once(monkeypatch, g3, args):
    # one cotensor per distinct (left, right) pair, shared by every map on
    # that presentation, also when an argument repeats: the structural
    # isomorphisms on (u, v, w), the pentagon on four distinct objects and
    # the braiding diagrams on (u, v, u)
    u = cm.graded_comodule(g3, [1, 1, 0])
    v = cm.graded_comodule(g3, [2, 0, 1])
    w = cm.graded_comodule(g3, [1, 2, 1])
    x = cm.graded_comodule(g3, [0, 1, 2])
    calls = count_calls(monkeypatch, cm, "cotensor")
    isos, failing = cm.coherence(*args(u, v, w, x))
    assert failing is None
    assert all(isos[name].is_isomorphism()
               for name in ("associator", "left_unitor", "right_unitor",
                            "braiding"))
    assert not value_equal_pairs(calls)


def value_equal_pairs(calls):
    """The pairs of ``cotensor`` calls on (left, right) modules equal by
    value (``Comodule.__eq__``: base, dim and coaction dicts)."""
    return [(i, j) for j, (c, d) in enumerate(calls)
            for i, (a, b) in enumerate(calls[:j]) if a == c and b == d]


def corpus_doc(name):
    return dsl.parse((resources.files("comodcheck") / "corpus"
                      / name).read_text())


def test_cotensor_document_builds_each_pair_once(monkeypatch):
    # two checks of 13 pairs of module values each: V (x) W and 12 more for
    # the diagrams on (V, W, W, V) and the unit C, shared by the 19 pairs
    # of presentations of each check
    calls = count_calls(monkeypatch, cm, "cotensor")
    assert [rep.verdict for rep in runner.run(corpus_doc("04_cotensor.cd"),
                                              seed=0)] == ["pass"] * 2
    assert len(calls) == 26
    assert not value_equal_pairs(calls)


def test_value_equal_arguments_share_their_cotensors(monkeypatch, g2):
    # w2 and v2 are new objects equal by value to w and v, their coaction
    # dicts built in reverse insertion order: coherence builds the same
    # cotensors for (v, w, w2, v2) as for (v, w, w, v), and the same maps
    rng = random.Random(4)
    v, w = (random_comodule(rng, g2, max_dim=2, conjugated=True)
            for _ in range(2))
    w2, v2 = (cm.Comodule(g2, m.dim, [{k: col[k] for k in reversed(col)}
                                      for col in m._rho_cols])
              for m in (w, v))
    assert w2 is not w and w2 == w and v2 is not v and v2 == v
    calls = count_calls(monkeypatch, cm, "cotensor")
    isos, failing = cm.coherence(v, w, w, v)
    count = len(calls)
    isos2, failing2 = cm.coherence(v, w, w2, v2)
    assert failing is None and failing2 is None
    assert len(calls) - count == count
    assert not value_equal_pairs(calls[count:])
    assert sorted(isos2) == sorted(isos)
    assert all(isos2[name].columns == isos[name].columns
               and isos2[name] == isos[name] for name in isos)


def test_value_equal_modules_over_another_base_share_no_cotensor(
        monkeypatch):
    # graded {a: 1, b: 2} over Q and over F_5 store equal coaction dicts;
    # the value table keys the base object too, so the pentagon's first
    # new pair W (x) X_5 is not read off the earlier W (x) X_Q: cotensor
    # is called on it and refuses the mixed bases
    w = cm.graded_comodule(ca.grouplike_coalgebra(F, "ab"), [2, 1])
    xq, x5 = (cm.graded_comodule(ca.grouplike_coalgebra(f, "ab"), [1, 2])
              for f in (F, GF(5)))
    assert xq._rho_cols == x5._rho_cols
    calls = count_calls(monkeypatch, cm, "cotensor")
    with pytest.raises(BaseMismatchError):
        cm.coherence(w, xq, w, x5)
    assert calls[-1][0] is w and calls[-1][1] is x5


IMPLIED_SITES = {"identity_morphism", "_structure_map", "_transposition",
                 "tensor_morphism", "_left_unitor", "_right_unitor"}


def test_every_implied_morphism_intertwines(monkeypatch, g3):
    # ComoduleMorphism._implied skips (f x id) rho_V = rho_W f, which the
    # certificates at its six call sites imply; the dense reference
    # checks it on every morphism those sites build
    built = []
    real = cm.ComoduleMorphism._implied.__func__

    def spy(cls, source, target, columns):
        mor = real(cls, source, target, columns)
        built.append((sys._getframe(1).f_code.co_name, mor))
        return mor

    monkeypatch.setattr(cm.ComoduleMorphism, "_implied", classmethod(spy))
    for name in ("04_cotensor.cd", "13_prime_field.cd"):
        reps = runner.run(corpus_doc(name), seed=0)
        assert reps and all(rep.passed for rep in reps)
    # the g3 triples of test_pentagon_triangle_symmetry
    u, v, w = (cm.graded_comodule(g3, dims)
               for dims in ([1, 1, 0], [2, 0, 1], [1, 2, 1]))
    assert cm.coherence(u, v, w, u)[1] is None
    # F_5, with coactions in a basis that scrambles the grading
    rng = random.Random(5)
    g = ca.grouplike_coalgebra(GF(5), "ab")
    v, w = (random_comodule(rng, g, max_dim=2, conjugated=True)
            for _ in range(2))
    assert cm.coherence(v, w, w, v)[1] is None
    # the (3, 3)/(3, 1) and (2, 1, 1)/(1, 2, 1) rungs of the coherence
    # workload
    for c, vd, wd in ((ca.grouplike_coalgebra(F, "ab"), [3, 3], [3, 1]),
                      (g3, [2, 1, 1], [1, 2, 1])):
        v, w = cm.graded_comodule(c, vd), cm.graded_comodule(c, wd)
        assert cm.coherence(v, w, w, v)[1] is None
    assert {site for site, _ in built} == IMPLIED_SITES
    assert all(intertwines(mor) for _, mor in built)


def test_coherence_checks_intertwining_only_for_the_unitors(monkeypatch):
    # every structure map's intertwining is implied; only the unitors'
    # forward maps, the morphisms the unitor inverses invert, check it:
    # lambda and rho on u, and lambda on v for the triangle
    callers = []
    real = cm.ComoduleMorphism.__init__

    def spy(self, *args):
        callers.append(sys._getframe(1).f_code.co_name)
        real(self, *args)

    monkeypatch.setattr(cm.ComoduleMorphism, "__init__", spy)
    reps = runner.run(corpus_doc("04_cotensor.cd"), seed=0)
    assert [rep.verdict for rep in reps] == ["pass"] * 2
    assert callers == ["_left_unitor", "_right_unitor", "_left_unitor"] * 2


@pytest.mark.parametrize("failing, name", [
    ("pentagon", "_structure_map"), ("triangle", "_left_unitor"),
    ("symmetry", "_transposition")])
def test_coherence_names_the_failing_diagram(monkeypatch, g2, failing,
                                             name):
    # a structure map scaled by 2 is still an invertible comodule morphism,
    # but the first diagram it enters no longer commutes
    real = getattr(cm, name)

    def planted(*args):
        out = real(*args)
        mor = out[0] if isinstance(out, tuple) else out
        mor = cm.ComoduleMorphism(mor.source, mor.target,
                                  column_dicts(mor.matrix.scale(2)))
        return (mor, out[1]) if isinstance(out, tuple) else mor

    monkeypatch.setattr(cm, name, planted)
    v = cm.graded_comodule(g2, [1, 2])
    w = cm.graded_comodule(g2, [2, 1])
    assert cm.coherence(v, w, w, v)[1] == failing


UNITOR_DOC = ("field Q\ncoalg C = grouplike {a, b}\n"
              "comod V over C {graded {a: 1, b: 2}}\n"
              "comod W over C {graded {a: 2, b: 1}}\n"
              "check cotensor V W\n")


@pytest.mark.parametrize("name, axiom", [("_left_unitor", "left-unitor"),
                                         ("_right_unitor", "right-unitor")])
def test_a_unitor_with_a_broken_inverse_pair_fails(monkeypatch, g2, name,
                                                   axiom):
    # coherence eliminates no unitor: the exact inverse pair fwd back = id,
    # back fwd = id proves it invertible.  A zero forward map still
    # intertwines the coactions, so only that pair catches it.  The unitor
    # applies its counit factor to the cotensor basis itself: the plant
    # zeroes that one sparse product
    real = cm._kron_cols

    def planted(a, b, rb, x):
        out = real(a, b, rb, x)
        if sys._getframe(1).f_code.co_name == name:
            return [{} for _ in out]
        return out

    monkeypatch.setattr(cm, "_kron_cols", planted)
    v = cm.graded_comodule(g2, [1, 2])
    w = cm.graded_comodule(g2, [2, 1])
    with pytest.raises(AxiomError) as exc:
        cm.coherence(v, w, w, v)
    assert exc.value.axiom == axiom
    rep = runner.run(dsl.parse(UNITOR_DOC))[0]
    assert rep.verdict == "fail"
    assert rep.witness["equation"].startswith(f"{axiom}: ")


def test_coherence_eliminates_only_the_associator_and_braiding(
        monkeypatch, g2):
    calls = count_calls(monkeypatch, cm.ComoduleMorphism, "is_isomorphism")
    v = cm.graded_comodule(g2, [1, 2])
    w = cm.graded_comodule(g2, [2, 1])
    isos, failing = cm.coherence(v, w, w, v)
    assert failing is None
    assert [mor for mor, in calls] == [isos["associator"], isos["braiding"]]


def test_coherence_over_fp():
    p = GF(5)
    g = ca.grouplike_coalgebra(p, ["a", "b"])
    v = cm.graded_comodule(g, [1, 2])
    assert cm.coherence(v, v, v, v)[1] is None


# -- internal hom ----------------------------------------------------------------------

def test_internal_hom_over_trivial_base():
    k = ca.trivial_coalgebra(F)
    v = cm.graded_comodule(k, [2])
    w = cm.graded_comodule(k, [3])
    ih, sub = cm.internal_hom(v, w)
    assert ih.dim == 6 and sub.ambient == 6


def test_internal_hom_graded_dims(g2):
    v = cm.graded_comodule(g2, [1, 2])
    w = cm.graded_comodule(g2, [2, 1])
    ih, _ = cm.internal_hom(v, w)
    assert orc.to_graded(ih).dims == (2, 2) and ih.dim == 4


def _sqrt2_comodule(rng, k, copies):
    """copies of K, the one simple comodule over K, in a random basis."""
    v = cm.zero_comodule(k)
    for _ in range(copies):
        v = cm.direct_sum(v, cm.regular_comodule(k))
    return cm.conjugate(v, random_invertible(rng, F, v.dim)) if v.dim else v


def test_internal_hom_adjunction_dimensions(g2):
    # |Hom(Z (x)_C V, W)| = |Hom(Z, [V, W])| over a group-like base and
    # over K, where both are Hom over Q(sqrt 2)
    rng = random.Random(3)
    k = sqrt2_dual()
    draws = [lambda: random_comodule(rng, g2, max_dim=2),
             lambda: _sqrt2_comodule(rng, k, rng.randint(0, 2))]
    for draw in draws:
        for _ in range(5):
            z, v, w = draw(), draw(), draw()
            zv, _ = cm.cotensor(z, v)
            lhs = cm.hom_space(zv, w).dim
            rhs = cm.hom_space(z, cm.internal_hom(v, w)[0]).dim
            assert lhs == rhs


def test_internal_hom_adjunction_on_regular(g2):
    reg = cm.regular_comodule(g2)
    zv, _ = cm.cotensor(reg, reg)
    assert cm.hom_space(zv, reg).dim \
        == cm.hom_space(reg, cm.internal_hom(reg, reg)[0]).dim


def test_internal_hom_over_sqrt2():
    # over K the internal hom is Hom over Q(sqrt 2): [K, K] = K has
    # dimension 2, and so has Hom(K, [K, K]) = Q(sqrt 2)
    k = sqrt2_dual()
    reg = cm.regular_comodule(k)
    ih, _ = cm.internal_hom(reg, reg)
    assert ih.dim == 2
    assert cm.hom_space(reg, ih).dim == 2


# -- injectivity -----------------------------------------------------------------------

def test_every_comodule_injective_over_cosemisimple(g2):
    rng = random.Random(1)
    for _ in range(10):
        v = random_comodule(rng, g2, max_dim=3, conjugated=True)
        assert cm.is_injective(v)


def test_non_injective_simple_comodule():
    gx = gx_coalgebra()
    one = cm.Comodule(gx, 1, columns(F, [[1], [0]]))
    assert not cm.is_injective(one)
    assert not cm.is_coflat(one)


def test_regular_comodule_always_injective():
    gx = gx_coalgebra()
    assert cm.is_injective(cm.regular_comodule(gx))
    assert cm.is_coflat(cm.regular_comodule(gx))


def test_direct_sum_properties(g2):
    v = cm.graded_comodule(g2, [1, 2])
    z = cm.zero_comodule(g2)
    assert cm.direct_sum(v, z).dim == v.dim
    w = cm.graded_comodule(g2, [3, 1])
    s = cm.direct_sum(v, w)
    assert s.dim == v.dim + w.dim
    assert cm.is_injective(s)
    # cotensor distributes over direct sums in dimension
    t_sum, _ = cm.cotensor(s, v)
    t1, _ = cm.cotensor(v, v)
    t2, _ = cm.cotensor(w, v)
    assert t_sum.dim == t1.dim + t2.dim


def test_direct_sum_of_noninjective_stays_noninjective():
    gx = gx_coalgebra()
    one = cm.Comodule(gx, 1, columns(F, [[1], [0]]))
    assert not cm.is_injective(cm.direct_sum(one, one))


def regular_sums(rng, c, count, max_copies):
    """Sums of up to ``max_copies`` copies of the regular comodule of c,
    each moved to a random basis."""
    reg = cm.regular_comodule(c)
    out = []
    for _ in range(count):
        v = reg
        for _ in range(rng.randrange(max_copies)):
            v = cm.direct_sum(v, reg)
        out.append(cm.conjugate(v, random_invertible(rng, c.field, v.dim)))
    return out


def test_certificate_agrees_with_the_splitting_solve(monkeypatch):
    # every base here has a coseparability form; with it switched off,
    # is_injective falls back to solving for a splitting, the one path that
    # builds the cofree comodule
    rng = random.Random(5)
    comodules = regular_sums(rng, sqrt2_dual(), 3, 2) \
        + regular_sums(rng, sqrt2_dual(GF(7)), 3, 2) \
        + regular_sums(rng, sqrt2_dual(GF(3)), 3, 2) \
        + regular_sums(rng, ca.product(sqrt2_dual(), sqrt2_dual())[0], 2, 1)
    g = ca.product(ca.grouplike_coalgebra(GF(5), "ab"),
                   ca.grouplike_coalgebra(GF(5), "xyz"))[0]
    comodules += [random_comodule(rng, g, max_dim=2, conjugated=True)
                  for _ in range(3)]
    solves = count_calls(monkeypatch, cm, "cofree_comodule")
    certified = [cm.is_injective(v) for v in comodules]
    assert not solves
    monkeypatch.setattr(cm, "coseparability_form", lambda c: None)
    assert [cm.is_injective(v) for v in comodules] == certified
    assert len(solves) == len(comodules) and all(certified)


def corpus_comodules():
    docs = sorted(resources.files("comodcheck").joinpath("corpus").iterdir(),
                  key=lambda path: path.name)
    return [v for path in docs
            for v in dsl.parse(path.read_text()).comodules.values()]


def test_retired_splitting_equation_holds_wherever_the_form_answers():
    # is_injective answers True from the base's certified form alone; the
    # two per-comodule equations it once checked, r rho = id and
    # (r (x) id)(id (x) delta) = rho r, hold on every comodule it so
    # answers: the corpus, U(p_I) at each power of C^(x)2, and sums of
    # regular comodules of K and K x K in random bases
    rng = random.Random(27)
    c = ca.grouplike_coalgebra(F, "ab")
    comodules = corpus_comodules() + [
        indexed.coaction_comodule(power.step[1])
        for power in hd.base_powers(c, 2)]
    for field in (QQ, GF(7)):
        k = sqrt2_dual(field)
        comodules += regular_sums(rng, k, 2, 2) \
            + regular_sums(rng, ca.product(k, k)[0], 1, 1)
    checked = 0
    for v in comodules:
        if ca.coseparability_form(v.base) is not None:
            assert cm.is_injective(v) and retraction_splits(v)
            checked += 1
    assert checked >= 25


CORPUS_INJECTIVE = (resources.files("comodcheck") / "corpus"
                    / "03_injective.cd").read_text()
K_INJECTIVE = ("field Q\ncoalg K = raw dim=2 delta=[1, 0, 0, 1, 0, 1, 2, 0] "
               "eps=[1, 0]\n"
               "comod R over K {dim 2 rho=[1, 0, 0, 1, 0, 1, 2, 0]}\n"
               "check injective R\ncheck injective R\ncheck cosemisimple K\n")


def test_injectivity_over_a_form_builds_no_retraction(monkeypatch):
    # over a base with a coseparability form is_injective builds no r_V
    # and applies no Kronecker product; gamma's laws are checked once per
    # coalgebra object
    inside, seen = [], []
    real = cm.is_injective

    def injective(v):
        inside.append(v)
        try:
            return real(v)
        finally:
            inside.pop()

    def watch(name):
        wrapped = getattr(cm, name)

        def wrapper(*args):
            if inside:
                seen.append(inside[-1])
            return wrapped(*args)
        monkeypatch.setattr(cm, name, wrapper)

    monkeypatch.setattr(cm, "is_injective", injective)
    watch("coseparability_retraction")
    watch("_kron_cols")
    decided = count_calls(monkeypatch, cm, "is_injective")
    certified = count_calls(monkeypatch, ca, "_certified_form")
    for text in ("field Q\ncoalg C = grouplike {a, b}\n"
                 "check hyperdoctrine C 2\n", CORPUS_INJECTIVE, K_INJECTIVE):
        reps = runner.run(dsl.parse(text))
        assert reps and all(rep.verdict == "pass" for rep in reps)
    with_form = [v for (v,) in decided
                 if ca.coseparability_form(v.base) is not None]
    assert len(with_form) >= 6
    # only the no-form solve (R and S over N) applies _kron_cols
    assert seen and all(ca.coseparability_form(v.base) is None
                        for v in seen)
    objects = [id(c) for c, _ in certified]
    assert len(objects) == len(set(objects))
    assert [gamma is not None for _, gamma in certified] == [False, True]


def test_tensor_morphism_rejects_a_planted_target_equalizer():
    # f (x) g restricted to V (x)_C V lands in V (x)_C V, not in the
    # equalizer V (x)_C V' of V' = V with its components swapped
    c = ca.grouplike_coalgebra(F, "ab")
    v = cm.graded_comodule(c, [1, 1])
    a, flip = cm.atom(v), cm.atom(cm.conjugate(v, [{1: 1}, {0: 1}]))
    src, ident = cm.ct(a, a), v.identity_morphism()
    assert cm.tensor_morphism(ident, ident, src, src).is_isomorphism()
    planted = cm._Obj(src.module, src.chart, (a, a, cm.ct(a, flip).parts[2]))
    with pytest.raises(AxiomError) as exc:
        cm.tensor_morphism(ident, ident, src, planted)
    assert exc.value.axiom == "tensor-morphism"


def test_structure_map_rejects_presentations_of_different_subspaces():
    # V (x)_C V and V (x)_C V', for V' = V with its components swapped, are
    # two lines' worth of V (x) V with no common vector: the structure map
    # must fail its E_tgt M = E_src certificate, on which its implied
    # intertwining rests
    c = ca.grouplike_coalgebra(F, "ab")
    v = cm.graded_comodule(c, [1, 1])
    a, flip = cm.atom(v), cm.atom(cm.conjugate(v, [{1: 1}, {0: 1}]))
    src, other = cm.ct(a, a), cm.ct(a, flip)
    assert cm._structure_map(src, src, "associator").is_isomorphism()
    with pytest.raises(AxiomError) as exc:
        cm._structure_map(src, other, "associator")
    assert exc.value.axiom == "associator"


def test_transposition_rejects_a_planted_target_equalizer():
    # tau maps V (x)_C V onto itself, not into the equalizer V (x)_C V' of
    # V' = V with its components swapped
    c = ca.grouplike_coalgebra(F, "ab")
    v = cm.graded_comodule(c, [1, 1])
    a, flip = cm.atom(v), cm.atom(cm.conjugate(v, [{1: 1}, {0: 1}]))
    src = cm.ct(a, a)
    assert cm._transposition(src, src).is_isomorphism()
    planted = cm._Obj(src.module, src.chart, (a, a, cm.ct(a, flip).parts[2]))
    with pytest.raises(AxiomError) as exc:
        cm._transposition(src, planted)
    assert exc.value.axiom == "braiding"


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_structure_maps_are_applied_without_building_kronecker_products(
        monkeypatch, field):
    # over a group-like base and over a non-group-like one with a
    # coseparability form
    rng = random.Random(9)
    g2 = ca.grouplike_coalgebra(field, "ab")
    phi = ca.grouplike_morphism(ca.grouplike_coalgebra(field, "xyz"), g2,
                                {"x": "a", "y": "b", "z": "a"})
    v, w = (random_comodule(rng, g2, max_dim=3, conjugated=True)
            for _ in range(2))
    u = regular_sums(rng, sqrt2_dual(field), 1, 2)[0]
    # exactlin has no dense Kronecker product: a dense product of any
    # kind would run one of the flat kernels
    products = [count_calls(monkeypatch, core, name)
                for name in ("mul_obj", "mul_mod")]
    a, b = cm.atom(v), cm.atom(w)
    # charts restricted from kron charts of identities, and of a
    # restricted chart with an identity
    ab = cm.ct(a, b)
    aba = cm.ct(ab, a)
    cm.cotensor(u, u)
    pw, pw_sub = indexed.pullback_functor(phi, w)
    assert cm.is_injective(u) and cm.is_injective(ab.module)
    assert not any(products)
    # the restricted coactions and embeddings are those of the built
    # products
    ident = Matrix.identity
    vw, sub = ab.module, ab.parts[2]
    assert matmul(kron(sub.basis, ident(field, 2)), vw.rho) \
        == matmul(kron(ident(field, v.dim), w.rho), sub.basis)
    assert matmul(kron(pw_sub.basis, ident(field, 3)), pw.rho) \
        == matmul(kron(ident(field, w.dim), phi.source.delta), pw_sub.basis)
    assert chart_embedding(ab.chart) == sub.basis
    assert chart_embedding(aba.chart) == matmul(
        kron(sub.basis, ident(field, v.dim)), aba.parts[2].basis)


PLANTED_FORMS = {
    # G^-1 plus an antisymmetric form: delta is symmetric, so
    # gamma delta = eps still holds, but gamma is no longer bicolinear
    "antisymmetric": lambda gamma: [{**gamma[0], 1: gamma[0].get(1, 0) + 1},
                                    {**gamma[1], 0: gamma[1].get(0, 0) - 1},
                                    *gamma[2:]],
    # gamma(e_d (x) e_c) = [d = c], the group-like form: gamma delta != eps
    "identity": lambda gamma: [{d: 1} for d in range(len(gamma))],
    # G^-1 with gamma(e_0 (x) e_1) raised by 1: no longer bicolinear
    "off-diagonal": lambda gamma: [{**gamma[0], 1: gamma[0].get(1, 0) + 1},
                                   *gamma[1:]],
    # 2 G^-1: gamma delta = 2 eps
    "scaled": lambda gamma: [{c: 2 * x for c, x in row.items()}
                             for row in gamma],
}


@pytest.mark.parametrize("plant", sorted(PLANTED_FORMS))
def test_wrong_coseparability_form_fails_the_check(monkeypatch, plant):
    # gamma is certified once per coalgebra, where the inverse trace form
    # is built: a wrong one on K or K x K, over Q or F_7, fails its laws,
    # and check injective reports the law, although it reads no r_V
    real = ca._inverse_trace_form
    monkeypatch.setattr(ca, "_inverse_trace_form",
                        lambda c: PLANTED_FORMS[plant](real(c)))
    for spec, field in (("Q", QQ), ("Fp 7", GF(7))):
        k = sqrt2_dual(field)
        for name, c in (("K", k), ("P", ca.product(k, k)[0])):
            with pytest.raises(AxiomError) as exc:
                ca.coseparability_form(c)
            assert exc.value.axiom == "coseparability-form"
            rho = ", ".join(str(x) for x in c.delta.data)
            doc = dsl.parse(
                f"field {spec}\n"
                "coalg K = raw dim=2 delta=[1, 0, 0, 1, 0, 1, 2, 0] "
                "eps=[1, 0]\ncoalg P = product(K, K)\n"
                f"comod R over {name} {{dim {c.dim} rho=[{rho}]}}\n"
                "check injective R\n")
            rep = runner.run(doc)[0]
            assert rep.verdict == "fail" and rep.value is None
            assert rep.witness["equation"].startswith(
                "coseparability-form: ")


# -- grading and isomorphism search -------------------------------------------------------

def test_grading_invariant_under_conjugation(g2):
    rng = random.Random(6)
    v = cm.graded_comodule(g2, [1, 2])
    s = random_invertible(rng, F, 3)
    vc = cm.conjugate(v, s)
    assert orc.to_graded(vc).dims == (1, 2)


def test_find_isomorphism(g2):
    rng = random.Random(7)
    v = cm.graded_comodule(g2, [1, 2])
    vc = cm.conjugate(v, random_invertible(rng, F, 3))
    iso = find_isomorphism(v, vc, rng)
    assert iso is not None and iso.is_isomorphism()
    w = cm.graded_comodule(g2, [3, 0])
    assert find_isomorphism(v, w, rng) is None


def test_comodule_equality_is_on_the_nose(g2):
    rng = random.Random(8)
    v = cm.graded_comodule(g2, [2, 1])
    vc = cm.conjugate(v, random_invertible(rng, F, 3))
    if vc.rho != v.rho:
        assert vc != v
    assert find_isomorphism(v, vc, rng) is not None
