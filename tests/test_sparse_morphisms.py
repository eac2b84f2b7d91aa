"""Morphisms stored as their columns, against the dense products they
replaced, and the inverse pairs and diagrams they certify, planted broken.

``CoalgebraMorphism`` and ``ComoduleMorphism`` keep only the {row: value}
columns of their matrices: composition is ``_kron_cols(a, 1, 1, b)``,
equality compares columns, ``is_isomorphism`` is one ``rref_rows`` and
``exactlin._inverse`` reduces [A | I] once.  The references here are the
dense product, rank and ``solve_right`` inverse of ``conftest``, which
share no code with the sparse side, over Q, F_7 and F_3, on singular,
non-square and empty maps and on maps with Fraction entries.  Each law
check that compares an inverse pair or a diagram from columns is then
planted a pair or a diagram that fails, and must fail with its verdict or
``AxiomError`` name.
"""

import random
import sys
from fractions import Fraction

import pytest

from comodcheck import coalg as ca
from comodcheck import comod as cm
from comodcheck import indexed as ix
from comodcheck.errors import AxiomError
from comodcheck.exactlin import Matrix, _inverse
from comodcheck.fields import GF, QQ
from comodcheck.gen import (random_comodule, random_grouplike,
                            random_invertible, random_setmap_morphism)

from conftest import (column_dicts, hom_morphisms, inverse, is_invertible,
                      kron, matmul)

FIELDS = pytest.mark.parametrize("field", [QQ, GF(7), GF(3)],
                                 ids=["Q", "F7", "F3"])


def scaled(mor, a):
    """The morphism a * mor, built from its columns."""
    return type(mor)(mor.source, mor.target,
                     [{r: a * x for r, x in col.items()}
                      for col in mor.columns])


def entries(rng, field, n, k):
    """An n x k matrix of small entries, over Q some of them Fractions."""
    p = field.char
    return Matrix(field, n, k, [
        field.of(rng.randint(-2, 2) if p or rng.random() < 0.7
                 else Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(n * k)])


# -- the column inverse -------------------------------------------------------

@FIELDS
def test_inverse_matches_the_dense_inverse(field):
    rng = random.Random(f"inverse {field.char}")
    singular = invertible = fractions = 0
    for _ in range(300):
        n = rng.randint(0, 4)
        m = entries(rng, field, n, n)
        want = inverse(m)
        got = _inverse(field, n, column_dicts(m))
        if want is None:
            assert got is None
            singular += 1
            continue
        invertible += 1
        fractions += any(type(x) is Fraction for x in want.data)
        assert got == column_dicts(want)
        assert all(x for col in got for x in col.values())
    assert singular and invertible and (fractions or field.char)
    # empty, non-square and rank-deficient inputs
    assert _inverse(field, 0, []) == []
    assert _inverse(field, 2, [{0: 1}]) is None
    assert _inverse(field, 1, [{0: 1}, {0: 1}]) is None
    assert _inverse(field, 2, [{0: 1, 1: 1}, {0: 2, 1: 2}]) is None


@FIELDS
def test_random_invertible_draws_the_dense_matrices(field):
    # the same draws as the dense generator, rows first, retried until the
    # rank is full, give the same matrices as column dicts
    for seed in range(30):
        n = seed % 5
        ours, ref = random.Random(seed), random.Random(seed)
        while True:
            m = Matrix.from_rows(field, [[field.of(ref.randint(-2, 2))
                                          for _ in range(n)]
                                         for _ in range(n)])
            if is_invertible(m):
                break
        assert random_invertible(ours, field, n) == column_dicts(m)
        assert ours.random() == ref.random()


def test_inverse_over_fp_reduces_its_entries():
    f = GF(7)
    assert _inverse(f, 1, [{0: 3}]) == [{0: 5}]
    assert _inverse(f, 2, [{0: 8}, {1: -1}]) == [{0: 1}, {1: 6}]


# -- comodule morphisms -------------------------------------------------------

def comodule_pairs(rng, field):
    """(V, W) over a group-like base, conjugated: square and non-square,
    with the zero comodule among them."""
    base = ca.grouplike_coalgebra(field, "ab")
    mods = [random_comodule(rng, base, max_dim=2, max_total=3,
                            conjugated=True) for _ in range(4)]
    mods.append(cm.zero_comodule(base))
    return [(v, w) for v in mods for w in mods]


def random_morphism(rng, v, w):
    """A random combination of the basis of Hom^C(V, W), over Q with
    Fraction coefficients too."""
    f = v.field
    mat = Matrix.zeros(f, w.dim, v.dim)
    for g in hom_morphisms(v, w):
        c = rng.randint(-2, 2) if f.char or rng.random() < 0.5 \
            else Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        mat = mat + g.matrix.scale(c)
    return cm.ComoduleMorphism(v, w, column_dicts(mat))


@FIELDS
def test_comodule_morphisms_compose_and_compare_like_dense_matrices(field):
    rng = random.Random(f"comodule morphisms {field.char}")
    isos = singular = empty = 0
    for v, w in comodule_pairs(rng, field):
        f, g = random_morphism(rng, v, w), random_morphism(rng, w, v)
        for mor in (f, g, g @ f, f @ g):
            assert mor.columns == column_dicts(mor.matrix)
        assert (g @ f).matrix == matmul(g.matrix, f.matrix)
        assert (f @ g).matrix == matmul(f.matrix, g.matrix)
        assert f @ v.identity_morphism() == f == w.identity_morphism() @ f
        assert (f == scaled(f, 2)) == f.matrix.is_zero()
        assert f.is_isomorphism() == is_invertible(f.matrix)
        isos += f.is_isomorphism() and v.dim > 0
        singular += v.dim == w.dim > 0 and not f.is_isomorphism()
        empty += v.dim == w.dim == 0
    assert isos and singular and empty
    # 0 x 0 and non-square
    zero = cm.zero_comodule(ca.grouplike_coalgebra(field, "ab"))
    ident = zero.identity_morphism()
    assert ident.columns == [] and ident.is_isomorphism()
    assert (ident @ ident) == ident
    v = cm.graded_comodule(ca.grouplike_coalgebra(field, "ab"), [1, 0])
    w = cm.direct_sum(v, v)
    into = cm.ComoduleMorphism(v, w, [{0: 1}])
    assert not into.is_isomorphism() and not is_invertible(into.matrix)


@FIELDS
def test_equality_is_equality_of_the_dense_matrices(field):
    rng = random.Random(f"equality {field.char}")
    for v, w in comodule_pairs(rng, field)[:12]:
        maps = [random_morphism(rng, v, w) for _ in range(3)]
        maps.append(cm.ComoduleMorphism(v, w, column_dicts(maps[0].matrix)))
        for a in maps:
            for b in maps:
                assert (a == b) == (a.matrix == b.matrix)


def test_unreduced_columns_store_the_reduced_map():
    # sums past p, explicit zeros and integral Fractions are stored as the
    # dense view reads them
    base = ca.grouplike_coalgebra(GF(7), "ab")
    v = cm.graded_comodule(base, [2, 0])
    mor = cm.ComoduleMorphism(v, v, [{0: 8, 1: 7}, {1: -6}])
    assert mor.columns == [{0: 1}, {1: 1}] == v.identity_morphism().columns
    q = cm.graded_comodule(ca.grouplike_coalgebra(QQ, "ab"), [2, 0])
    half = cm.ComoduleMorphism(q, q, [{0: Fraction(2, 2)},
                                      {0: 0, 1: Fraction(1, 2)}])
    assert half.columns == [{0: 1}, {1: Fraction(1, 2)}]
    assert half.is_isomorphism()
    assert half @ cm.ComoduleMorphism(q, q, [{0: 1}, {1: 2}]) \
        == q.identity_morphism()


# -- coalgebra morphisms ------------------------------------------------------

def moved(c, rows):
    """c carried to the basis given by the columns of ``rows``, with the
    isomorphism onto c."""
    p = Matrix.from_rows(c.field, rows)
    p_inv = inverse(p)
    d = ca.Coalgebra(c.field, c.dim,
                     column_dicts(matmul(kron(p_inv, p_inv), c.delta, p)),
                     column_dicts(matmul(c.epsilon, p)))
    return d, ca.CoalgebraMorphism(d, c, column_dicts(p))


@FIELDS
def test_coalgebra_morphisms_compose_and_invert_like_dense_matrices(field):
    rng = random.Random(f"coalgebra morphisms {field.char}")
    for _ in range(6):
        src = random_grouplike(rng, field, max_labels=3)
        mid = random_grouplike(rng, field, max_labels=3)
        tgt = random_grouplike(rng, field, max_labels=2)
        f = random_setmap_morphism(rng, src, mid)
        g = random_setmap_morphism(rng, mid, tgt)
        assert (g @ f).matrix == matmul(g.matrix, f.matrix)
        assert f.is_isomorphism() == is_invertible(f.matrix)
        assert ca.counit_morphism(src) == ca.counit_morphism(mid) @ f
    c = ca.grouplike_coalgebra(field, "ab")
    d, iso = moved(c, [[1, 3], [2, 1]] if field.char != 3 else [[1, 1],
                                                                [0, 1]])
    back = ca.CoalgebraMorphism(c, d, column_dicts(inverse(iso.matrix)))
    assert iso.is_isomorphism() and back.is_isomorphism()
    assert iso @ back == c.identity_morphism()
    assert back @ iso == d.identity_morphism()
    assert back.columns == _inverse(field, 2, iso.columns)
    if not field.char:
        assert any(type(x) is Fraction
                   for col in back.columns for x in col.values())
    # a collapse is singular
    collapse = ca.grouplike_morphism(c, ca.grouplike_coalgebra(field, "a"),
                                     {"a": "a", "b": "a"})
    assert not collapse.is_isomorphism()
    empty = ca.Coalgebra(field, 0, [], []).identity_morphism()
    assert empty.columns == [] and empty.is_isomorphism()
    assert empty @ empty == empty and empty.matrix == Matrix.zeros(field, 0,
                                                                  0)


# -- planted inverse pairs and diagrams ---------------------------------------

@pytest.fixture
def g_ab():
    return ca.grouplike_coalgebra(QQ, ["a", "b"])


def test_a_broken_beck_pair_fails(monkeypatch, g_ab):
    # psi scaled by 2 is still a comodule morphism: only phi psi = id
    # catches it
    g_xyz = ca.grouplike_coalgebra(QQ, ["x", "y", "z"])
    g_pq = ca.grouplike_coalgebra(QQ, ["p", "q"])
    square = ix.PullbackSquare.from_cospan(
        ca.grouplike_morphism(g_xyz, g_ab, {"x": "a", "y": "b", "z": "b"}),
        ca.grouplike_morphism(g_pq, g_ab, {"p": "a", "q": "b"}))
    v = cm.graded_comodule(g_pq, [1, 2])
    assert ix.beck_chevalley_check(square, v).passed
    real = ix.beck_maps

    def planted(*args):
        phi, psi, side1, side2 = real(*args)
        return phi, scaled(psi, 2), side1, side2

    monkeypatch.setattr(ix, "beck_maps", planted)
    rep = ix.beck_chevalley_check(square, v)
    assert rep.verdict == "fail"
    assert rep.witness["equation"] == "phi psi != id"


def test_a_broken_frobenius_pair_fails(monkeypatch, g_ab):
    # the forward map drops c through the counit with rb = 1; doubled, it
    # still lands in the equalizer and intertwines the coactions
    g_xyz = ca.grouplike_coalgebra(QQ, ["x", "y", "z"])
    phi = ca.grouplike_morphism(g_xyz, g_ab, {"x": "a", "y": "a", "z": "b"})
    v = cm.graded_comodule(g_xyz, [1, 1, 1])
    w = cm.graded_comodule(g_ab, [1, 1])
    assert ix.frobenius_check(phi, v, w).passed
    real = ix._kron_cols

    def planted(a, b, rb, x):
        out = real(a, b, rb, x)
        if rb == 1 and sys._getframe(1).f_code.co_name == "frobenius_check":
            return [{k: 2 * y for k, y in col.items()} for col in out]
        return out

    monkeypatch.setattr(ix, "_kron_cols", planted)
    rep = ix.frobenius_check(phi, v, w)
    assert rep.verdict == "fail"
    assert rep.witness["equation"] == "phi psi != id"


def test_a_broken_ssmc_tensor_pair_fails(monkeypatch, g_ab):
    g_xyz = ca.grouplike_coalgebra(QQ, ["x", "y", "z"])
    phi = ca.grouplike_morphism(g_xyz, g_ab, {"x": "a", "y": "a", "z": "b"})
    v = cm.graded_comodule(g_ab, [2, 1])
    w = cm.graded_comodule(g_ab, [1, 2])
    real = ix._tensor_iso

    def planted(*args):
        fwd, bwd = real(*args)
        return fwd, scaled(bwd, 2)

    monkeypatch.setattr(ix, "_tensor_iso", planted)
    rep = ix.ssmc_check(phi, v, w)
    assert rep.verdict == "fail"
    assert rep.witness["equation"] == "tensor comparison maps are not inverse"


def test_a_broken_composition_pair_is_no_pair(monkeypatch, g_ab):
    g_xyz = ca.grouplike_coalgebra(QQ, ["x", "y", "z"])
    g_u = ca.grouplike_coalgebra(QQ, ["u"])
    phi = ca.grouplike_morphism(g_xyz, g_ab, {"x": "a", "y": "b", "z": "b"})
    psi = ca.grouplike_morphism(g_ab, g_u, {"a": "u", "b": "u"})
    v = cm.graded_comodule(g_xyz, [1, 0, 1])
    w = cm.graded_comodule(g_u, [2])
    assert ix.composition_isos(phi, psi, v, w)[1] is not None
    real = ix._counit_middle

    def planted(*args):
        return [{k: 2 * y for k, y in col.items()} for col in real(*args)]

    monkeypatch.setattr(ix, "_counit_middle", planted)
    strict, pair, _ = ix.composition_isos(phi, psi, v, w)
    assert strict and pair is None


def test_a_non_commuting_hexagon_names_symmetry(monkeypatch):
    # only the hexagon reads an associator whose first factor is w, so an
    # associator (w, u, v) doubled passes the pentagon, the triangle, the
    # involution and rho = lambda sigma, and fails the hexagon alone
    g2 = ca.grouplike_coalgebra(QQ, ["a", "b"])
    u, v, w, x = (cm.graded_comodule(g2, d)
                  for d in ([1, 2], [2, 1], [1, 1], [1, 0]))
    assert cm.coherence(u, v, w, x)[1] is None
    real = cm._structure_map
    hits = []

    def planted(src, tgt, name):
        mor = real(src, tgt, name)
        if src.parts[0].module is w:
            hits.append(name)
            return scaled(mor, 2)
        return mor

    monkeypatch.setattr(cm, "_structure_map", planted)
    assert cm.coherence(u, v, w, x)[1] == "symmetry"
    assert hits == ["associator"]


def test_a_pullback_square_with_a_singular_comparison_fails():
    # both apex points go to (x, p): the square commutes, the comparison m
    # lands in the cotensor and is 2 x 2, but it is singular
    g_a = ca.grouplike_coalgebra(QQ, ["a"])
    g_xy = ca.grouplike_coalgebra(QQ, ["x", "y"])
    g_p = ca.grouplike_coalgebra(QQ, ["p"])
    g_st = ca.grouplike_coalgebra(QQ, ["s", "t"])
    beta = ca.grouplike_morphism(g_xy, g_a, {"x": "a", "y": "a"})
    alpha = ca.grouplike_morphism(g_p, g_a, {"p": "a"})
    delta = ca.grouplike_morphism(g_st, g_xy, {"s": "x", "t": "x"})
    gamma = ca.grouplike_morphism(g_st, g_p, {"s": "p", "t": "p"})
    with pytest.raises(AxiomError) as exc:
        ix.PullbackSquare(delta, gamma, beta, alpha)
    assert exc.value.axiom == "pullback-square"
    assert "apex is not the pullback" in str(exc.value)
    # the same legs onto both points make it a pullback
    good = ca.grouplike_morphism(g_st, g_xy, {"s": "x", "t": "y"})
    assert ix.PullbackSquare(good, gamma, beta, alpha).t \
        == [{0: 1}, {1: 1}]
    # a square that does not commute fails before any coordinates
    g_ab = ca.grouplike_coalgebra(QQ, ["a", "b"])
    with pytest.raises(AxiomError) as exc:
        ix.PullbackSquare(
            g_xy.identity_morphism(), g_xy.identity_morphism(),
            ca.grouplike_morphism(g_xy, g_ab, {"x": "a", "y": "b"}),
            ca.grouplike_morphism(g_xy, g_ab, {"x": "b", "y": "a"}))
    assert exc.value.axiom == "pullback-square"
    assert "does not commute" in str(exc.value)
