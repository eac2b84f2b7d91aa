import random

import pytest

from comodcheck import coalg as ca
from comodcheck.errors import AxiomError, UnsupportedBaseError
from comodcheck.exactlin import Matrix, Subspace
from comodcheck.fields import GF, QQ
from comodcheck.gen import corrupt_coalgebra, random_coalgebra

from conftest import (column_dicts, columns, count_calls, form_matrix,
                      gx_coalgebra, inverse, kron, largest_subcoalgebra_in,
                      matmul, sqrt2_dual)

F = QQ


# -- constructors ---------------------------------------------------------------

def test_trivial_coalgebra():
    k = ca.trivial_coalgebra(F)
    assert k.dim == 1
    assert k.delta == Matrix.from_rows(F, [[1]])
    assert k.epsilon == Matrix.from_rows(F, [[1]])
    assert ca.is_cosemisimple(k)


def test_counit_is_terminal_morphism():
    d = ca.grouplike_coalgebra(F, ["a", "b", "c"])
    eps = ca.counit_morphism(d)
    assert eps.target == ca.trivial_coalgebra(F)
    assert eps.matrix == d.epsilon


def test_trivial_product_unit():
    k = ca.trivial_coalgebra(F)
    p, p1, p2 = ca.product(k, k)
    assert p.dim == 1 and p1.matrix == Matrix.identity(F, 1)


def test_grouplike_structure():
    g = ca.grouplike_coalgebra(F, ["a", "b"])
    assert g.delta.data[0::2] == [1, 0, 0, 0]
    assert g.is_grouplike()
    single = ca.grouplike_coalgebra(F, ["a"])
    k = ca.trivial_coalgebra(F)
    assert single.delta == k.delta and single.epsilon == k.epsilon


def test_grouplike_rejects_bad_labels():
    with pytest.raises(Exception):
        ca.grouplike_coalgebra(F, [])
    with pytest.raises(Exception):
        ca.grouplike_coalgebra(F, ["a", "a"])


def test_grouplike_cosemisimple():
    assert ca.is_cosemisimple(ca.grouplike_coalgebra(F, ["a", "b", "c"]))


def test_direct_sum_matches_grouplike():
    k = ca.trivial_coalgebra(F)
    s = ca.direct_sum(k, k)
    g = ca.grouplike_coalgebra(F, ["x", "y"])
    assert s.delta == g.delta and s.epsilon == g.epsilon
    assert s.dim == 2
    assert ca.is_cosemisimple(s)


def test_product_is_grouplike_on_pairs():
    g2 = ca.grouplike_coalgebra(F, ["a", "b"])
    g3 = ca.grouplike_coalgebra(F, ["x", "y", "z"])
    p, p1, p2 = ca.product(g2, g3)
    assert p.dim == 6
    assert p.labels == tuple((a, b) for a in "ab" for b in "xyz")
    model = ca.grouplike_coalgebra(F, p.labels)
    assert p.delta == model.delta and p.epsilon == model.epsilon
    assert ca.is_cosemisimple(p)


def test_product_unit_law():
    g2 = ca.grouplike_coalgebra(F, ["a", "b"])
    k = ca.trivial_coalgebra(F)
    _, p1, _ = ca.product(g2, k)
    assert p1.is_isomorphism()


# -- pairing ----------------------------------------------------------------------

def test_pairing_identity_on_trivial():
    k = ca.trivial_coalgebra(F)
    d = ca.pairing(k.identity_morphism(), k.identity_morphism())
    assert d.matrix == Matrix.identity(F, 1)


def test_pairing_of_projections_is_identity():
    g2 = ca.grouplike_coalgebra(F, ["a", "b"])
    p, p1, p2 = ca.product(g2, g2)
    assert ca.pairing(p1, p2, prod=p).matrix == Matrix.identity(F, 4)


def test_pairing_diagonal_on_grouplike():
    g2 = ca.grouplike_coalgebra(F, ["a", "b"])
    p, p1, p2 = ca.product(g2, g2)
    diag = ca.pairing(g2.identity_morphism(), g2.identity_morphism(),
                      prod=p)
    assert diag.columns[0] == {0: 1}   # a -> (a, a)
    assert p1 @ diag == g2.identity_morphism()
    assert p2 @ diag == g2.identity_morphism()


def test_pairing_uniqueness():
    # any morphism with the same projections equals the pairing
    g2 = ca.grouplike_coalgebra(F, ["a", "b"])
    p, p1, p2 = ca.product(g2, g2)
    diag = ca.pairing(g2.identity_morphism(), g2.identity_morphism(),
                      prod=p)
    emb = matmul(kron(p1.matrix, p2.matrix), p.delta)
    sol = emb.solve_right(matmul(
        kron(g2.identity_morphism().matrix, g2.identity_morphism().matrix),
        g2.delta))
    assert sol is not None


# -- the largest-subcoalgebra reference ----------------------------------------------

def test_largest_subcoalgebra_whole_space():
    g2 = ca.grouplike_coalgebra(F, ["a", "b"])
    sub, incl = largest_subcoalgebra_in(g2, Subspace(F, 2, [{0: 1}, {1: 1}]))
    assert sub.dim == 2


def test_largest_subcoalgebra_single_grouplike():
    g2 = ca.grouplike_coalgebra(F, ["a", "b"])
    w = Subspace(F, 2, column_dicts(Matrix.from_rows(F, [[1], [0]])))
    sub, incl = largest_subcoalgebra_in(g2, w)
    assert sub.dim == 1 and sub.labels == ("a",)
    assert incl.matrix == Matrix.from_rows(F, [[1], [0]])


def test_largest_subcoalgebra_refinement_to_zero():
    gx = gx_coalgebra()
    w = Subspace(F, 2, column_dicts(Matrix.from_rows(F, [[0], [1]])))
    sub, incl = largest_subcoalgebra_in(gx, w)
    assert sub.dim == 0


def test_largest_subcoalgebra_terminates_under_dimension():
    rng = random.Random(4)
    for _ in range(5):
        c = random_coalgebra(rng, F, max_labels=4)
        cols = rng.randint(0, c.dim)
        m = Matrix(F, c.dim, cols,
                   [F.of(rng.randint(-2, 2)) for _ in range(c.dim * cols)])
        sub, incl = largest_subcoalgebra_in(
            c, Subspace(F, c.dim, column_dicts(m), _canonical=False))
        assert 0 <= sub.dim <= c.dim


# -- pullbacks ----------------------------------------------------------------------

def test_pullback_over_trivial_is_product():
    g2 = ca.grouplike_coalgebra(F, ["a", "b"])
    g3 = ca.grouplike_coalgebra(F, ["x", "y", "z"])
    pb, u, v = ca.pullback(ca.counit_morphism(g2), ca.counit_morphism(g3))
    assert pb.dim == 6


def test_pullback_is_set_fiber_product_on_grouplikes():
    g_ab = ca.grouplike_coalgebra(F, ["a", "b"])
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    g_xyz = ca.grouplike_coalgebra(F, ["r", "s", "t"])
    f1 = ca.grouplike_morphism(g_xy, g_ab, {"x": "a", "y": "b"})
    f2 = ca.grouplike_morphism(g_xyz, g_ab, {"r": "a", "s": "a", "t": "b"})
    pb, u, v = ca.pullback(f1, f2)
    assert set(pb.labels) == {("x", "r"), ("x", "s"), ("y", "t")}
    assert matmul(f1.matrix, u.matrix) == matmul(f2.matrix, v.matrix)


def test_pullback_along_identity():
    g_ab = ca.grouplike_coalgebra(F, ["a", "b"])
    g_xyz = ca.grouplike_coalgebra(F, ["r", "s", "t"])
    f = ca.grouplike_morphism(g_xyz, g_ab, {"r": "a", "s": "a", "t": "b"})
    pb, u, v = ca.pullback(g_ab.identity_morphism(), f)
    assert pb.dim == g_xyz.dim


def test_pullback_mediate_identity():
    g_ab = ca.grouplike_coalgebra(F, ["a", "b"])
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    f1 = ca.grouplike_morphism(g_xy, g_ab, {"x": "a", "y": "b"})
    pb, u, v = ca.pullback(f1, f1)
    med = ca.pullback_mediate(u, v, u, v)
    assert med.matrix == Matrix.identity(F, pb.dim)


def _fold(c):
    """The codiagonal C + C -> C."""
    ident = Matrix.identity(c.field, c.dim)
    return ca.CoalgebraMorphism(ca.direct_sum(c, c), c,
                                column_dicts(ident.hstack(ident)))


def _pullback_cospans(field):
    k, n = sqrt2_dual(field), gx_coalgebra(field)
    _, p_k, p_n = ca.product(k, n)
    return {
        "K-id-id": (k.identity_morphism(), k.identity_morphism()),
        "K-counits": (ca.counit_morphism(k), ca.counit_morphism(k)),
        "N-id-id": (n.identity_morphism(), n.identity_morphism()),
        "K-N-counits": (ca.counit_morphism(k), ca.counit_morphism(n)),
        "K-fold-fold": (_fold(k), _fold(k)),
        "N-fold-id": (_fold(n), n.identity_morphism()),
        "KxN-proj-id": (p_k, k.identity_morphism()),
        "KxN-proj-proj": (p_n, p_n),
    }


PULLBACK_FIELDS = {"Q": QQ, "F7": GF(7), "F3": GF(3)}


@pytest.mark.parametrize("field", sorted(PULLBACK_FIELDS))
@pytest.mark.parametrize("case", sorted(_pullback_cospans(QQ)))
def test_pullback_is_the_largest_subcoalgebra_in_the_kernel(case, field):
    phi1, phi2 = _pullback_cospans(PULLBACK_FIELDS[field])[case]
    pb, u, v = ca.pullback(phi1, phi2)
    prod, p1, p2 = ca.product(phi1.source, phi2.source)
    kernel = (matmul(phi1.matrix, p1.matrix)
              - matmul(phi2.matrix, p2.matrix)).kernel()
    ref, incl = largest_subcoalgebra_in(prod, kernel)
    assert pb == ref and pb.labels == ref.labels
    assert matmul(kron(u.matrix, v.matrix), pb.delta) == incl.matrix


def test_pullback_of_a_non_coreflexive_cospan_is_below_the_kernel():
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    g_pq = ca.grouplike_coalgebra(F, ["p", "q"])
    g_ab = ca.grouplike_coalgebra(F, ["a", "b"])
    beta = ca.grouplike_morphism(g_xy, g_ab, {"x": "a", "y": "a"})
    alpha = ca.grouplike_morphism(g_pq, g_ab, {"p": "b", "q": "b"})
    pb, u, v = ca.pullback(beta, alpha)
    prod, p1, p2 = ca.product(g_xy, g_pq)
    kernel = (matmul(beta.matrix, p1.matrix)
              - matmul(alpha.matrix, p2.matrix)).kernel()
    ref, _ = largest_subcoalgebra_in(prod, kernel)
    # (x, p) - (y, q) lies in the kernel, but no group-like pair does
    assert kernel.dim == 3
    assert pb.dim == ref.dim == 0


# -- cosemisimplicity -----------------------------------------------------------------

def test_gx_not_cosemisimple():
    # dual algebra is k[t]/(t^2): nonzero radical
    assert not ca.is_cosemisimple(gx_coalgebra())


def test_sqrt2_dual_cosemisimple_not_grouplike():
    k = sqrt2_dual()
    assert not k.is_grouplike()
    assert ca.is_cosemisimple(k)


def test_cosemisimple_closure_under_product_and_sum():
    g2 = ca.grouplike_coalgebra(F, ["a", "b"])
    g3 = ca.grouplike_coalgebra(F, ["x", "y", "z"])
    assert ca.is_cosemisimple(ca.product(g2, g3)[0])
    assert ca.is_cosemisimple(ca.direct_sum(g2, g3))


def test_cosemisimple_char_p_structural():
    p = GF(5)
    g = ca.grouplike_coalgebra(p, ["a", "b"])
    assert ca.is_cosemisimple(g)
    assert ca.is_cosemisimple(ca.product(g, g)[0])
    with pytest.raises(UnsupportedBaseError):
        ca.is_cosemisimple(gx_coalgebra(p))


# -- coseparability forms ---------------------------------------------------------------

def cyclic_dual(field, n):
    """(k[x]/(x^n - 1))*: delta d_k = sum over i + j = k mod n of d_i x d_j."""
    delta = [{} for _ in range(n)]
    for i in range(n):
        for j in range(n):
            delta[(i + j) % n][i * n + j] = 1
    return ca.Coalgebra(field, n, delta, [{0: 1}] + [{}] * (n - 1))


def moved(c, rows):
    """c carried to the basis given by the columns of ``rows``."""
    p = Matrix.from_rows(c.field, rows)
    p_inv = inverse(p)
    return ca.Coalgebra(c.field, c.dim,
                        column_dicts(matmul(kron(p_inv, p_inv), c.delta, p)),
                        column_dicts(matmul(c.epsilon, p)))


def moved_grouplike_sum(field):
    """{a} + {b, c} carried to a basis with no group-like vector."""
    g = ca.direct_sum(ca.grouplike_coalgebra(field, "a"),
                      ca.grouplike_coalgebra(field, "bc"))
    return moved(g, [[1, 2, 0], [0, 1, 3], [1, 0, 1]])


def trace_form_nondegenerate(c):
    """Reference decision: the dual algebra C* is commutative, so over a
    perfect field it is semisimple iff its trace form tr(L_i L_j) is
    nondegenerate, L_i being multiplication by the dual basis vector e_i*.
    """
    f, n = c.field, c.dim
    left = [Matrix(f, n, n, [c.delta[i * n + j, k] for k in range(n)
                             for j in range(n)]) for i in range(n)]
    gram = Matrix(f, n, n, [f.of(sum(matmul(left[i], left[j])[k, k]
                                     for k in range(n)))
                            for i in range(n) for j in range(n)])
    return gram.rank() == n


COSEPARABILITY_CASES = {
    "K-Q": (lambda: sqrt2_dual(QQ), True),
    "N-Q": (lambda: gx_coalgebra(QQ), False),
    "K-F7": (lambda: sqrt2_dual(GF(7)), True),
    "N-F7": (lambda: gx_coalgebra(GF(7)), False),
    "K-F2": (lambda: sqrt2_dual(GF(2)), False),
    "K-F3": (lambda: sqrt2_dual(GF(3)), True),
    "KxK-Q": (lambda: ca.product(sqrt2_dual(), sqrt2_dual())[0], True),
    "K+N-Q": (lambda: ca.direct_sum(sqrt2_dual(), gx_coalgebra()), False),
    "ab-moved-F7": (lambda: moved(ca.grouplike_coalgebra(GF(7), "ab"),
                                  [[1, 3], [2, 1]]), True),
    "ab-moved-Q": (lambda: moved(ca.grouplike_coalgebra(QQ, "ab"),
                                 [[1, 3], [2, 1]]), True),
    "a+bc-moved-F5": (lambda: moved_grouplike_sum(GF(5)), True),
    "cyclic3-F2": (lambda: cyclic_dual(GF(2), 3), True),
    "cyclic3-F5": (lambda: cyclic_dual(GF(5), 3), True),
    "cyclic3-F3": (lambda: cyclic_dual(GF(3), 3), False),
    "cyclic7-F7": (lambda: cyclic_dual(GF(7), 7), False),
    "cyclic3-Q": (lambda: cyclic_dual(QQ, 3), True),
    "cyclic5-Q": (lambda: cyclic_dual(QQ, 5), True),
}


@pytest.mark.parametrize("case", sorted(COSEPARABILITY_CASES))
def test_coseparability_form_exists_iff_trace_form_nondegenerate(case):
    build, cosemisimple = COSEPARABILITY_CASES[case]
    c = build()
    gamma = form_matrix(c)
    assert trace_form_nondegenerate(c) == cosemisimple
    assert (gamma is not None) == cosemisimple
    if gamma is not None:
        # the defining equations, as dense products of the structure maps
        ident = Matrix.identity(c.field, c.dim)
        assert matmul(gamma, c.delta) == c.epsilon
        assert matmul(kron(ident, gamma), kron(c.delta, ident)) \
            == matmul(kron(gamma, ident), kron(ident, c.delta))
    if not c.field.char:
        assert ca.is_cosemisimple(c) == cosemisimple


@pytest.mark.parametrize("case", ["K-Q", "KxK-Q", "ab-moved-Q",
                                  "cyclic3-Q"])
def test_coseparability_rows_are_the_dense_inverse_trace_form(case):
    # gamma is stored as its n rows {b: gamma(e_a (x) e_b)} = row a of
    # G^-1, for the trace form G of C*, built here by dense products and
    # inverted by solve_right
    c = COSEPARABILITY_CASES[case][0]()
    f, n = c.field, c.dim
    left = [Matrix(f, n, n, [c.delta[i * n + j, k] for k in range(n)
                             for j in range(n)]) for i in range(n)]
    gram = Matrix(f, n, n, [sum(matmul(left[i], left[j])[k, k]
                                for k in range(n))
                            for i in range(n) for j in range(n)])
    g_inv = inverse(gram)
    rows = ca.coseparability_form(c)
    assert not c.is_grouplike() and g_inv is not None
    assert rows == [{b: g_inv[a, b] for b in range(n) if g_inv[a, b]}
                    for a in range(n)]
    assert all(type(row) is dict for row in rows)


def test_grouplike_coseparability_form_is_the_diagonal():
    g = ca.grouplike_coalgebra(GF(7), "abc")
    assert ca.coseparability_form(g) == [{0: 1}, {1: 1}, {2: 1}]
    assert form_matrix(g).data == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_coseparability_form_is_decided_once(monkeypatch):
    calls = count_calls(monkeypatch, ca, "_inverse_trace_form")
    for c in (sqrt2_dual(), gx_coalgebra()):
        first = ca.coseparability_form(c)
        assert ca.coseparability_form(c) is first
    assert len(calls) == 2


# -- constructor rejections -------------------------------------------------------------

def test_constructor_rejects_broken_counit():
    delta = columns(F, [[1, 0], [0, 0], [0, 0], [0, 1]])
    eps = columns(F, [[1, 0]])
    with pytest.raises(AxiomError) as err:
        ca.Coalgebra(F, 2, delta, eps)
    assert err.value.axiom == "counit"


def test_constructor_rejects_broken_cocommutativity():
    # delta(e0) = e0 x e1 is not symmetric
    delta = columns(F, [[0, 0], [1, 0], [0, 0], [0, 1]])
    eps = columns(F, [[1, 1]])
    with pytest.raises(AxiomError) as err:
        ca.Coalgebra(F, 2, delta, eps)
    assert err.value.axiom in ("cocommutativity", "counit",
                               "coassociativity")


def structure(field, n, images, eps):
    """The coalgebra on e_0..e_{n-1} with delta e_j = sum images[j][a, b]
    e_a (x) e_b and counit row eps, through the checking constructor."""
    delta = [{a * n + b: field.of(x) for (a, b), x in image.items()}
             for image in images]
    return ca.Coalgebra(field, n, delta, columns(field, [eps]))


# Each planted fault breaks one law and keeps the others, so the
# constructor must name exactly that law.
ONE_LAW_BROKEN = {
    # group-like {a, b} with eps(b) = 2
    "counit": (2, [{(0, 0): 1}, {(1, 1): 1}], [1, 2]),
    # delta c12 = c11 (x) c12 + c12 (x) c22: the dual of the upper
    # triangular matrices, coassociative and counital
    "cocommutativity": (3, [{(0, 0): 1}, {(0, 1): 1, (1, 2): 1},
                            {(2, 2): 1}], [1, 0, 1]),
    # delta y = g (x) y + y (x) g + x (x) y + y (x) x with delta x =
    # g (x) x + x (x) g: y (x) x (x) x sits on the left side only
    "coassociativity": (3, [{(0, 0): 1}, {(0, 1): 1, (1, 0): 1},
                            {(0, 2): 1, (2, 0): 1, (1, 2): 1, (2, 1): 1}],
                        [1, 0, 0]),
}


@pytest.mark.parametrize("field", [QQ, GF(7), GF(3)], ids=repr)
@pytest.mark.parametrize("axiom", sorted(ONE_LAW_BROKEN))
def test_constructor_names_the_one_broken_law(field, axiom):
    with pytest.raises(AxiomError) as err:
        structure(field, *ONE_LAW_BROKEN[axiom])
    assert err.value.axiom == axiom


@pytest.mark.parametrize("field", [QQ, GF(7), GF(3)], ids=repr)
def test_morphism_names_the_one_broken_law(field):
    x = ca.grouplike_coalgebra(field, ["x"])
    abc = ca.grouplike_coalgebra(field, "abc")
    # x -> a + b - c keeps the counit (1 + 1 - 1 = 1, a sum past p over
    # F_3 and F_7) but sends a group-like to no group-like
    with pytest.raises(AxiomError) as err:
        ca.CoalgebraMorphism(x, abc, columns(field, [[1], [1], [-1]]))
    assert err.value.axiom == "comultiplication-preservation"
    # the zero map preserves delta and drops the counit
    with pytest.raises(AxiomError) as err:
        ca.CoalgebraMorphism(x, abc, [{}])
    assert err.value.axiom == "counit-preservation"


def test_corrupted_structures_name_an_axiom():
    rng = random.Random(10)
    for _ in range(10):
        c = random_coalgebra(rng, F, max_labels=4)
        delta, eps = corrupt_coalgebra(rng, c)
        with pytest.raises(AxiomError) as err:
            ca.Coalgebra(F, c.dim, delta, eps)
        assert err.value.axiom in ("coassociativity", "counit",
                                   "cocommutativity")


def test_morphism_axioms_enforced():
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    g_ab = ca.grouplike_coalgebra(F, ["a", "b"])
    # x -> a + b is not group-like-preserving: delta(f x) != (f x f) delta
    bad = Matrix.from_rows(F, [[1, 0], [1, 1]])
    with pytest.raises(AxiomError):
        ca.CoalgebraMorphism(g_xy, g_ab, column_dicts(bad))


def test_random_constructor_coalgebras_validate():
    rng = random.Random(77)
    for _ in range(25):
        c = random_coalgebra(rng, F, max_labels=5)
        # reconstruct from the dense views: all axioms re-checked
        assert ca.Coalgebra(F, c.dim, column_dicts(c.delta),
                            column_dicts(c.epsilon)) == c
