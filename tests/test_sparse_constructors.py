"""The structure-map constructors, which write column dicts, against the
dense formulas they replaced; and the canonical storage of Delta, eps, rho
and r_V.

``Coalgebra`` and ``Comodule`` store their structure maps only as reduced
{row: value} column dicts, and every constructor builds those dicts
directly.  The references below are the dense expressions the
constructors used before: ``kron_apply`` (the test-only reference in
``conftest``), ``Matrix.kron``, ``take_rows`` and dense products on the
dense views ``delta``, ``epsilon`` and ``rho``.  Each test compares a
constructor's result with its reference over Q, F_7 and F_3, on
group-like bases, on the same bases moved by a random change of basis
(whose structure maps are dense) and on K and N, which have no
group-like basis; where a reference rejects its input (a subspace that is
not delta-closed, a cone that does not factor), the constructor must
reject it too.
"""

import random
from fractions import Fraction
from importlib import resources

import pytest

from comodcheck import coalg as ca
from comodcheck import comod as cm
from comodcheck import dsl, runner
from comodcheck import indexed as ix
from comodcheck.errors import AxiomError
from comodcheck._backend import core
from comodcheck.exactlin import Matrix, ShapeError, Subspace, _dense_columns
from comodcheck.fields import GF, QQ
from comodcheck.gen import (random_comodule, random_grouplike,
                            random_invertible, random_setmap_morphism)

from conftest import (column_dicts, count_calls, form_matrix, gx_coalgebra,
                      inverse, kron, kron_apply, largest_subcoalgebra_in,
                      matmul, sqrt2_dual, take_rows, transpose)

FIELDS = pytest.mark.parametrize("field", [QQ, GF(7), GF(3)],
                                 ids=["Q", "F7", "F3"])


# -- instances ----------------------------------------------------------------

def moved(rng, c):
    """c in a random basis, and the isomorphism from it to c."""
    p = random_invertible(rng, c.field, c.dim)
    dense_p = _dense_columns(c.field, c.dim, p)
    p_inv = inverse(dense_p)
    d = ca.Coalgebra(c.field, c.dim,
                     column_dicts(matmul(kron(p_inv, p_inv), c.delta,
                                         dense_p)),
                     column_dicts(matmul(c.epsilon, dense_p)))
    return d, ca.CoalgebraMorphism(d, c, p)


def coalgebras(rng, field):
    """Two group-like bases, the same moved to random bases, K and N."""
    grouplike = [ca.grouplike_coalgebra(field, "ab"),
                 random_grouplike(rng, field, max_labels=3)]
    return grouplike + [moved(rng, c)[0] for c in grouplike] \
        + [sqrt2_dual(field), gx_coalgebra(field)]


def comodules(rng, c):
    """The regular comodule of c and a cofree one, each also in a random
    basis, and random graded comodules when c is group-like."""
    out = [cm.regular_comodule(c), cm.cofree_comodule(c, 2)]
    out += [cm.conjugate(v, random_invertible(rng, c.field, v.dim))
            for v in out]
    if c.is_grouplike():
        out += [random_comodule(rng, c, max_dim=2, max_total=4,
                                conjugated=True) for _ in range(2)]
    return out


def morphisms(rng, field):
    """Coalgebra morphisms: maps of labels between group-like bases, the
    counits of K and N, and the isomorphisms onto moved bases."""
    out = []
    for _ in range(2):
        src = random_grouplike(rng, field, max_labels=3)
        tgt = random_grouplike(rng, field, max_labels=2)
        out.append(random_setmap_morphism(rng, src, tgt))
    for c in (sqrt2_dual(field), gx_coalgebra(field),
              ca.grouplike_coalgebra(field, "abc")):
        out += [ca.counit_morphism(c), moved(rng, c)[1]]
    return out


# -- dense references ---------------------------------------------------------

def injection(field, n, k, off):
    """The n x k inclusion of k coordinates starting at ``off``."""
    return Matrix(field, n, k, [int(r == off + j) for r in range(n)
                                for j in range(k)])


def dense_product(c1, c2):
    """delta, eps and the two projections of C1 (x) C2: the middle swap as
    a row reindex of delta1 (x) delta2."""
    f, n1, n2 = c1.field, c1.dim, c2.dim
    delta = take_rows(kron(c1.delta, c2.delta), [
        ((i1 * n1 + j1) * n2 + i2) * n2 + j2 for i1 in range(n1)
         for i2 in range(n2) for j1 in range(n1) for j2 in range(n2)])
    return (delta, kron(c1.epsilon, c2.epsilon),
            kron(Matrix.identity(f, n1), c2.epsilon),
            kron(c1.epsilon, Matrix.identity(f, n2)))


def dense_sum(c1, c2):
    f, n = c1.field, c1.dim + c2.dim
    i1, i2 = injection(f, n, c1.dim, 0), injection(f, n, c2.dim, c1.dim)
    return (kron_apply(i1, i1, c1.delta).hstack(kron_apply(i2, i2, c2.delta)),
            c1.epsilon.hstack(c2.epsilon))


def dense_subcoalgebra(c, w):
    """(delta_sub, eps_sub) read at the pivot rows, or None when
    (B (x) B) delta_sub != delta B."""
    basis = w.basis
    target = matmul(c.delta, basis)
    delta_sub = take_rows(target, [p1 * c.dim + p2 for p1 in w.pivots
                                   for p2 in w.pivots])
    if kron_apply(basis, basis, delta_sub) != target:
        return None
    return delta_sub, matmul(c.epsilon, basis)


def dense_trace_form_inverse(c):
    f, n = c.field, c.dim
    delta = c.delta
    t = Matrix(f, n, 1, [f.of(sum(delta[k * n + j, j] for j in range(n)))
                         for k in range(n)])
    inv = inverse(Matrix(f, n, n, matmul(delta, t).data))
    # gamma's rows {b: G^-1[a, b]}
    return None if inv is None else column_dicts(transpose(inv))


def dense_retraction(v):
    """r = (id_V (x) gamma)(rho_V (x) id_C)."""
    f, m, n = v.field, v.dim, v.base.dim
    return matmul(kron(Matrix.identity(f, m), form_matrix(v.base)),
                  kron(v.rho, Matrix.identity(f, n)))


def dense_dual(v):
    """rho_dual[(i, c), j] = rho[(j, c), i]."""
    m, n = v.dim, v.base.dim
    return Matrix(v.field, m * n, m, [v.rho[j * n + c, i] for i in range(m)
                                      for c in range(n) for j in range(m)])


# -- coalg ----------------------------------------------------------------------

@FIELDS
def test_sum_and_product_match_the_dense_formulas(field):
    rng = random.Random(field.char + 101)
    cs = coalgebras(rng, field)
    for c1 in cs:
        for c2 in cs[::2]:
            s = ca.direct_sum(c1, c2)
            assert (s.delta, s.epsilon) == dense_sum(c1, c2)
            p, p1, p2 = ca.product(c1, c2)
            assert (p.delta, p.epsilon, p1.matrix, p2.matrix) \
                == dense_product(c1, c2)


@FIELDS
def test_pairing_and_mediation_match_the_dense_formulas(field):
    rng = random.Random(field.char + 102)
    for c in coalgebras(rng, field):
        d, iso = moved(rng, c)
        for f, g in ((iso, iso), (iso, ca.counit_morphism(d)),
                     (d.identity_morphism(), iso)):
            assert ca.pairing(f, g).matrix \
                == kron_apply(f.matrix, g.matrix, f.source.delta)
        for phi1, phi2 in ((ca.counit_morphism(c), ca.counit_morphism(d)),
                           (c.identity_morphism(), iso)):
            pb, u, v = ca.pullback(phi1, phi2)
            apex, to_pb = moved(rng, pb)
            q1, q2 = u @ to_pb, v @ to_pb
            want = kron_apply(u.matrix, v.matrix, pb.delta).solve_right(
                kron_apply(q1.matrix, q2.matrix, apex.delta))
            assert ca.pullback_mediate(u, v, q1, q2).matrix == want
            assert want == to_pb.matrix


@FIELDS
def test_a_cone_that_does_not_factor_fails_on_both_sides(field):
    g_xy = ca.grouplike_coalgebra(field, "xy")
    g_pq = ca.grouplike_coalgebra(field, "pq")
    g_ab = ca.grouplike_coalgebra(field, "ab")
    f1 = ca.grouplike_morphism(g_xy, g_ab, {"x": "a", "y": "b"})
    f2 = ca.grouplike_morphism(g_pq, g_ab, {"p": "a", "q": "b"})
    _, u, v = ca.pullback(f1, f2)
    # x -> (x, q) leaves the fiber product
    q1 = g_xy.identity_morphism()
    q2 = ca.grouplike_morphism(g_xy, g_pq, {"x": "q", "y": "q"})
    assert kron_apply(u.matrix, v.matrix, u.source.delta).solve_right(
        kron_apply(q1.matrix, q2.matrix, g_xy.delta)) is None
    with pytest.raises(AxiomError) as exc:
        ca.pullback_mediate(u, v, q1, q2)
    assert exc.value.axiom == "pullback-universality"


def subspaces(rng, c):
    """The whole space, the span of one basis vector, the largest
    subcoalgebra inside random subspaces, and the random subspaces."""
    f, n = c.field, c.dim
    out = [Subspace(f, n, [{t: 1} for t in range(n)]),
           Subspace(f, n, [{0: 1}])]
    for k in (1, n - 1):
        w = Subspace(f, n, column_dicts(Matrix(
            f, n, k, [f.of(rng.randint(-2, 2)) for _ in range(n * k)])),
                     _canonical=False)
        out += [w, Subspace(f, n, largest_subcoalgebra_in(c, w)[1].columns)]
    return out


@FIELDS
def test_subcoalgebra_matches_the_dense_formula(field):
    rng = random.Random(field.char + 103)
    closed = not_closed = 0
    for c in coalgebras(rng, field):
        for w in subspaces(rng, c):
            want = dense_subcoalgebra(c, w)
            if want is None:
                not_closed += 1
                with pytest.raises(AxiomError) as exc:
                    ca._subcoalgebra(c, w)
                assert exc.value.axiom == "subcoalgebra-closure"
                continue
            closed += 1
            sub, incl = ca._subcoalgebra(c, w)
            assert (sub.delta, sub.epsilon) == want
            assert incl.matrix == w.basis
    assert closed and not_closed


@FIELDS
def test_inverse_trace_form_matches_the_dense_formula(field):
    rng = random.Random(field.char + 104)
    cs = coalgebras(rng, field)
    cs += [ca.product(sqrt2_dual(field), sqrt2_dual(field))[0],
           ca.direct_sum(sqrt2_dual(field), gx_coalgebra(field))]
    found = set()
    for c in cs:
        want = dense_trace_form_inverse(c)
        assert ca._inverse_trace_form(c) == want
        found.add(want is None)
    assert found == {True, False}


# -- comod and indexed ------------------------------------------------------------

@FIELDS
def test_comodule_constructors_match_the_dense_formulas(field):
    rng = random.Random(field.char + 105)
    for c in coalgebras(rng, field):
        f, n = field, c.dim
        assert cm.regular_comodule(c).rho == c.delta
        for d in (0, 1, 3):
            assert cm.cofree_comodule(c, d).rho \
                == kron(Matrix.identity(f, d), c.delta)
        mods = comodules(rng, c)
        for v in mods:
            assert cm.dual_comodule(v).rho == dense_dual(v)
            s = random_invertible(rng, f, v.dim)
            dense_s = _dense_columns(f, v.dim, s)
            assert cm.conjugate(v, s).rho \
                == matmul(kron_apply(dense_s, n, v.rho), inverse(dense_s))
        for v, w in zip(mods, mods[1:]):
            m = v.dim + w.dim
            i1, i2 = injection(f, m, v.dim, 0), injection(f, m, w.dim, v.dim)
            assert cm.direct_sum(v, w).rho == kron_apply(i1, n, v.rho).hstack(
                kron_apply(i2, n, w.rho))


@FIELDS
def test_corestrictions_match_the_dense_formulas(field):
    rng = random.Random(field.char + 106)
    for phi in morphisms(rng, field):
        d = phi.source
        assert ix.coaction_comodule(phi).rho \
            == kron_apply(d.dim, phi.matrix, d.delta)
        for v in comodules(rng, d):
            assert ix.sigma(phi, v).rho \
                == kron_apply(v.dim, phi.matrix, v.rho)


@FIELDS
def test_retraction_and_forall_counit_match_the_dense_formulas(field):
    rng = random.Random(field.char + 107)
    checked = 0
    for c in coalgebras(rng, field):
        for v in comodules(rng, c):
            r = cm.coseparability_retraction(v)
            if ca.coseparability_form(c) is None:
                assert r is None
                continue
            want = dense_retraction(v)
            assert _dense_columns(field, v.dim, r) == want
            assert r == column_dicts(want)
            checked += 1
    assert checked
    for phi in morphisms(rng, field)[:2]:
        for v in comodules(rng, phi.source):
            pfv = ix.pullback_functor(phi, ix.forall(phi, v))
            assert ix.forall_counit(phi, v, pfv).matrix \
                == matmul(dense_retraction(v), pfv[1].basis)


@FIELDS
def test_unitor_forward_maps_match_the_dense_formulas(field):
    rng = random.Random(field.char + 108)
    for c in coalgebras(rng, field):
        reg = cm.atom(cm.regular_comodule(c))
        for v in comodules(rng, c)[::2]:
            vc = cm.ct(cm.atom(v), reg)
            cv = cm.ct(reg, cm.atom(v))
            assert cm._right_unitor(vc)[0].matrix \
                == kron_apply(v.dim, c.epsilon, vc.parts[2].basis)
            assert cm._left_unitor(cv)[0].matrix \
                == kron_apply(c.epsilon, v.dim, cv.parts[2].basis)


# -- canonical storage ------------------------------------------------------------

def test_equal_maps_store_equal_dicts_over_q():
    # sums that are integral Fractions, an explicit zero, and a value the
    # dense view compares equal to
    k = ca.Coalgebra(QQ, 2, [{0: Fraction(4, 4), 3: Fraction(4, 2), 1: 0},
                             {1: Fraction(6, 3) - 1, 2: 1}],
                     [{0: 1}, {0: Fraction(0, 5)}])
    assert k == sqrt2_dual(QQ) and k.delta == sqrt2_dual(QQ).delta
    assert k._delta_cols == [{0: 1, 3: 2}, {1: 1, 2: 1}]
    assert k._eps_cols == [{0: 1}, {}]
    reg = cm.Comodule(k, 2, [{0: 1, 3: Fraction(2), 2: 0}, {1: 1, 2: 1}])
    assert reg == cm.regular_comodule(k) and reg.rho == k.delta


@pytest.mark.parametrize("p", [7, 3])
def test_equal_maps_store_equal_dicts_over_fp(p):
    # values past p, negative values and explicit zeros reduce to the
    # dicts the constructors write
    f = GF(p)
    k = ca.Coalgebra(f, 2, [{0: 1 + p, 3: 2 - 2 * p, 1: p, 2: -p},
                            {1: 1 + 3 * p, 2: 1 - p}],
                     [{0: 1 + p}, {0: 2 * p}])
    assert k == sqrt2_dual(f) and k.delta == sqrt2_dual(f).delta
    assert k._delta_cols == [{0: 1, 3: 2}, {1: 1, 2: 1}]
    assert k._eps_cols == [{0: 1}, {}]
    reg = cm.Comodule(k, 2, [{0: 1 - p, 3: 2 + p, 2: 0}, {1: 1, 2: p + 1}])
    assert reg == cm.regular_comodule(k) and reg.rho == k.delta
    assert all(0 < x < p for col in reg._rho_cols for x in col.values())


@FIELDS
def test_equality_agrees_with_dense_equality(field):
    rng = random.Random(field.char + 109)
    cs = coalgebras(rng, field)
    for a in cs:
        for b in cs:
            assert (a == b) == (a.field == b.field and a.dim == b.dim
                                and a.delta == b.delta
                                and a.epsilon == b.epsilon)
    mods = [v for c in cs[:3] for v in comodules(rng, c)]
    for v in mods:
        for w in mods:
            assert (v == w) == (v.base == w.base and v.dim == w.dim
                                and v.rho == w.rho)
            assert v._rho_cols == column_dicts(v.rho)


def test_a_column_outside_the_map_raises_shape_error():
    g = ca.grouplike_coalgebra(QQ, "ab")
    delta, eps = g._delta_cols, g._eps_cols
    for bad_delta, bad_eps in (([{4: 1}, {3: 1}], eps),
                               ([{-1: 1}, {3: 1}], eps),
                               (delta[:1], eps),
                               (delta, [{0: 1}, {1: 1}]),
                               (delta, eps + [{0: 1}])):
        with pytest.raises(ShapeError):
            ca.Coalgebra(QQ, 2, bad_delta, bad_eps)
    v = cm.graded_comodule(g, [1, 1])
    for bad in ([{0: 1}, {4: 1}], [{0: 1}], v._rho_cols + [{}]):
        with pytest.raises(ShapeError):
            cm.Comodule(g, 2, bad)


@pytest.mark.parametrize("doc", ["04_cotensor", "hyperdoctrine C 2"],
                         ids=["04_cotensor", "hyperdoctrine-C-2"])
def test_structure_maps_are_never_read_back_from_a_matrix(monkeypatch, doc):
    # Delta, eps, rho and r_V are built as column dicts: no constructor or
    # retraction scans a dense matrix into sparse rows, and none keeps a
    # Matrix (a coalgebra's _cosep memo holds gamma's rows as dicts too)
    inside, scans, objects = [], [], []

    def watch(owner, name, modules=(), scanned=True):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if scanned:
                inside.append(name)
            try:
                out = real(*args, **kwargs)
            finally:
                if scanned:
                    inside.pop()
            objects.append(args[0] if name == "__init__" else out)
            return out

        for module in (owner, *modules):
            monkeypatch.setattr(module, name, wrapper)

    def scan(real):
        def wrapper(*args):
            scans.append(list(inside))
            return real(*args)
        return wrapper

    for cls in (ca.Coalgebra, cm.Comodule):
        watch(cls, "__init__")
    watch(cm, "coseparability_retraction", [ix])
    # restricted coactions are built without __init__; they read the
    # cotensor basis, which is a subspace, not a structure map
    watch(cm, "_restricted_coaction", [ix], scanned=False)
    # the one reader of a dense matrix into sparse rows left in the
    # package
    monkeypatch.setattr(core, "_sparse_rows", scan(core._sparse_rows))
    retractions = count_calls(monkeypatch, cm, "_cotensor_idempotent")
    if doc.startswith("hyperdoctrine"):
        text = f"field Q\ncoalg C = grouplike {{a, b}}\ncheck {doc}\n"
    else:
        text = (resources.files("comodcheck") / "corpus"
                / f"{doc}.cd").read_text()
    reps = runner.run(dsl.parse(text))
    assert reps and all(rep.passed for rep in reps)
    assert retractions
    assert [where for where in scans if where] == []
    kinds = {type(obj).__name__ for obj in objects if obj is not None}
    assert kinds == {"Coalgebra", "Comodule", "list"}
    for obj in objects:
        if isinstance(obj, list):
            assert all(isinstance(col, dict) for col in obj)
            continue
        for slot in type(obj).__slots__:
            value = getattr(obj, slot, None)
            assert not isinstance(value, Matrix), slot
            if slot == "_retraction" and value is not None:
                assert all(isinstance(col, dict) for col in value)
