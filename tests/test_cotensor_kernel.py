"""The cotensor kernel read off the coseparability idempotent, and its
certificates evaluated from nonzeros.

Over a base with a coseparability form, ``comod._cotensor_kernel`` returns
the image of e = (r_V (x) id)(id (x) tau rho_W), certified by r_V rho_V =
id and A B = 0.  Each test compares it with the independent reference, the
elimination ``cotensor_matrix(v, w).kernel()`` of the dense A, or plants a
fault that one of the two equations must catch.  Without a form the kernel
is that elimination, certified by the same A B = 0.

``_annihilated`` (A B = 0) and ``_restricted_coaction`` evaluate their
equations column by column from the nonzeros of B and of the coactions.
The batched block-map products they replaced are kept below as references
(``batched_annihilated``, ``batched_restriction``), and the differential
tests compare the two on true and on corrupted bases.
"""

import random
from importlib import resources

import pytest

from comodcheck import _core_py as core
from comodcheck import coalg as ca
from comodcheck import comod as cm
from comodcheck import dsl, runner
from comodcheck import exactlin as el
from comodcheck import indexed as ix
from comodcheck.errors import AxiomError
from comodcheck.exactlin import Matrix, Subspace
from comodcheck.fields import GF, QQ
from comodcheck.gen import (random_coalgebra, random_comodule,
                            random_invertible, random_setmap_morphism)

from conftest import (column_dicts, cotensor_matrix, count_calls,
                      gx_coalgebra, kron, kron_apply, matmul, sqrt2_dual,
                      take_rows, transpose)

FIELDS = [QQ, GF(7), GF(3)]


def reference(v, w):
    return cotensor_matrix(v, w).kernel()


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


# -- certificates from nonzeros against the batched products ------------------------

def batched_annihilated(v, w, basis):
    """A B = 0 by two batched products: column t of B is vec X_t, and
    rho_V [X_1 | ... | X_d] is compared with [X_1; ...; X_d] lambda_W^T,
    both indexed (a*n + c)*m_W + k."""
    f, n = v.field, v.base.dim
    mv, mw, d = v.dim, w.dim, basis.cols
    if not d:
        return True
    size = mv * mw
    bt = transpose(basis).data
    xcat = []
    for a in range(mv):
        for t in range(d):
            xcat += bt[t * size + a * mw:t * size + (a + 1) * mw]
    lam_t = [0] * (mw * n * mw)
    for j, col in enumerate(w._rho_cols):
        for idx, y in col.items():
            k, c = divmod(idx, n)
            lam_t[j * n * mw + c * mw + k] = y
    lhs = matmul(v.rho, Matrix(f, mv, d * mw, xcat)).data
    rhs = matmul(Matrix(f, d * mv, mw, bt), Matrix(f, mw, n * mw, lam_t)).data
    block = mv * n * mw
    return all(lhs[(row * d + t) * mw:(row * d + t + 1) * mw]
               == rhs[t * block + row * mw:t * block + (row + 1) * mw]
               for row in range(mv * n) for t in range(d))


def batched_restriction(n, left, right, sub):
    """The coaction on ``sub`` restricting id_left (x) right, by block
    maps: the image of the basis e read at its pivot rows, or None when
    (e (x) I_n) rho differs from that image."""
    e = sub.basis
    big = kron_apply(left, right, e)
    rho = take_rows(big, [p * n + c for p in sub.pivots for c in range(n)])
    return rho if kron_apply(e, n, rho) == big else None


def corrupted(rng, basis):
    """The basis with one entry moved by one, and with one unit vector
    appended: inputs on which both evaluations must fail alike."""
    f, rows, cols = basis.field, basis.rows, basis.cols
    if not rows:
        return []
    data = list(basis.data)
    if data:
        i = rng.randrange(len(data))
        data[i] = f.add(data[i], 1)
    k = rng.randrange(rows)
    unit = Matrix(f, rows, 1, [int(i == k) for i in range(rows)])
    return [Matrix(f, rows, cols, data), basis.hstack(unit)]


def assert_certificates_agree(rng, v, w, base, right):
    """``_annihilated`` and ``_restricted_coaction`` on the kernel of A and
    on corrupted bases, against the batched references.  The coaction
    restricts id_V (x) right for right: W -> W (x) base, the coaction of W
    for a cotensor and delta of the source for a pullback."""
    sub = reference(v, w)
    assert batched_annihilated(v, w, sub.basis)
    assert cm._cotensor_kernel(v, w) == sub
    right_cols = column_dicts(right)
    for basis in [sub.basis] + corrupted(rng, sub.basis):
        assert cm._annihilated(v, w, column_dicts(basis)) \
            == batched_annihilated(v, w, basis)
        planted = Subspace(v.field, sub.ambient, column_dicts(basis),
                           _canonical=False)
        want = batched_restriction(base.dim, v.dim, right, planted)
        if want is None:
            with pytest.raises(AxiomError) as exc:
                cm._restricted_coaction(base, right_cols, planted, "planted")
            assert exc.value.axiom == "planted"
        else:
            mod = cm._restricted_coaction(base, right_cols, planted,
                                          "planted")
            assert mod.rho == want
            assert mod._rho_cols == column_dicts(want)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_certificates_agree_on_graded_and_conjugated_pairs(field):
    rng = random.Random(f"certificates graded {field.char}")
    for v, w in graded_pairs(rng, field, 8):
        assert_certificates_agree(rng, v, w, v.base, w.rho)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_certificates_agree_on_regular_sums_over_k_and_n(field):
    # N has no coseparability form: its kernels take the elimination path
    rng = random.Random(f"certificates regular {field.char}")
    for base in (sqrt2_dual(field), gx_coalgebra(field)):
        comods = regular_sums(rng, base)
        for v in comods[::2]:
            for w in comods[1::2]:
                assert_certificates_agree(rng, v, w, base, w.rho)
                assert_certificates_agree(rng, w, v, base, v.rho)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_certificates_agree_on_hom_spaces(field):
    rng = random.Random(f"certificates hom {field.char}")
    pairs = graded_pairs(rng, field, 4)
    regular = regular_sums(rng, gx_coalgebra(field))
    pairs += [(v, w) for v in regular for w in regular[1:3]]
    for v, w in pairs:
        dual = cm.dual_comodule(v)
        assert_certificates_agree(rng, w, dual, w.base, dual.rho)
        assert cm.hom_space(v, w) == reference(w, dual)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_certificates_agree_on_pullbacks(field):
    rng = random.Random(f"certificates pullback {field.char}")
    for _ in range(4):
        target = random_coalgebra(rng, field, max_labels=3)
        source = random_coalgebra(rng, field, max_labels=3)
        phi = random_setmap_morphism(rng, source, target)
        w = random_comodule(rng, target, max_dim=2, conjugated=True)
        u = ix.coaction_comodule(phi)
        assert_certificates_agree(rng, w, u, source, source.delta)
        mod, sub = ix.pullback_functor(phi, w)
        assert mod.rho == batched_restriction(source.dim, w.dim,
                                              source.delta, sub)


# -- planted faults ----------------------------------------------------------------

COTENSOR_DOC = ("field Q\ncoalg C = grouplike {a, b}\n"
                "comod V over C {graded {a: 1, b: 2}}\n"
                "comod W over C {graded {a: 2, b: 1}}\n"
                "check cotensor V W\n")


def identity_idempotent(real):
    return lambda r, v, w: [{t: 1} for t in range(v.dim * w.dim)]


def one_vector_too_many(real):
    # e + E_66 also spans v_2 (x) w_0 = b (x) a, whose defect A x lies in
    # rows 4 and 5 only
    def plant(r, v, w):
        e = real(r, v, w)
        assert not e[6].get(6)
        e[6][6] = 1
        return e
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
                        lambda c: [{e: 2 * x for e, x in row.items()}
                                   for row in real(c)])
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
    monkeypatch.setattr(cm, "_cotensor_columns",
                        lambda v, w: [{} for _ in range(v.dim * w.dim)])
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
    # every base is group-like: each kernel is one elimination of at most
    # m_V m_W columns of the idempotent, and the cotensor matrix A is never
    # built
    matrices = count_calls(monkeypatch, cm, "_cotensor_columns")
    sides, shapes = [], []
    real_kernel, real_rref = cm._cotensor_kernel, core.rref_rows

    def kernel(v, w):
        sides.append(v.dim * w.dim)
        try:
            return real_kernel(v, w)
        finally:
            sides.pop()

    def rref_rows(rows, cols, p):
        if sides:
            shapes.append((len(rows), cols, sides[-1]))
        return real_rref(rows, cols, p)

    monkeypatch.setattr(cm, "_cotensor_kernel", kernel)
    monkeypatch.setattr(ix, "_cotensor_kernel", kernel)
    monkeypatch.setattr(core, "rref_rows", rref_rows)
    doc = dsl.parse("field Q\ncoalg C = grouplike {a, b}\n"
                    "check hyperdoctrine C 2\n")
    assert [rep.verdict for rep in runner.run(doc)] == ["pass"]
    assert matrices == []
    assert shapes
    assert all(rows <= cols == side for rows, cols, side in shapes)


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
    matrices = count_calls(monkeypatch, cm, "_cotensor_columns")
    reps = runner.run(doc)
    assert [(rep.verdict, rep.value) for rep in reps] == [("pass", True)]
    assert len(matrices) == 1


def dense_splitting_system(v):
    """The splitting system of ``is_injective`` without a coseparability
    form, built dense: the cotensor equations of Hom^C(V (x) C, V) stacked
    on the rows id_V (x) rho_V^T of s rho_V = id, and the right side 0
    stacked on vec(id_V)."""
    f, m = v.field, v.dim
    dual = cm.dual_comodule(cm.cofree_comodule(v.base, m))
    ident = Matrix.identity(f, m)
    system = cotensor_matrix(v, dual).vstack(kron(ident, transpose(v.rho)))
    rhs = Matrix.zeros(f, system.rows - m * m, 1).vstack(
        Matrix(f, m * m, 1, ident.data))
    return system, rhs


def sympy_rank(m):
    """The rank of a dense matrix by sympy."""
    from sympy.polys.domains import GF as SymGF, QQ as SymQQ
    from sympy.polys.matrices import DomainMatrix

    dom = SymGF(m.field.char) if m.field.char else SymQQ
    return DomainMatrix([[dom.convert(m[i, j]) for j in range(m.cols)]
                         for i in range(m.rows)], (m.rows, m.cols),
                        dom).rank()


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_injectivity_without_a_form_matches_the_dense_solve(field):
    # the splitting s is solved for on columns; the dense system gives the
    # same verdict on the regular comodules of N and sum(K, N), their
    # doubles, each in a random basis, and the non-injective S over N: a
    # solution by Matrix.solve_right, checked by a dense product, or none,
    # confirmed by sympy's ranks
    pytest.importorskip("sympy")
    rng = random.Random(f"splitting {field.char}")
    n = gx_coalgebra(field)
    cases = [(v, True) for base in (n, ca.direct_sum(sqrt2_dual(field), n))
             for v in regular_sums(rng, base)]
    cases.append((cm.Comodule(n, 1, [{0: 1}]), False))
    for v, injective in cases:
        assert cm.coseparability_retraction(v) is None
        system, rhs = dense_splitting_system(v)
        sol = system.solve_right(rhs)
        if injective:
            assert sol is not None and matmul(system, sol) == rhs
        else:
            assert sol is None
            assert sympy_rank(system) < sympy_rank(system.hstack(rhs))
        assert cm.is_injective(v) == injective


CERTIFIED = {"_annihilated", "_restricted_coaction",
             "coseparability_retraction", "Coalgebra", "Comodule",
             "ComoduleMorphism"}
# coordinates and the presentations they are read in run on nonzeros too
SUBSPACE_COORDS = {"Subspace.coords"}
CHART_COORDS = {"Chart.restrict", "Chart.coords"}
SPARSE_COORDS = SUBSPACE_COORDS | CHART_COORDS
STRUCTURE_MAPS = {"_structure_map", "_transposition", "tensor_morphism"}
# the law checks of indexed and hyperdoctrine read their comparison maps
# in charts and subspaces (Beck's first step and the adjunction's batched
# transposes as coordinate columns; the adjunction builds no comodule
# morphism)
LAW_CHECKS = CERTIFIED | {"CoalgebraMorphism"}
# 11_lnl declares no comodule, and every comodule it derives (U(phi),
# Sigma, pullbacks, cotensors) is built by ``Comodule._implied``
DERIVED_ONLY = LAW_CHECKS - {"Comodule"}


@pytest.mark.parametrize("doc, certificates", [
    ("04_cotensor", CERTIFIED | SPARSE_COORDS | STRUCTURE_MAPS),
    ("hyperdoctrine C 2", LAW_CHECKS | SUBSPACE_COORDS
     | {"Chart.restrict", "Chart.coords", "is_injective"}),
    ("06_adjunction", LAW_CHECKS - {"ComoduleMorphism"}
     | {"Subspace.coords"}),
    ("07_beck", LAW_CHECKS | SUBSPACE_COORDS
     | {"Chart.restrict", "Chart.coords"}),
    ("08_forall_beck", LAW_CHECKS | SUBSPACE_COORDS
     | {"Chart.restrict", "is_injective"}),
    ("09_frobenius", LAW_CHECKS | CHART_COORDS),
    ("10_ssmc", LAW_CHECKS | SPARSE_COORDS),
    ("11_lnl", DERIVED_ONLY | SPARSE_COORDS)],
    ids=["04_cotensor", "hyperdoctrine-C-2", "06_adjunction", "07_beck",
         "08_forall_beck", "09_frobenius", "10_ssmc", "11_lnl"])
def test_certificates_make_no_dense_product(monkeypatch, doc, certificates):
    # A B = 0, the restriction equation, r rho = id, is_injective's
    # decision and the laws the four constructors check are evaluated
    # from nonzeros, and so are chart restrictions, membership in a chart
    # or subspace and the structure maps of the coherence diagrams; a
    # dense product inside any of them fails
    inside, products = [], []
    entered = set()

    def watch(owner, name, label, also=()):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            inside.append(label)
            entered.add(label)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()

        for module in (owner, *also):
            monkeypatch.setattr(module, name, wrapper)

    for name in ("_annihilated", "is_injective", "coseparability_retraction",
                 *STRUCTURE_MAPS):
        watch(cm, name, name)
    watch(cm, "_restricted_coaction", "_restricted_coaction", [ix])
    for cls in (ca.Coalgebra, ca.CoalgebraMorphism, cm.Comodule,
                cm.ComoduleMorphism):
        watch(cls, "__init__", cls.__name__)
    for label in SPARSE_COORDS:
        cls, name = label.split(".")
        watch(getattr(el, cls), name, label)
    def product_kernel(name):
        real_mul = getattr(core, name)

        def mul(*args):
            if inside:
                products.append(inside[-1])
            return real_mul(*args)
        monkeypatch.setattr(core, name, mul)

    for name in ("mul_obj", "mul_mod"):
        product_kernel(name)
    if doc.startswith("hyperdoctrine"):
        text = f"field Q\ncoalg C = grouplike {{a, b}}\ncheck {doc}\n"
    else:
        text = (resources.files("comodcheck") / "corpus"
                / f"{doc}.cd").read_text()
    reps = runner.run(dsl.parse(text))
    assert reps and all(rep.passed for rep in reps)
    assert certificates <= entered
    assert products == []
