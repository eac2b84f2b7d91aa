"""The comparison maps of ``indexed`` read from nonzeros, against the dense
formulas they replaced.

Every map an ``indexed`` law check reads as coordinates is built from
column dicts with ``_kron_cols`` and ``_swapped``.  The dense expressions
below are the references: ``kron_apply`` on dense flat embeddings,
``swap_rows`` and ``apply_middle`` for the permutations and counits of
tensor factors, and coordinates solved for by ``solve_right`` (None when
a vector is outside the span), which shares no code with
``_member_coords``.  Each test compares the matrix a site produces with
its reference over Q, F_7 and F_3, on group-like bases and on bases
moved by a random change of basis, whose structure maps are dense, and
includes a planted map that misses its target, where both sides must
fail alike.
"""

import random

import pytest

from comodcheck import coalg as ca
from comodcheck import comod as cm
from comodcheck import indexed as ix
from comodcheck.errors import AxiomError
from comodcheck.exactlin import (Chart, Matrix, _dense_columns, _reduced,
                                 _swapped)
from comodcheck.fields import GF, QQ
from comodcheck.gen import (random_comodule, random_grouplike,
                            random_invertible, random_setmap_morphism)

from conftest import chart_embedding as dense
from conftest import (column_dicts, form_matrix, hom_morphisms, inverse,
                      kron, kron_apply, matmul, take_rows, transpose)

FIELDS = pytest.mark.parametrize("field", [QQ, GF(7), GF(3)],
                                 ids=["Q", "F7", "F3"])


# -- dense references ---------------------------------------------------------

def swap_rows(x, m, a, b, k):
    """(I_m (x) tau_{a,b} (x) I_k) @ x as a row permutation, tau the
    swap."""
    return take_rows(x, [((i * a + s) * b + t) * k + r for i in range(m)
                         for t in range(b) for s in range(a)
                         for r in range(k)])


def apply_middle(m, b, k, x):
    """(I_m (x) b (x) I_k) @ x as a block map: b (x) I_k acts on x read
    with k times as many columns."""
    f = x.field
    y = kron_apply(m, b, Matrix(f, m * b.cols, x.cols * k, x.data))
    return Matrix(f, y.rows * k, x.cols, y.data)


def solve(basis, y):
    """The coordinates of y's columns in the independent columns of
    basis, or None when one is outside their span."""
    return basis.solve_right(y)


def hat_factor(v):
    """R with R[(c, j), a] = rho_V[(a, c), j]: vec((f (x) id) rho_V) =
    (I_W (x) R) vec f."""
    m, n = v.dim, v.base.dim
    return Matrix(v.field, n * m, m, [v.rho[a * n + c, j] for c in range(n)
                                      for j in range(m) for a in range(m)])


def tensor_fwd(phi, v_dim, w_dim, x):
    nc = phi.source.dim
    return swap_rows(kron_apply(v_dim * w_dim, phi.source.delta, x),
                     v_dim, w_dim, nc, nc)


def as_matrix(field, rows, columns):
    return _dense_columns(field, rows, _reduced(columns, field.char))


def recorded(monkeypatch):
    """(source, target, columns) of every comodule morphism ``indexed``
    builds from here on."""
    made = []
    real = ix.ComoduleMorphism

    def record(source, target, columns):
        made.append((source, target, columns))
        return real(source, target, columns)

    monkeypatch.setattr(ix, "ComoduleMorphism", record)
    return made


def built(made, i, source, target):
    """The matrix of the i-th morphism recorded, which must run from
    source to target."""
    assert made[i][:2] == (source, target)
    return _dense_columns(source.field, target.dim, made[i][2])


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


def moved_morphism(phi, source_iso, target_iso):
    """phi: D -> C read between the moved bases of D and C."""
    back = inverse(target_iso.matrix)
    return ca.CoalgebraMorphism(source_iso.source, target_iso.source,
                                column_dicts(matmul(back, phi.matrix,
                                                    source_iso.matrix)))


def moved_comodule(v, iso):
    """V over C as a comodule over the moved basis of C."""
    back = ca.CoalgebraMorphism(iso.target, iso.source,
                                column_dicts(inverse(iso.matrix)))
    return ix.sigma(back, v)


def comodule(rng, base):
    """A random nonzero comodule over a group-like base, in a scrambled
    basis."""
    while True:
        v = random_comodule(rng, base, max_dim=2, max_total=3,
                            conjugated=True)
        if v.dim:
            return v


def morphism_cases(field, count=3):
    """(phi, V over the source, W and U over the target): group-like
    bases, then the same bases moved by a random change of basis."""
    rng = random.Random(41 + field.char)
    cases = []
    for _ in range(count):
        src = random_grouplike(rng, field, max_labels=3)
        tgt = random_grouplike(rng, field, max_labels=2)
        phi = random_setmap_morphism(rng, src, tgt)
        v, w, u = comodule(rng, src), comodule(rng, tgt), comodule(rng, tgt)
        cases.append((phi, v, w, u))
        _, si = moved(rng, src)
        _, ti = moved(rng, tgt)
        cases.append((moved_morphism(phi, si, ti), moved_comodule(v, si),
                      moved_comodule(w, ti), moved_comodule(u, ti)))
    return cases


def random_morphism(rng, v, w):
    """A random combination of the basis of Hom^C(V, W)."""
    f = v.field
    mat = Matrix.zeros(f, w.dim, v.dim)
    for g in hom_morphisms(v, w):
        mat = mat + g.matrix.scale(rng.randint(-2, 2))
    return cm.ComoduleMorphism(v, w, column_dicts(mat))


# -- the one permutation of tensor factors -------------------------------------

@FIELDS
def test_swapped_matches_swap_rows(field):
    rng = random.Random(field.char + 3)
    for _ in range(40):
        m, a, b, k = (rng.randint(1, 3) for _ in range(4))
        rows, cols = m * a * b * k, rng.randint(0, 3)
        x = Matrix(field, rows, cols,
                   [field.of(rng.randint(-3, 3)) if rng.random() < 0.4
                    else 0 for _ in range(rows * cols)])
        assert _dense_columns(field, rows, _swapped(
            column_dicts(x), m, a, b, k)) == swap_rows(x, m, a, b, k)


# -- pullbacks, transposes and the forall unit --------------------------------

@FIELDS
def test_pullback_maps_transposes_and_unit_match_the_dense_formulas(field):
    rng = random.Random(field.char + 5)
    for phi, v, w, _ in morphism_cases(field):
        nd = phi.source.dim
        # phi^* on a morphism W -> W (+) W
        ww = cm.direct_sum(w, w)
        f = random_morphism(rng, w, ww)
        src, tgt = ix.pullback_functor(phi, w), ix.pullback_functor(phi, ww)
        assert ix.pullback_map(phi, f, src, tgt).matrix == solve(
            tgt[1].basis, kron_apply(f.matrix, nd, src[1].basis))
        # hats and tildes of the whole hom bases, as adjunction_certificate
        # applies them
        pw = src
        left = cm.hom_space(ix.sigma(phi, v), w)
        right = cm.hom_space(v, pw[0])
        m = v.dim
        flat = kron_apply(w.dim, hat_factor(v), left.basis)
        coords = solve(pw[1].basis, Matrix(field, pw[1].ambient,
                                           m * left.dim, flat.data))
        hats = Matrix(field, pw[0].dim * m, left.dim, coords.data)
        assert as_matrix(field, pw[0].dim * m, ix._batched_hat(
            v, w.dim, pw, left.columns)) == hats
        rec = kron_apply(w.dim, phi.source.epsilon, pw[1].basis)
        assert _dense_columns(field, w.dim, ix._tilde_factor(
            phi, w, pw[1])) == rec
        assert as_matrix(field, w.dim * m, ix._batched_tilde(
            ix._tilde_factor(phi, w, pw[1]), m, right.columns)) \
            == kron_apply(rec, m, right.basis)
        # the unit of phi^* -| forall on group-like bases
        if ca.grouplike_labels(phi.source) is not None:
            assert as_matrix(field, pw[0].dim, ix._unit_coords(
                phi, w, pw[1])) == solve(
                pw[1].basis,
                kron_apply(w.dim, transpose(phi.matrix), w.rho))


@FIELDS
def test_a_hat_off_the_equalizer_fails_on_both_sides(field):
    # every entry of vec f set to 1 is no map Sigma_phi V -> W: its hat
    # leaves phi^* W, so the solve finds nothing and the batched hat raises
    g_ab = ca.grouplike_coalgebra(field, ["a", "b"])
    g_xyz = ca.grouplike_coalgebra(field, ["x", "y", "z"])
    phi = ca.grouplike_morphism(g_xyz, g_ab, {"x": "a", "y": "a", "z": "b"})
    v = cm.graded_comodule(g_xyz, [1, 1, 1])
    w = cm.graded_comodule(g_ab, [1, 1])
    pw = ix.pullback_functor(phi, w)
    ones = Matrix(field, w.dim * v.dim, 1, [1] * (w.dim * v.dim))
    assert solve(pw[1].basis, Matrix(field, pw[1].ambient, v.dim, kron_apply(
        w.dim, hat_factor(v), ones).data)) is None
    with pytest.raises(AxiomError) as err:
        ix._batched_hat(v, w.dim, pw, column_dicts(ones))
    assert err.value.axiom == "transpose-hat"


# -- pullback squares and Beck-Chevalley ----------------------------------------

def squares(field):
    """Pullback squares of group-like cospans: the canonical one, and one
    whose apex is moved by a change of basis, so that t is no identity."""
    rng = random.Random(field.char + 7)
    out = []
    for _ in range(2):
        c = random_grouplike(rng, field, max_labels=2)
        d1 = random_grouplike(rng, field, max_labels=3)
        d2 = random_grouplike(rng, field, max_labels=2)
        beta = random_setmap_morphism(rng, d1, c)
        alpha = random_setmap_morphism(rng, d2, c)
        canonical = ix.PullbackSquare.from_cospan(beta, alpha)
        _, p = moved(rng, canonical.delta.source)
        out.append(canonical)
        out.append(ix.PullbackSquare(canonical.delta @ p,
                                     canonical.gamma @ p, beta, alpha))
    return out


@FIELDS
def test_pullback_square_t_matches_the_dense_formula(field):
    for square in squares(field):
        delta, gamma = square.delta, square.gamma
        m = solve(square.cotensor.basis, kron_apply(
            delta.matrix, gamma.matrix, delta.source.delta))
        assert _dense_columns(field, m.rows, square.t) == inverse(m)
        assert square.t == column_dicts(inverse(m))


def dense_beck(square, v):
    """phi_V and psi_V by the dense formulas, each None when it misses."""
    f = v.field
    n1 = square.beta.source.dim
    n2 = square.alpha.source.dim
    side1 = ix.pullback_functor(square.beta, ix.sigma(square.alpha, v))
    side2 = ix.pullback_functor(square.gamma, v)
    step = swap_rows(kron_apply(v.rho, n1, side1[1].basis), v.dim, n2, n1, 1)
    chart = Chart.kron(Chart.identity(f, v.dim),
                       Chart.restrict(Chart.identity(f, n1 * n2),
                                      square.cotensor))
    coords = solve(dense(chart), step)
    phi = None if coords is None else solve(
        side2[1].basis, kron_apply(v.dim, _dense_columns(
            f, square.delta.source.dim, square.t), coords))
    psi = solve(side1[1].basis, kron_apply(v.dim, square.delta.matrix,
                                           side2[1].basis))
    return phi, psi


@FIELDS
def test_beck_maps_match_the_dense_formulas(field):
    rng = random.Random(field.char + 11)
    for square in squares(field):
        for _ in range(2):
            v = comodule(rng, square.alpha.source)
            phi, psi, _, _ = ix.beck_maps(square, v)
            assert (phi.matrix, psi.matrix) == dense_beck(square, v)


@FIELDS
def test_a_beck_map_off_the_equalizer_fails_on_both_sides(field):
    # t replaced by the map sending every coordinate to the first one:
    # phi_V then misses the equalizer of gamma^* V on both sides
    g_ab = ca.grouplike_coalgebra(field, ["a", "b"])
    square = ix.PullbackSquare.from_cospan(
        ca.grouplike_morphism(ca.grouplike_coalgebra(field, ["x", "y", "z"]),
                              g_ab, {"x": "a", "y": "b", "z": "b"}),
        ca.grouplike_morphism(ca.grouplike_coalgebra(field, ["p", "q"]),
                              g_ab, {"p": "a", "q": "b"}))
    v = cm.graded_comodule(square.alpha.source, [1, 1])
    square.t = [{0: 1} for _ in range(square.delta.source.dim)]
    assert dense_beck(square, v)[0] is None
    assert ix.beck_maps(square, v)[:2] == (None, None)


@FIELDS
def test_forall_beck_mate_matches_the_dense_formula(field, monkeypatch):
    rng = random.Random(field.char + 13)
    for square in squares(field)[::2]:
        v = comodule(rng, square.beta.source)
        made = recorded(monkeypatch)
        assert ix.beck_for_forall_check(square, v).passed
        pv = ix.pullback_functor(square.delta, v)
        rhs = ix.forall(square.beta, v)
        pa = ix._pullback_obj(square.alpha, cm.atom(rhs),
                              ix.pullback_functor(square.alpha, rhs))
        pga = ix.pullback_functor(square.gamma, pa.module)
        d = square.delta.source
        regroup = kron(square.alpha.source.epsilon,
                       kron_apply(square.delta.matrix, d.dim, d.delta))
        flat = kron_apply(rhs.dim, regroup, dense(
            ix._pullback_obj(square.gamma, pa, pga).chart))
        r = _dense_columns(field, v.dim, cm.coseparability_retraction(v))
        g = solve(pv[1].basis, kron_apply(r, d.dim, flat))
        assert built(made, 0, pga[0], pv[0]) == g
        monkeypatch.undo()


# -- Frobenius, strong monoidal closure and composition -------------------------

@FIELDS
def test_frobenius_maps_match_the_dense_formulas(field, monkeypatch):
    for phi, v, w, _ in morphism_cases(field):
        made = recorded(monkeypatch)
        assert ix.frobenius_check(phi, v, w).passed
        monkeypatch.undo()
        nc = phi.source.dim
        pw = ix._pullback_obj(phi, cm.atom(w), ix.pullback_functor(phi, w))
        inner = cm.ct(cm.atom(v), pw)
        lhs = ix.sigma(phi, inner.module)
        rhs = cm.ct(cm.atom(ix.sigma(phi, v)), cm.atom(w))
        assert built(made, 0, lhs, rhs.module) == solve(
            dense(rhs.chart), kron_apply(v.dim * w.dim, phi.source.epsilon,
                                         dense(inner.chart)))
        assert built(made, 1, rhs.module, lhs) == solve(
            dense(inner.chart), swap_rows(kron_apply(
                v.rho, w.dim, dense(rhs.chart)), v.dim, nc, w.dim, 1))


def ssmc_objects(phi, v, w):
    av, aw = cm.atom(v), cm.atom(w)
    vw = cm.ct(av, aw)
    p_vw = ix._pullback_obj(phi, vw, ix.pullback_functor(phi, vw.module))
    pv = ix._pullback_obj(phi, av, ix.pullback_functor(phi, v))
    pw = ix._pullback_obj(phi, aw, ix.pullback_functor(phi, w))
    return p_vw, pv, pw


def dense_tensor_iso(phi, v, w, lhs, rhs):
    nc = phi.source.dim
    return (solve(dense(rhs.chart), tensor_fwd(phi, v.dim, w.dim,
                                               dense(lhs.chart))),
            solve(dense(lhs.chart), apply_middle(
                v.dim, phi.source.epsilon, w.dim * nc, dense(rhs.chart))))


@FIELDS
def test_tensor_isos_and_closedness_match_the_dense_formulas(field,
                                                            monkeypatch):
    # strong monoidal closure needs cosemisimple bases: group-like ones,
    # and over Q the moved ones too
    cases = morphism_cases(field)
    for phi, _, v, w in cases if not field.char else cases[::2]:
        f, nc = field, phi.source.dim
        p_vw, pv, pw = ssmc_objects(phi, v, w)
        pv_pw = cm.ct(pv, pw)
        fwd, bwd = ix._tensor_iso(phi, v, w, p_vw, pv_pw)
        assert (fwd.matrix, bwd.matrix) \
            == dense_tensor_iso(phi, v, w, p_vw, pv_pw)
        made = recorded(monkeypatch)
        assert ix.ssmc_check(phi, v, w).passed
        monkeypatch.undo()
        hom_mod, hom_sub = cm.internal_hom(v, w)
        p_hom, p_hom_sub = ix.pullback_functor(phi, hom_mod)
        hom_p, hom_p_sub = cm.internal_hom(pv.module, pw.module)
        gamma = Matrix(f, nc, nc, form_matrix(phi.source).data)
        pair = transpose(kron_apply(v.dim, gamma, dense(pv.chart)))
        split = swap_rows(kron_apply(hom_sub.basis, phi.source.delta,
                                     p_hom_sub.basis), w.dim, v.dim, nc, nc)
        chart = Chart.restrict(Chart.kron(pw.chart, Chart.identity(
            f, pv.module.dim)), hom_p_sub)
        assert built(made, -1, p_hom, hom_p) == solve(
            dense(chart), kron_apply(w.dim * nc, pair, split))


@FIELDS
def test_a_tensor_iso_into_the_wrong_order_fails_on_both_sides(field):
    # phi^* V (x) phi^* W presented in the order W, V: for dim V != dim W
    # neither map lands in its target
    g_ab = ca.grouplike_coalgebra(field, ["a", "b"])
    g_xyz = ca.grouplike_coalgebra(field, ["x", "y", "z"])
    phi = ca.grouplike_morphism(g_xyz, g_ab, {"x": "a", "y": "a", "z": "b"})
    v = cm.graded_comodule(g_ab, [2, 1])
    w = cm.graded_comodule(g_ab, [1, 1])
    p_vw, pv, pw = ssmc_objects(phi, v, w)
    swapped = cm.ct(pw, pv)
    assert dense_tensor_iso(phi, v, w, p_vw, swapped) == (None, None)
    assert ix._tensor_iso(phi, v, w, p_vw, swapped) == (None, None)


@FIELDS
def test_composition_pair_matches_the_dense_formulas(field, monkeypatch):
    rng = random.Random(field.char + 17)
    for phi, v, _, _ in morphism_cases(field):
        c = phi.target
        if c.labels is None:
            psi = ca.counit_morphism(c)
        else:
            psi = random_setmap_morphism(
                rng, c, random_grouplike(rng, field, max_labels=2))
        w = comodule(rng, psi.target)
        made = recorded(monkeypatch)
        strict, pair, _ = ix.composition_isos(phi, psi, v, w)
        assert strict and pair is not None
        monkeypatch.undo()
        composite = psi @ phi
        nc = phi.source.dim
        aw = cm.atom(w)
        lhs = ix._pullback_obj(composite, aw,
                               ix.pullback_functor(composite, w))
        psw = ix._pullback_obj(psi, aw, ix.pullback_functor(psi, w))
        rhs = ix._pullback_obj(phi, psw,
                               ix.pullback_functor(phi, psw.module))
        assert built(made, 0, lhs.module, rhs.module) == solve(
            dense(rhs.chart), kron_apply(w.dim, kron_apply(
                phi.matrix, nc, phi.source.delta), dense(lhs.chart)))
        assert built(made, 1, rhs.module, lhs.module) == solve(
            dense(lhs.chart), apply_middle(w.dim, psi.source.epsilon, nc,
                                           dense(rhs.chart)))
