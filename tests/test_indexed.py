import ast
import random
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from comodcheck import coalg as ca
from comodcheck import comod as cm
from comodcheck import dsl, runner
from comodcheck import indexed as ix
from comodcheck import oracle as orc
from comodcheck.errors import (AxiomError, BaseMismatchError,
                               HypothesisViolatedError)
from comodcheck.exactlin import Matrix, Subspace, _dense_columns, _reduced
from comodcheck.fields import GF, QQ
from comodcheck.gen import (random_comodule, random_grouplike,
                            random_setmap_morphism)

from conftest import (column_dicts, columns, count_calls, find_isomorphism,
                      gx_coalgebra, hom_morphisms, kron, kron_apply, matmul,
                      sqrt2_dual)

F = QQ


@pytest.fixture
def g_ab():
    return ca.grouplike_coalgebra(F, ["a", "b"])


@pytest.fixture
def g_xyz():
    return ca.grouplike_coalgebra(F, ["x", "y", "z"])


@pytest.fixture
def phi(g_ab, g_xyz):
    return ca.grouplike_morphism(g_xyz, g_ab,
                                 {"x": "a", "y": "a", "z": "b"})


# -- Sigma ------------------------------------------------------------------------

def test_sigma_identity_functor(g_xyz):
    v = cm.graded_comodule(g_xyz, [1, 2, 0])
    assert ix.sigma(g_xyz.identity_morphism(), v) == v


def test_sigma_fiber_sums(phi, g_xyz):
    v = cm.graded_comodule(g_xyz, [1, 1, 1])
    assert orc.to_graded(ix.sigma(phi, v)).dims == (2, 1)


def test_sigma_composition_strict(phi, g_ab, g_xyz):
    g_t = ca.grouplike_coalgebra(F, ["t"])
    psi = ca.grouplike_morphism(g_ab, g_t, {"a": "t", "b": "t"})
    v = cm.graded_comodule(g_xyz, [1, 2, 1])
    assert ix.sigma(psi @ phi, v) == ix.sigma(psi, ix.sigma(phi, v))


def test_sigma_base_mismatch(phi, g_ab):
    with pytest.raises(BaseMismatchError):
        ix.sigma(phi, cm.graded_comodule(g_ab, [1, 1]))


# -- pullback functor ----------------------------------------------------------------

def test_pullback_identity_up_to_unit_iso(g_ab):
    rng = random.Random(0)
    w = cm.graded_comodule(g_ab, [2, 1])
    pid, _ = ix.pullback_functor(g_ab.identity_morphism(), w)
    assert find_isomorphism(pid, w, rng) is not None


def test_pullback_regrades_along_map(phi, g_ab):
    w = cm.graded_comodule(g_ab, [2, 1])
    pw, _ = ix.pullback_functor(phi, w)
    assert orc.to_graded(pw).dims == (2, 2, 1)


def test_pullback_composition_iso(phi, g_ab, g_xyz):
    g_t = ca.grouplike_coalgebra(F, ["t"])
    psi = ca.grouplike_morphism(g_ab, g_t, {"a": "t", "b": "t"})
    v = cm.graded_comodule(g_xyz, [1, 0, 2])
    w = cm.graded_comodule(g_t, [2])
    strict, pair, dims = ix.composition_isos(phi, psi, v, w)
    assert strict and pair is not None
    assert dims["composite_pull"] == dims["iterated_pull"]


def test_composition_isos_are_an_exact_inverse_pair(phi, g_ab, g_xyz):
    # (psi phi)^* W <-> phi^* psi^* W by w (x) c -> w (x) phi(c_1) (x) c_2
    # and w (x) d (x) c -> eps(d) w (x) c, mutually inverse on the nose
    rng = random.Random(2)
    g_uv = ca.grouplike_coalgebra(F, ["u", "v"])
    psi = ca.grouplike_morphism(g_ab, g_uv, {"a": "v", "b": "v"})
    for _ in range(3):
        v = random_comodule(rng, g_xyz, max_dim=2)
        w = random_comodule(rng, g_uv, max_dim=2, conjugated=True)
        strict, (fwd, bwd), dims = ix.composition_isos(phi, psi, v, w)
        assert strict
        lhs, _ = ix.pullback_functor(psi @ phi, w)
        rhs, _ = ix.pullback_functor(phi, ix.pullback_functor(psi, w)[0])
        assert (fwd.source, fwd.target) == (bwd.target, bwd.source) \
            == (lhs, rhs)
        assert matmul(fwd.matrix, bwd.matrix) == Matrix.identity(F, rhs.dim)
        assert matmul(bwd.matrix, fwd.matrix) == Matrix.identity(F, lhs.dim)
        assert dims == {"composite_pull": lhs.dim, "iterated_pull": rhs.dim}


def test_pullback_functorial_on_morphisms(phi, g_ab):
    w1 = cm.graded_comodule(g_ab, [2, 1])
    w2 = cm.graded_comodule(g_ab, [1, 1])
    for f in hom_morphisms(w1, w2):
        lifted = ix.pullback_map(phi, f)
        assert lifted.source.dim == 5 and lifted.target.dim == 3


# -- hat/tilde transposes ---------------------------------------------------------------

def test_unit_of_adjunction_is_hat_of_identity(phi, g_xyz):
    v = cm.regular_comodule(g_xyz)
    sv = ix.sigma(phi, v)
    eta = ix.transpose_hat(phi, v, sv.identity_morphism())
    # the unit embeds V into pullback(Sigma V)
    assert eta.matrix.rank() == v.dim


def test_transpose_round_trips_random(phi, g_xyz, g_ab):
    rng = random.Random(3)
    for _ in range(5):
        v = random_comodule(rng, g_xyz, max_dim=2)
        w = random_comodule(rng, g_ab, max_dim=2)
        cert = ix.adjunction_certificate(phi, v, w)
        assert cert.ok
        assert cert.dim_sigma_side == cert.dim_pullback_side


def test_adjunction_on_non_grouplike_cosemisimple_base():
    k2 = sqrt2_dual()
    gu = ca.grouplike_coalgebra(F, ["u"])
    ks = ca.direct_sum(k2, gu)
    assert ca.is_cosemisimple(ks) and not ks.is_grouplike()
    inc = ca.CoalgebraMorphism(
        k2, ks, columns(F, [[1, 0], [0, 1], [0, 0]]))
    v = cm.regular_comodule(k2)
    w = cm.direct_sum(cm.regular_comodule(ks), cm.regular_comodule(ks))
    cert = ix.adjunction_certificate(inc, v, w)
    assert cert.ok


FIELDS = pytest.mark.parametrize("field", [QQ, GF(7), GF(3)],
                                 ids=["Q", "F7", "F3"])


def adjunction_cases(field):
    """Random group-like (phi, V, W) in scrambled bases, then the
    non-group-like K + <u> cases of acceptance criterion 4."""
    rng = random.Random(15 + field.char)
    cases = []
    for _ in range(6):
        src = random_grouplike(rng, field, max_labels=3)
        tgt = random_grouplike(rng, field, max_labels=3)
        cases.append((random_setmap_morphism(rng, src, tgt),
                      random_comodule(rng, src, max_dim=2, max_total=5,
                                      conjugated=True),
                      random_comodule(rng, tgt, max_dim=2, max_total=5,
                                      conjugated=True)))
    k2 = sqrt2_dual(field)
    ks = ca.direct_sum(k2, ca.grouplike_coalgebra(field, ["u"]))
    inc = ca.CoalgebraMorphism(
        k2, ks, columns(field, [[1, 0], [0, 1], [0, 0]]))
    eps = ca.counit_morphism(ks)
    regk, regs = cm.regular_comodule(k2), cm.regular_comodule(ks)
    return cases + [
        (inc, regk, regs),
        (inc, cm.direct_sum(regk, regk), regs),
        (eps, regs, cm.graded_comodule(eps.target, [2])),
        (ks.identity_morphism(), regs, cm.direct_sum(regs, regs)),
        (k2.identity_morphism(), regk, cm.direct_sum(regk, regk)),
    ]


def vec_columns(maps):
    """The {row: value} columns whose column t is the row-major vec of
    maps[t]."""
    return [{i: x for i, x in enumerate(g.matrix.data) if x} for g in maps]


@FIELDS
def test_batched_transposes_match_the_per_map_transposes(field):
    # column t of the batched hat (tilde) is vec transpose_hat(f_t)
    # (vec transpose_tilde(g_t)) for the hom basis in hom_space's order
    for phi, v, w in adjunction_cases(field):
        pw = ix.pullback_functor(phi, w)
        left = hom_morphisms(ix.sigma(phi, v), w)
        right = hom_morphisms(v, pw[0])
        hats = ix._batched_hat(v, w.dim, pw, vec_columns(left))
        tildes = ix._batched_tilde(ix._tilde_factor(phi, w, pw[1]), v.dim,
                                   vec_columns(right))
        assert _reduced(hats, field.char) == \
            vec_columns(ix.transpose_hat(phi, v, f, pw) for f in left)
        assert _reduced(tildes, field.char) == \
            vec_columns(ix.transpose_tilde(phi, v, w, g, pw) for g in right)
        cert = ix.adjunction_certificate(phi, v, w)
        assert cert.ok
        assert cert.dim_sigma_side == len(left) == len(right)


@FIELDS
def test_adjunction_on_zero_dimensional_hom_spaces(field):
    g_ab = ca.grouplike_coalgebra(field, ["a", "b"])
    g_xyz = ca.grouplike_coalgebra(field, ["x", "y", "z"])
    phi = ca.grouplike_morphism(g_xyz, g_ab,
                                {"x": "a", "y": "a", "z": "b"})
    v = cm.graded_comodule(g_xyz, [1, 2, 0])
    w = cm.graded_comodule(g_ab, [0, 2])
    for v, w in [(v, w), (cm.zero_comodule(g_xyz), w),
                 (v, cm.zero_comodule(g_ab))]:
        cert = ix.adjunction_certificate(phi, v, w)
        assert cert.ok
        assert (cert.dim_sigma_side, cert.dim_pullback_side) == (0, 0)


@FIELDS
def test_adjunction_rejects_a_planted_doubled_transpose(monkeypatch, field):
    # 2 tilde(g) is still a comodule morphism, so both round trips miss
    # by a nonzero residual and the certificate fails without raising
    real = ix._batched_tilde
    monkeypatch.setattr(ix, "_batched_tilde", lambda *args: [
        {k: 2 * x for k, x in col.items()} for col in real(*args)])
    for phi, v, w in adjunction_cases(field):
        cert = ix.adjunction_certificate(phi, v, w)
        if cert.dim_sigma_side:
            assert not cert.ok and not cert.round_trips_ok
            assert all(r is not None for r in cert.residuals)


@FIELDS
def test_adjunction_rejects_a_planted_hat_off_the_equalizer(monkeypatch,
                                                           field):
    # with every entry of R set to 1, hat(f) has a w (x) x term for each
    # x in D, including those with phi(x) off the degree of w
    g_ab = ca.grouplike_coalgebra(field, ["a", "b"])
    g_xyz = ca.grouplike_coalgebra(field, ["x", "y", "z"])
    phi = ca.grouplike_morphism(g_xyz, g_ab,
                                {"x": "a", "y": "a", "z": "b"})
    real = ix._hat_factor

    def ones(v):
        rows = v.base.dim * v.dim
        return [dict.fromkeys(range(rows), 1) for _ in real(v)]

    monkeypatch.setattr(ix, "_hat_factor", ones)
    with pytest.raises(AxiomError) as err:
        ix.adjunction_certificate(phi, cm.graded_comodule(g_xyz, [1, 2, 1]),
                                  cm.graded_comodule(g_ab, [2, 1]))
    assert err.value.axiom == "transpose-hat"


def test_adjunction_certificate_builds_sigma_once(monkeypatch, phi, g_xyz,
                                                  g_ab):
    # one Sigma_phi V per certificate and no morphism object per basis
    # vector, on the pair of 06_adjunction.cd and on one of hom dim 112
    sigmas = count_calls(monkeypatch, ix, "sigma")
    morphisms = count_calls(monkeypatch, cm.ComoduleMorphism, "__init__")
    for vdims, wdims, hom in [([1, 2, 1], [2, 1], 7),
                              ([4, 4, 6], [8, 8], 112)]:
        cert = ix.adjunction_certificate(phi,
                                         cm.graded_comodule(g_xyz, vdims),
                                         cm.graded_comodule(g_ab, wdims))
        assert cert.ok
        assert cert.dim_sigma_side == cert.dim_pullback_side == hom
        assert len(sigmas) == 1
        sigmas.clear()
    assert morphisms == []


def test_transpose_naturality(phi, g_xyz, g_ab):
    rng = random.Random(5)
    v1 = cm.graded_comodule(g_xyz, [1, 1, 1])
    v2 = cm.graded_comodule(g_xyz, [1, 2, 1])
    w = cm.graded_comodule(g_ab, [1, 1])
    pw = ix.pullback_functor(phi, w)
    homs = hom_morphisms(v1, v2)
    maps = hom_morphisms(ix.sigma(phi, v2), w)
    for h in homs[:2]:
        for f in maps[:2]:
            # hat(f o Sigma h) = hat(f) o h
            sh = ix.sigma_map(phi, h)
            lhs = ix.transpose_hat(phi, v1, f @ sh, pw)
            rhs = ix.transpose_hat(phi, v2, f, pw)
            assert lhs.matrix == matmul(rhs.matrix, h.matrix)


def test_sigma_triangles(phi, g_xyz, g_ab):
    v = cm.graded_comodule(g_xyz, [1, 2, 1])
    w = cm.graded_comodule(g_ab, [2, 1])
    assert ix.adjoint_triple_identities(phi, v, w) is None


def test_sigma_triangles_reject_a_planted_wrong_counit(monkeypatch, phi,
                                                      g_xyz, g_ab):
    # 2 eps is still a comodule morphism, but no longer a counit; the
    # forall side does not use it
    real = ix.transpose_tilde

    def tilde(*args):
        eps = real(*args)
        return cm.ComoduleMorphism(eps.source, eps.target,
                                   column_dicts(eps.matrix.scale(2)))

    monkeypatch.setattr(ix, "transpose_tilde", tilde)
    v = cm.graded_comodule(g_xyz, [1, 2, 1])
    w = cm.graded_comodule(g_ab, [2, 1])
    assert ix.adjoint_triple_identities(phi, v, w) == "exists"


# -- forall ---------------------------------------------------------------------------

def test_forall_identity(g_xyz):
    v = cm.graded_comodule(g_xyz, [1, 2, 0])
    out = ix.forall(g_xyz.identity_morphism(), v)
    assert orc.to_graded(out).dims == (1, 2, 0)


def test_forall_fiber_products(phi, g_xyz):
    v = cm.graded_comodule(g_xyz, [1, 2, 3])
    assert orc.to_graded(ix.forall(phi, v)).dims == (3, 3)


def test_forall_gating_on_non_coflat():
    gx = gx_coalgebra()
    triv = ca.trivial_coalgebra(F)
    # picks the group-like g: U(phi) is the non-injective simple comodule
    phi_bad = ca.CoalgebraMorphism(triv, gx, columns(F, [[1], [0]]))
    with pytest.raises(HypothesisViolatedError):
        ix.forall(phi_bad, cm.regular_comodule(triv))


def test_forall_never_refuses_cosemisimple(phi, g_xyz):
    rng = random.Random(6)
    for _ in range(5):
        v = random_comodule(rng, g_xyz, max_dim=2)
        ix.forall(phi, v)


def test_forall_adjunction_dim_tables(phi, g_xyz, g_ab):
    rng = random.Random(7)
    for _ in range(5):
        v = random_comodule(rng, g_xyz, max_dim=2)
        w = random_comodule(rng, g_ab, max_dim=2)
        fv = ix.forall(phi, v)
        pw = ix.pullback_functor(phi, w)
        assert cm.hom_space(pw[0], v).dim == cm.hom_space(w, fv).dim


def test_forall_transpose_round_trips(phi, g_xyz, g_ab):
    v = cm.graded_comodule(g_xyz, [1, 2, 1])
    w = cm.graded_comodule(g_ab, [2, 1])
    fv = ix.forall(phi, v)
    pw = ix.pullback_functor(phi, w)
    for g in hom_morphisms(pw[0], v):
        h = ix.forall_transpose_fwd(phi, w, pw, g)
        assert ix.forall_transpose_bwd(phi, v, pw, h).matrix == g.matrix
    for h in hom_morphisms(w, fv):
        g = ix.forall_transpose_bwd(phi, v, pw, h)
        assert ix.forall_transpose_fwd(phi, w, pw, g).matrix == h.matrix


def test_forall_triangles(phi, g_xyz, g_ab):
    # an empty component on each side: the fiber of b holds only z
    v = cm.graded_comodule(g_xyz, [2, 0, 1])
    w = cm.graded_comodule(g_ab, [0, 2])
    assert ix.adjoint_triple_identities(phi, v, w) is None


def test_adjoint_triple_builds_each_pullback_once(monkeypatch, phi, g_xyz,
                                                  g_ab):
    # phi^* W, phi^* Sigma V and phi^* Sigma phi^* W serve all four
    # identities; one forall each for the units of W and Sigma V
    pulls = count_calls(monkeypatch, ix, "pullback_functor")
    foralls = count_calls(monkeypatch, ix, "forall")
    v = cm.graded_comodule(g_xyz, [1, 2, 1])
    w = cm.graded_comodule(g_ab, [2, 1])
    assert ix.adjoint_triple_identities(phi, v, w) is None
    assert len(pulls) == 3
    assert len(foralls) == 2


def test_forall_triangles_reject_a_planted_wrong_unit(monkeypatch, phi,
                                                     g_xyz, g_ab):
    # 2 eta is still a comodule morphism, but no longer a unit; the exists
    # side does not use it
    real = ix.forall_unit

    def unit(*args):
        eta = real(*args)
        return cm.ComoduleMorphism(eta.source, eta.target,
                                   column_dicts(eta.matrix.scale(2)))

    monkeypatch.setattr(ix, "forall_unit", unit)
    v = cm.graded_comodule(g_xyz, [1, 2, 1])
    w = cm.graded_comodule(g_ab, [2, 1])
    assert ix.adjoint_triple_identities(phi, v, w) == "forall"


def test_forall_triangles_decide_coflatness_once(monkeypatch, phi, g_xyz,
                                                 g_ab):
    # both foralls share phi, so U(phi) is decided once
    calls = count_calls(monkeypatch, cm, "is_injective")
    v = cm.graded_comodule(g_xyz, [1, 2, 1])
    w = cm.graded_comodule(g_ab, [2, 1])
    assert ix.adjoint_triple_identities(phi, v, w) is None
    assert len(calls) == 1


def test_non_coflat_decision_is_kept_on_the_morphism(monkeypatch):
    gx = gx_coalgebra()
    triv = ca.trivial_coalgebra(F)
    phi_bad = ca.CoalgebraMorphism(triv, gx, columns(F, [[1], [0]]))
    calls = count_calls(monkeypatch, cm, "is_injective")
    for _ in range(2):
        with pytest.raises(HypothesisViolatedError):
            ix.forall(phi_bad, cm.regular_comodule(triv))
    assert len(calls) == 1
    assert phi_bad.u_coflat is False


# -- Beck-Chevalley ----------------------------------------------------------------------

def cospan(g_ab):
    g_xyz = ca.grouplike_coalgebra(F, ["x", "y", "z"])
    g_pq = ca.grouplike_coalgebra(F, ["p", "q"])
    beta = ca.grouplike_morphism(g_xyz, g_ab, {"x": "a", "y": "b", "z": "b"})
    alpha = ca.grouplike_morphism(g_pq, g_ab, {"p": "a", "q": "b"})
    return beta, alpha


def test_pullback_square_validation(g_ab):
    beta, alpha = cospan(g_ab)
    square = ix.PullbackSquare.from_cospan(beta, alpha)
    assert matmul(square.beta.matrix, square.delta.matrix) \
        == matmul(square.alpha.matrix, square.gamma.matrix)


def test_commuting_square_that_is_not_a_pullback_is_rejected():
    # {s} -> (x, p) misses (y, p) of the pullback {x, y} x_{a} {p}
    g_s = ca.grouplike_coalgebra(F, ["s"])
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    g_p = ca.grouplike_coalgebra(F, ["p"])
    g_a = ca.grouplike_coalgebra(F, ["a"])
    delta = ca.grouplike_morphism(g_s, g_xy, {"s": "x"})
    gamma = ca.grouplike_morphism(g_s, g_p, {"s": "p"})
    beta = ca.grouplike_morphism(g_xy, g_a, {"x": "a", "y": "a"})
    alpha = ca.grouplike_morphism(g_p, g_a, {"p": "a"})
    with pytest.raises(AxiomError) as exc:
        ix.PullbackSquare(delta, gamma, beta, alpha)
    assert exc.value.axiom == "pullback-square"


def test_beck_chevalley_identity_square(g_ab):
    square = ix.PullbackSquare.from_cospan(g_ab.identity_morphism(),
                                           g_ab.identity_morphism())
    rep = ix.beck_chevalley_check(square, cm.graded_comodule(g_ab, [1, 2]))
    assert rep.passed


def test_beck_chevalley_grouplike_square(g_ab):
    beta, alpha = cospan(g_ab)
    square = ix.PullbackSquare.from_cospan(beta, alpha)
    v = cm.graded_comodule(alpha.source, [1, 1])
    rep = ix.beck_chevalley_check(square, v)
    assert rep.passed
    assert rep.dims["push_then_pull"] == rep.dims["pull_then_push"]


def test_beck_check_reuses_the_square_pullback(monkeypatch, g_ab):
    beta, alpha = cospan(g_ab)
    square = ix.PullbackSquare.from_cospan(beta, alpha)
    calls = count_calls(monkeypatch, ix, "coalg_pullback")
    rep = ix.beck_chevalley_check(square, cm.graded_comodule(alpha.source,
                                                             [1, 2]))
    assert rep.passed
    assert calls == []


def test_from_cospan_builds_one_canonical_pullback(monkeypatch, g_ab):
    beta, alpha = cospan(g_ab)
    calls = count_calls(monkeypatch, ix, "coalg_pullback")
    square = ix.PullbackSquare.from_cospan(beta, alpha)
    assert len(calls) == 1
    assert square.t == [{t: 1} for t in range(square.delta.source.dim)]
    assert ix.beck_chevalley_check(
        square, cm.graded_comodule(alpha.source, [1, 2])).passed


def test_from_cospan_builds_one_cotensor_kernel(monkeypatch, g_ab):
    # coalg.pullback reads the legs off the kernel that certifies them
    beta, alpha = cospan(g_ab)
    calls = [count_calls(monkeypatch, cm, "_cotensor_kernel"),
             count_calls(monkeypatch, ix, "_cotensor_kernel")]
    ix.PullbackSquare.from_cospan(beta, alpha)
    assert sum(map(len, calls)) == 1


def test_from_cospan_takes_t_as_the_identity(monkeypatch, g_ab):
    # the legs read off the cotensor kernel need no coordinates and no
    # inverse: (u (x) v) delta_P = B follows from the closure equation and
    # the counit laws
    beta, alpha = cospan(g_ab)
    calls = [count_calls(monkeypatch, Subspace, "coords"),
             count_calls(monkeypatch, ix, "_inverse")]
    square = ix.PullbackSquare.from_cospan(beta, alpha)
    assert calls == [[], []]
    assert square.t == [{t: 1} for t in range(square.delta.source.dim)]
    delta, gamma = square.delta, square.gamma
    assert kron_apply(delta.matrix, gamma.matrix, delta.source.delta) \
        == square.cotensor.basis


def test_from_cospan_rejects_a_kernel_that_is_not_delta_closed(monkeypatch,
                                                                g_ab):
    # t = I rests on the closure equation that coalg.pullback checks on
    # the kernel: a planted kernel spanned by the sum of two group-like
    # pairs is not delta-closed and must still fail
    beta, alpha = cospan(g_ab)
    real = ix._cotensor_kernel

    def planted(v, w):
        sub = real(v, w)
        summed = {**sub.columns[0], **sub.columns[1]}
        return Subspace(sub.field, sub.ambient, [summed])

    monkeypatch.setattr(ix, "_cotensor_kernel", planted)
    with pytest.raises(AxiomError) as exc:
        ix.PullbackSquare.from_cospan(beta, alpha)
    assert exc.value.axiom == "subcoalgebra-closure"


def test_beck_phi_naturality(g_ab):
    beta, alpha = cospan(g_ab)
    square = ix.PullbackSquare.from_cospan(beta, alpha)
    v1 = cm.graded_comodule(alpha.source, [1, 1])
    v2 = cm.graded_comodule(alpha.source, [2, 1])
    phi1, psi1, side1a, side2a = ix.beck_maps(square, v1)
    phi2, psi2, side1b, side2b = ix.beck_maps(square, v2)
    nd1 = square.beta.source.dim
    nd = square.delta.source.dim
    for h in hom_morphisms(v1, v2)[:3]:
        # functor actions on h for both composites
        sh1 = ix.pullback_map(square.beta,
                              ix.sigma_map(square.alpha, h),
                              src=side1a, tgt=side1b)
        sh2m = ix.pullback_map(square.gamma, h)
        lhs = matmul(phi2.matrix, sh1.matrix)
        rhs = sh2m.matrix  # underlying matrix of Sigma_delta(gamma^* h)
        assert lhs == matmul(rhs, phi1.matrix)


def test_beck_oracle_agreement(g_ab):
    rng = random.Random(11)
    for trial in range(5):
        src1 = ca.grouplike_coalgebra(F, ["x", "y"])
        src2 = ca.grouplike_coalgebra(F, ["p", "q", "r"])
        beta = random_setmap_morphism(rng, src1, g_ab)
        alpha = random_setmap_morphism(rng, src2, g_ab)
        square = ix.PullbackSquare.from_cospan(beta, alpha)
        v = random_comodule(rng, src2, max_dim=2)
        rep = ix.beck_chevalley_check(square, v)
        assert rep.passed
        sb = orc.setmap_of_morphism(beta)
        sa = orc.setmap_of_morphism(alpha)
        gv = orc.to_graded(v)
        lhs = orc.graded_pullback(sb, orc.graded_sigma(sa, gv))
        assert sum(lhs.dims) == rep.dims["push_then_pull"]


def test_beck_for_forall(g_ab):
    beta, alpha = cospan(g_ab)
    square = ix.PullbackSquare.from_cospan(beta, alpha)
    v = cm.graded_comodule(beta.source, [1, 2, 1])
    rep = ix.beck_for_forall_check(square, v)
    assert rep.passed
    assert rep.dims["forall_then_pull"] == rep.dims["pull_then_forall"]


def test_beck_for_forall_rejects_a_planted_wrong_counit(g_ab):
    # zero the counit on the component of x: the mate loses that component
    # and is not invertible, although the two sides are still isomorphic
    # (the mate reads r_V's column dicts from the memo where
    # coseparability_retraction keeps them, so the plant replaces them once
    # delta^* V, whose cotensor kernel reads the true r_V, is built)
    beta, alpha = cospan(g_ab)
    square = ix.PullbackSquare.from_cospan(beta, alpha)
    v = cm.graded_comodule(beta.source, [1, 2, 1])
    pv = ix.pullback_functor(square.delta, v)
    rhs, _ = ix.pullback_functor(alpha, ix.forall(beta, v))
    # r (id (x) P) for P the projection of D1 that drops x
    n = v.base.dim
    drop_x = Matrix(F, n, n, [int(i == j != 0) for i in range(n)
                              for j in range(n)])
    r = matmul(_dense_columns(F, v.dim, ix.coseparability_retraction(v)),
               kron(Matrix.identity(F, v.dim), drop_x))
    v._retraction = column_dicts(r)
    rep = ix.beck_for_forall_check(square, v, pv)
    assert rep.verdict == "fail"
    assert "mate is not invertible" in rep.witness["equation"]
    assert find_isomorphism(rhs, ix.forall(square.gamma, pv[0]),
                            random.Random(0)) is not None


def test_forall_beck_document_makes_no_hom_space_call(monkeypatch):
    doc = dsl.parse((resources.files("comodcheck") / "corpus"
                     / "08_forall_beck.cd").read_text())
    # indexed imports hom_space, so count the calls through both names
    calls = [count_calls(monkeypatch, cm, "hom_space"),
             count_calls(monkeypatch, ix, "hom_space")]
    assert [rep.verdict for rep in runner.run(doc)] == ["pass", "pass"]
    assert calls == [[], []]


def test_no_verdict_path_imports_random():
    # only the seeded instance generator draws random numbers, so no
    # check can rest on a random search
    pkg = Path(ix.__file__).parent
    importers = set()
    for path in pkg.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] \
                if isinstance(node, ast.Import) else \
                [node.module] if isinstance(node, ast.ImportFrom) else []
            if "random" in names:
                importers.add(path.stem)
    assert importers == {"gen"}


def test_no_library_module_but_the_runner_imports_the_oracle():
    # the graded oracle cross-checks the library's answers, so no
    # construction may be built from it
    pkg = Path(ix.__file__).parent
    importers = set()
    for path in pkg.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name.rsplit(".", 1)[-1] for a in node.names}
                if isinstance(node, ast.ImportFrom):
                    names.add((node.module or "").rsplit(".", 1)[-1])
                if "oracle" in names:
                    importers.add(path.stem)
    assert importers == {"runner"}


def test_no_library_module_holds_a_mutable_table():
    # a check builds its shared objects in tables local to one call, so no
    # result can leak from one check or document into the next; the
    # export lists are declarations, not state
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                  ast.SetComp)
    pkg = Path(ix.__file__).parent
    tables = set()
    for path in pkg.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if isinstance(value, containers) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in ("dict", "list", "set")):
                tables.update(f"{path.stem}.{ast.unparse(t)}"
                              for t in targets)
    tables = {name for name in tables if not name.endswith(".__all__")}
    assert tables == {"dsl.CHECK_ARGS", "runner._EXECUTORS",
                      "runner.CHECK_OPERATIONS"}


def test_beck_consistency_between_variants(g_ab):
    # whenever the Sigma square passes, the forall square passes too
    beta, alpha = cospan(g_ab)
    square = ix.PullbackSquare.from_cospan(beta, alpha)
    v2 = cm.graded_comodule(alpha.source, [2, 1])
    v1 = cm.graded_comodule(beta.source, [1, 1, 2])
    assert ix.beck_chevalley_check(square, v2).passed
    assert ix.beck_for_forall_check(square, v1).passed


# -- Frobenius ------------------------------------------------------------------------

def test_frobenius_identity_morphism(g_ab):
    rep = ix.frobenius_check(g_ab.identity_morphism(),
                             cm.graded_comodule(g_ab, [1, 2]),
                             cm.graded_comodule(g_ab, [2, 1]))
    assert rep.passed


def test_frobenius_collapse_example():
    g_xy = ca.grouplike_coalgebra(F, ["x", "y"])
    g_a = ca.grouplike_coalgebra(F, ["a"])
    phi = ca.grouplike_morphism(g_xy, g_a, {"x": "a", "y": "a"})
    rep = ix.frobenius_check(phi, cm.graded_comodule(g_xy, [1, 1]),
                             cm.graded_comodule(g_a, [2]))
    assert rep.passed
    assert rep.dims["sigma_of_cotensor"] == 4
    assert rep.dims["cotensor_of_sigma"] == 4


def test_frobenius_random_instances(g_ab):
    rng = random.Random(13)
    g_xyz = ca.grouplike_coalgebra(F, ["x", "y", "z"])
    for _ in range(5):
        phi = random_setmap_morphism(rng, g_xyz, g_ab)
        v = random_comodule(rng, g_xyz, max_dim=2)
        w = random_comodule(rng, g_ab, max_dim=2)
        assert ix.frobenius_check(phi, v, w).passed


# -- ssmc ------------------------------------------------------------------------------

def test_ssmc_grouplike(monkeypatch, phi, g_ab):
    # step (iv) builds [V, W] and [phi^* V, phi^* W] through
    # comod.internal_hom, the operation the ssmc registry names
    homs = count_calls(monkeypatch, ix, "internal_hom")
    rep = ix.ssmc_check(phi, cm.graded_comodule(g_ab, [2, 1]),
                        cm.graded_comodule(g_ab, [1, 1]))
    assert rep.passed
    assert "closedness-dims" in rep.details
    assert len(homs) == 2
    assert "comod.internal_hom" in runner.CHECK_OPERATIONS["ssmc"]


def sqrt2_by_grouplike_projection():
    """p1: K x grouplike {a, b} -> K, for K the dual of Q(sqrt 2)."""
    k = sqrt2_dual()
    _, p1, _ = ca.product(k, ca.grouplike_coalgebra(F, ["a", "b"]))
    return p1


def test_ssmc_closedness_over_non_grouplike_bases():
    # neither base is group-like: the closedness comparison is certified
    # as an invertible comodule morphism all the same
    p1 = sqrt2_by_grouplike_projection()
    reg = cm.regular_comodule(p1.target)
    rep = ix.ssmc_check(p1, cm.direct_sum(reg, reg), reg)
    assert rep.passed, rep.as_dict()
    assert "closedness-dims" in rep.details
    assert rep.dims["hom_of_pulls"] == rep.dims["pull_of_hom"] == 8


def test_ssmc_closedness_fails_on_a_zero_pairing(monkeypatch):
    p1 = sqrt2_by_grouplike_projection()
    monkeypatch.setattr(ix, "coseparability_form",
                        lambda c: [{} for _ in range(c.dim)])
    reg = cm.regular_comodule(p1.target)
    rep = ix.ssmc_check(p1, cm.direct_sum(reg, reg), reg)
    assert rep.verdict == "fail"
    assert "closedness" in rep.witness["equation"]


def test_ssmc_pulls_back_each_comodule_once(monkeypatch, phi, g_ab):
    # phi^* V, phi^* W and phi^*(V (x) W) are shared by the tensor,
    # braiding and closedness steps
    calls = count_calls(monkeypatch, ix, "pullback_functor")
    rep = ix.ssmc_check(phi, cm.graded_comodule(g_ab, [2, 1]),
                        cm.graded_comodule(g_ab, [1, 2]))
    assert rep.passed
    pairs = [(id(f), id(w)) for f, w in calls]
    assert len(pairs) == len(set(pairs))


def test_ssmc_braiding_builds_no_pullback(monkeypatch, phi, g_ab):
    # before closedness (iv), the only pullbacks are the three of step
    # (i), phi^*(V (x) W), phi^* V and phi^* W, and the unit's phi^* of
    # the regular comodule in step (ii): braiding (iii) reuses step (i)'s
    calls = count_calls(monkeypatch, ix, "pullback_functor")
    before = []
    real = ix.internal_hom

    def internal_hom(*args):
        before.append(len(calls))
        return real(*args)

    monkeypatch.setattr(ix, "internal_hom", internal_hom)
    v = cm.graded_comodule(g_ab, [2, 1])
    w = cm.graded_comodule(g_ab, [1, 2])
    assert ix.ssmc_check(phi, v, w).passed
    reg = cm.regular_comodule(phi.target)
    pulled = [x for _, x in calls[:before[0]]]
    assert [x for x in pulled if x != reg][1:] == [v, w]
    assert len(pulled) == 4 and pulled.count(reg) == 1
    assert pulled[0].dim == 4  # V (x)_C W for graded (2, 1) and (1, 2)


def test_ssmc_braiding_catches_a_rescaled_tensor_iso(monkeypatch, phi,
                                                      g_ab):
    # (2 fwd, bwd / 2) is still an inverse pair of comodule maps, so the
    # tensor step (i) passes; the braiding square reads fwd and fails
    real = ix._tensor_iso

    def rescaled(*args):
        fwd, bwd = real(*args)
        return (cm.ComoduleMorphism(fwd.source, fwd.target,
                                    column_dicts(fwd.matrix.scale(2))),
                cm.ComoduleMorphism(bwd.source, bwd.target, column_dicts(
                    bwd.matrix.scale(Fraction(1, 2)))))

    monkeypatch.setattr(ix, "_tensor_iso", rescaled)
    rep = ix.ssmc_check(phi, cm.graded_comodule(g_ab, [2, 1]),
                        cm.graded_comodule(g_ab, [1, 2]))
    assert rep.verdict == "fail"
    assert rep.witness["equation"] == "braiding is not preserved"


def test_ssmc_unit_preservation(phi, g_ab):
    rep = ix.ssmc_check(phi, cm.graded_comodule(g_ab, [1, 0]),
                        cm.graded_comodule(g_ab, [0, 1]))
    assert rep.passed
    assert rep.dims["pull_of_unit"] == phi.source.dim


def test_ssmc_counit_collapse(g_ab):
    # phi = eps: C -> k: pullback is the underlying-space comparison
    eps = ca.counit_morphism(g_ab)
    triv = eps.target
    rep = ix.ssmc_check(eps, cm.graded_comodule(triv, [2]),
                        cm.graded_comodule(triv, [3]))
    assert rep.passed
