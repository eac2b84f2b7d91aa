import random

import pytest

from comodcheck import coalg as ca
from comodcheck import comod as cm
from comodcheck import indexed as ix
from comodcheck import oracle as orc
from comodcheck.errors import (BaseMismatchError, HypothesisViolatedError)
from comodcheck.exactlin import Matrix
from comodcheck.fields import QQ
from comodcheck.gen import random_comodule, random_setmap_morphism

from test_coalg import gx_coalgebra, sqrt2_dual

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
    assert cm.find_isomorphism(pid, w, rng) is not None


def test_pullback_regrades_along_map(phi, g_ab):
    w = cm.graded_comodule(g_ab, [2, 1])
    pw, _ = ix.pullback_functor(phi, w)
    assert orc.to_graded(pw).dims == (2, 2, 1)


def test_pullback_composition_iso(phi, g_ab, g_xyz):
    rng = random.Random(1)
    g_t = ca.grouplike_coalgebra(F, ["t"])
    psi = ca.grouplike_morphism(g_ab, g_t, {"a": "t", "b": "t"})
    v = cm.graded_comodule(g_xyz, [1, 0, 2])
    w = cm.graded_comodule(g_t, [2])
    strict, iso, dims = ix.composition_isos(phi, psi, v, w, rng)
    assert strict and iso is not None
    assert dims["composite_pull"] == dims["iterated_pull"]


def test_pullback_functorial_on_morphisms(phi, g_ab):
    w1 = cm.graded_comodule(g_ab, [2, 1])
    w2 = cm.graded_comodule(g_ab, [1, 1])
    for f in cm.hom_space(w1, w2):
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
        k2, ks, Matrix.from_rows(F, [[1, 0], [0, 1], [0, 0]]))
    v = cm.regular_comodule(k2)
    w = cm.direct_sum(cm.regular_comodule(ks), cm.regular_comodule(ks))
    cert = ix.adjunction_certificate(inc, v, w)
    assert cert.ok


def test_transpose_naturality(phi, g_xyz, g_ab):
    rng = random.Random(5)
    v1 = cm.graded_comodule(g_xyz, [1, 1, 1])
    v2 = cm.graded_comodule(g_xyz, [1, 2, 1])
    w = cm.graded_comodule(g_ab, [1, 1])
    pw = ix.pullback_functor(phi, w)
    homs = cm.hom_space(v1, v2)
    maps = cm.hom_space(ix.sigma(phi, v2), w)
    for h in homs[:2]:
        for f in maps[:2]:
            # hat(f o Sigma h) = hat(f) o h
            sh = ix.sigma_map(phi, h)
            lhs = ix.transpose_hat(phi, v1, f @ sh, pw)
            rhs = ix.transpose_hat(phi, v2, f, pw)
            assert lhs.matrix == rhs.matrix @ h.matrix


def test_sigma_triangles(phi, g_xyz, g_ab):
    v = cm.graded_comodule(g_xyz, [1, 2, 1])
    w = cm.graded_comodule(g_ab, [2, 1])
    assert ix.sigma_triangle_identities(phi, v, w)


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
    phi_bad = ca.CoalgebraMorphism(triv, gx, Matrix.from_rows(F, [[1], [0]]))
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
        data = ix.forall_data(phi, v)
        pw = ix.pullback_functor(phi, w)
        assert len(cm.hom_space(pw[0], v)) \
            == len(cm.hom_space(w, data.module))


def test_forall_transpose_round_trips(phi, g_xyz, g_ab):
    v = cm.graded_comodule(g_xyz, [1, 2, 1])
    w = cm.graded_comodule(g_ab, [2, 1])
    data = ix.forall_data(phi, v)
    pw = ix.pullback_functor(phi, w)
    for g in cm.hom_space(pw[0], v):
        h = ix.forall_transpose_fwd(data, w, pw, g)
        assert ix.forall_transpose_bwd(data, w, pw, h).matrix == g.matrix
    for h in cm.hom_space(w, data.module):
        g = ix.forall_transpose_bwd(data, w, pw, h)
        assert ix.forall_transpose_fwd(data, w, pw, g).matrix == h.matrix


def test_forall_triangles(phi, g_xyz, g_ab):
    v = cm.graded_comodule(g_xyz, [1, 2, 1])
    w = cm.graded_comodule(g_ab, [2, 1])
    assert ix.forall_triangle_identities(phi, v, w)


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns its list of calls."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_forall_triangles_build_each_forall_data_once(monkeypatch, phi,
                                                      g_xyz, g_ab):
    # one ForallData each for V, phi^* W and phi^* forall V
    calls = count_calls(monkeypatch, ix, "forall_data")
    v = cm.graded_comodule(g_xyz, [1, 2, 1])
    w = cm.graded_comodule(g_ab, [2, 1])
    assert ix.forall_triangle_identities(phi, v, w)
    assert len(calls) == 3


def test_forall_triangles_decide_coflatness_once(monkeypatch, phi, g_xyz,
                                                 g_ab):
    # the three ForallData share phi, so U(phi) is split once
    calls = count_calls(monkeypatch, cm, "is_injective")
    v = cm.graded_comodule(g_xyz, [1, 2, 1])
    w = cm.graded_comodule(g_ab, [2, 1])
    assert ix.forall_triangle_identities(phi, v, w)
    assert len(calls) == 1


def test_non_coflat_decision_is_kept_on_the_morphism(monkeypatch):
    gx = gx_coalgebra()
    triv = ca.trivial_coalgebra(F)
    phi_bad = ca.CoalgebraMorphism(triv, gx, Matrix.from_rows(F, [[1], [0]]))
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
    assert square.beta.matrix @ square.delta.matrix \
        == square.alpha.matrix @ square.gamma.matrix


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
    dprime = square.canonical[0]
    assert square.t == Matrix.identity(F, dprime.dim)
    assert ix.beck_chevalley_check(
        square, cm.graded_comodule(alpha.source, [1, 2])).passed


def test_beck_phi_naturality(g_ab):
    beta, alpha = cospan(g_ab)
    square = ix.PullbackSquare.from_cospan(beta, alpha)
    v1 = cm.graded_comodule(alpha.source, [1, 1])
    v2 = cm.graded_comodule(alpha.source, [2, 1])
    phi1, psi1, side1a, side2a = ix.beck_maps(square, v1)
    phi2, psi2, side1b, side2b = ix.beck_maps(square, v2)
    nd1 = square.beta.source.dim
    nd = square.delta.source.dim
    for h in cm.hom_space(v1, v2)[:3]:
        # functor actions on h for both composites
        sh1 = ix.pullback_map(square.beta,
                              ix.sigma_map(square.alpha, h),
                              src=side1a, tgt=side1b)
        sh2m = ix.pullback_map(square.gamma, h)
        lhs = phi2.matrix @ sh1.matrix
        rhs = sh2m.matrix  # underlying matrix of Sigma_delta(gamma^* h)
        assert lhs == rhs @ phi1.matrix


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

def test_ssmc_grouplike(phi, g_ab):
    rep = ix.ssmc_check(phi, cm.graded_comodule(g_ab, [2, 1]),
                        cm.graded_comodule(g_ab, [1, 1]))
    assert rep.passed
    assert "closedness-dims" in rep.details


def test_ssmc_pulls_back_each_comodule_once(monkeypatch, phi, g_ab):
    # phi^* V, phi^* W, phi^*(V (x) W) and phi^*(W (x) V) are shared by
    # the tensor, braiding and closedness steps
    calls = count_calls(monkeypatch, ix, "pullback_functor")
    rep = ix.ssmc_check(phi, cm.graded_comodule(g_ab, [2, 1]),
                        cm.graded_comodule(g_ab, [1, 2]))
    assert rep.passed
    pairs = [(id(f), id(w)) for f, w in calls]
    assert len(pairs) == len(set(pairs))


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
