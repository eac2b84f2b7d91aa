"""The indexed category of comodules over coalgebras.

A morphism phi: D -> C induces the corestriction Sigma_phi: Vec^D -> Vec^C
(same space, coaction (id (x) phi) rho) and the pullback
phi^*(W) = W (x)_C U(phi), realized as the subspace of W (x) D cut by the
equalizer condition, with coaction the restriction of id (x) delta_D.  The
adjunction Sigma_phi -| phi^* is witnessed by the explicit transposes
hat(f) = (f (x) id) rho  and  tilde(g) = (id (x) eps_D) g; for group-like
bases phi^* also has a right adjoint "forall", computed fiberwise on
gradings and guarded by the coflatness hypothesis on U(phi).  That
hypothesis is decided once per morphism object, by an exact splitting
solve on first use, and kept on the morphism (``u_coflat``); callers that
share one morphism object therefore share the decision.

The law checks verify, per instance and in exact arithmetic, the canonical
isomorphisms of the calculus: Beck-Chevalley along pullback squares (with
the mediating morphism t factored through the canonical equalizer),
Frobenius reciprocity, and strong symmetric monoidal closure of phi^*
between cosemisimple bases.  Where the construction supplies explicit
mutually inverse maps, those exact maps are verified; dimension counting
alone is never accepted for a law with a formula.
"""

from __future__ import annotations

import random

from .coalg import (CoalgebraMorphism, grouplike_labels, is_cosemisimple,
                    pullback as coalg_pullback, pullback_mediate)
from .comod import (Comodule, ComoduleMorphism, _cotensor_kernel, _Obj,
                    _restricted_coaction, _transposition, atom, ct,
                    find_isomorphism, graded_comodule, graded_components,
                    hom_space, internal_hom, is_coflat, regular_comodule)
from .errors import (AxiomError, BaseMismatchError, HypothesisViolatedError,
                     UnsupportedBaseError)
from .exactlin import Chart, Matrix, Subspace, swap_matrix
from .report import CheckReport, failure

__all__ = [
    "sigma", "sigma_map", "coaction_comodule", "pullback_functor",
    "pullback_map", "transpose_hat", "transpose_tilde",
    "AdjunctionCertificate", "adjunction_certificate", "Grading",
    "ForallData", "forall", "forall_data", "forall_map",
    "forall_transpose_fwd", "forall_transpose_bwd", "forall_unit",
    "forall_counit", "sigma_triangle_identities",
    "forall_triangle_identities", "PullbackSquare", "beck_maps",
    "beck_chevalley_check", "beck_for_forall_check", "frobenius_check",
    "ssmc_check", "composition_isos",
]


# -- Sigma and phi^* ----------------------------------------------------------

def sigma(phi: CoalgebraMorphism, v: Comodule) -> Comodule:
    """Corestriction along phi: same space, coaction (id (x) phi) rho."""
    if v.base != phi.source:
        raise BaseMismatchError("comodule is not based on the source of phi")
    rho = Matrix.identity(v.field, v.dim).kron(phi.matrix) @ v.rho
    return Comodule(phi.target, v.dim, rho)


def sigma_map(phi: CoalgebraMorphism,
              f: ComoduleMorphism) -> ComoduleMorphism:
    """Sigma is the identity on underlying linear maps."""
    return ComoduleMorphism(sigma(phi, f.source), sigma(phi, f.target),
                            f.matrix)


def coaction_comodule(phi: CoalgebraMorphism) -> Comodule:
    """U(phi): the source space over the target, coaction (id (x) phi) delta."""
    rho = Matrix.identity(phi.source.field, phi.source.dim) \
        .kron(phi.matrix) @ phi.source.delta
    return Comodule(phi.target, phi.source.dim, rho)


def pullback_functor(phi: CoalgebraMorphism, w: Comodule):
    """phi^*(W) for W over target(phi), as a comodule over D = source(phi).

    phi^*(W) = W (x)_C U(phi): the cotensor kernel in W (x) D, i.e. of
    (rho_W (x) id_D) - (id_W (x) (phi (x) id_D) delta_D) as D is
    cocommutative; the coaction is the restriction of id_W (x) delta_D.
    Returns (comodule, subspace).
    """
    if w.base != phi.target:
        raise BaseMismatchError("comodule is not based on the target of phi")
    d = phi.source
    sub = _cotensor_kernel(w, coaction_comodule(phi))
    coaction = Matrix.identity(w.field, w.dim).kron(d.delta)
    return _restricted_coaction(d, coaction, sub, "pullback-coaction"), sub


def _pullback_obj(phi: CoalgebraMorphism, x: _Obj, px) -> _Obj:
    """phi^* X presented inside X (x) D; px = pullback_functor(phi, X)."""
    module, sub = px
    nd = phi.source.dim
    chart = Chart.kron(x.chart, Chart.identity(module.field, nd))
    return _Obj(module, Chart.restrict(chart, sub))


def pullback_map(phi: CoalgebraMorphism, f: ComoduleMorphism,
                 src=None, tgt=None) -> ComoduleMorphism:
    """phi^* on morphisms: restriction of f (x) id_D."""
    if src is None:
        src = pullback_functor(phi, f.source)
    if tgt is None:
        tgt = pullback_functor(phi, f.target)
    (src_mod, src_sub), (tgt_mod, tgt_sub) = src, tgt
    ident = Matrix.identity(f.matrix.field, phi.source.dim)
    mat = tgt_sub.coords(f.matrix.kron(ident) @ src_sub.basis)
    if mat is None:
        raise AxiomError("pullback-functor",
                         "f (x) id does not preserve the equalizer")
    return ComoduleMorphism(src_mod, tgt_mod, mat)


# -- the adjunction Sigma_phi -| phi^* ----------------------------------------

def transpose_hat(phi: CoalgebraMorphism, v: Comodule, f: ComoduleMorphism,
                  pw=None) -> ComoduleMorphism:
    """hat(f): V -> phi^* W for f: Sigma_phi V -> W, v -> sum f(v0) (x) v1."""
    if f.source != sigma(phi, v):
        raise BaseMismatchError("f is not defined on Sigma_phi V")
    if pw is None:
        pw = pullback_functor(phi, f.target)
    pw_mod, pw_sub = pw
    ident = Matrix.identity(v.field, phi.source.dim)
    mat = pw_sub.coords(f.matrix.kron(ident) @ v.rho)
    if mat is None:
        raise AxiomError("transpose-hat",
                         "hat(f) does not land in the equalizer subspace")
    return ComoduleMorphism(v, pw_mod, mat)


def transpose_tilde(phi: CoalgebraMorphism, v: Comodule, w: Comodule,
                    g: ComoduleMorphism, pw) -> ComoduleMorphism:
    """tilde(g) = (id (x) eps_D) g: Sigma_phi V -> W for g: V -> phi^* W."""
    pw_mod, pw_sub = pw
    if g.source != v or g.target != pw_mod:
        raise BaseMismatchError("g is not a morphism V -> phi^* W")
    rec = Matrix.identity(v.field, w.dim).kron(phi.source.epsilon)
    return ComoduleMorphism(sigma(phi, v), w,
                            rec @ pw_sub.basis @ g.matrix)


class AdjunctionCertificate:
    """Round-trip evidence for Sigma_phi -| phi^* on one pair (V, W).

    Carries the two hom-space dimensions, the forward/backward transposes
    of the hom bases, and the round-trip residuals (all zero on success).
    """

    __slots__ = ("dim_sigma_side", "dim_pullback_side", "forward",
                 "backward", "residuals")

    def __init__(self, dim_sigma_side, dim_pullback_side, forward,
                 backward, residuals):
        self.dim_sigma_side = dim_sigma_side
        self.dim_pullback_side = dim_pullback_side
        self.forward = forward
        self.backward = backward
        self.residuals = residuals

    @property
    def round_trips_ok(self):
        return all(r.is_zero() for r in self.residuals)

    @property
    def ok(self):
        return (self.dim_sigma_side == self.dim_pullback_side
                and self.round_trips_ok)


def adjunction_certificate(phi: CoalgebraMorphism, v: Comodule,
                           w: Comodule) -> AdjunctionCertificate:
    """Verify Hom^C(Sigma_phi V, W) ~ Hom^D(V, phi^* W) via the transposes.

    Runs hat over a basis of the left hom space and tilde over a basis of
    the right one; both round trips must be identities and the dimensions
    must agree.
    """
    if v.base != phi.source or w.base != phi.target:
        raise BaseMismatchError("bases do not match phi")
    sv = sigma(phi, v)
    pw = pullback_functor(phi, w)
    pw_mod, _ = pw
    left = hom_space(sv, w)
    right = hom_space(v, pw_mod)
    forward = []
    backward = []
    residuals = []
    for f in left:
        hat = transpose_hat(phi, v, f, pw)
        back = transpose_tilde(phi, v, w, hat, pw)
        forward.append((f.matrix, hat.matrix))
        residuals.append(back.matrix - f.matrix)
    for g in right:
        tilde = transpose_tilde(phi, v, w, g, pw)
        again = transpose_hat(phi, v, tilde, pw)
        backward.append((g.matrix, tilde.matrix))
        residuals.append(again.matrix - g.matrix)
    return AdjunctionCertificate(len(left), len(right), forward, backward,
                                 residuals)


# -- the right adjoint forall over group-like bases ---------------------------

class Grading:
    """Component decomposition of a comodule over a group-like base."""

    __slots__ = ("module", "comps", "concat", "concat_inv", "offsets")

    def __init__(self, v: Comodule):
        comps = graded_components(v)
        f = v.field
        concat = Matrix.zeros(f, v.dim, 0)
        offsets = []
        k = 0
        for c in comps:
            offsets.append(k)
            concat = concat.hstack(c.basis)
            k += c.dim
        inv = concat.inverse() if v.dim else Matrix.zeros(f, 0, 0)
        if inv is None:
            raise AxiomError("grading", "components do not span")
        self.module = v
        self.comps = comps
        self.concat = concat
        self.concat_inv = inv
        self.offsets = offsets

    def proj(self, x: int) -> Matrix:
        """Component coordinates V -> k^{d_x}."""
        d = self.comps[x].dim
        return self.concat_inv.take_rows(range(self.offsets[x],
                                               self.offsets[x] + d))

    def incl(self, x: int) -> Matrix:
        """Component inclusion k^{d_x} -> V."""
        return self.comps[x].basis


class ForallData:
    """forall_phi(V) together with the bookkeeping for its adjunction.

    ``blocks`` maps a source-label index x to (offset, width) of the copy
    of V_x inside the block of the module at the label phi(x).
    """

    __slots__ = ("phi", "v", "module", "setmap", "grading_v", "label_pos",
                 "blocks")

    def __init__(self, phi, v, module, setmap, grading_v, label_pos, blocks):
        self.phi = phi
        self.v = v
        self.module = module
        self.setmap = setmap
        self.grading_v = grading_v
        self.label_pos = label_pos
        self.blocks = blocks


def forall(phi: CoalgebraMorphism, v: Comodule) -> Comodule:
    """Right adjoint to phi^* on objects: fiberwise products of components.

    The coflatness of U(phi) (the theorem hypothesis) is checked first, for
    arbitrary coalgebras, and decided once per morphism object (see
    ``forall_data``); the fiberwise construction then requires both bases
    group-like.
    """
    return forall_data(phi, v).module


def forall_data(phi: CoalgebraMorphism, v: Comodule) -> ForallData:
    """forall_phi(V) with the bookkeeping for its adjunction.

    The first call on a morphism object solves the splitting system of
    U(phi) exactly and stores the answer in ``phi.u_coflat``; later calls
    on the same object read it, so a non-coflat U(phi) raises
    ``HypothesisViolatedError`` every time.  The group-like test comes
    after the coflatness decision.
    """
    if v.base != phi.source:
        raise BaseMismatchError("comodule is not based on the source of phi")
    if phi.u_coflat is None:
        phi.u_coflat = is_coflat(coaction_comodule(phi))
    if not phi.u_coflat:
        raise HypothesisViolatedError(
            "U(phi) is not coflat; phi^* has no right adjoint")
    src = grouplike_labels(phi.source)
    tgt = grouplike_labels(phi.target)
    if src is None or tgt is None:
        raise UnsupportedBaseError(
            "forall is only computable over group-like bases")
    from .oracle import setmap_of_morphism
    smap = setmap_of_morphism(phi)
    grading = Grading(v)
    label_pos = {x: i for i, x in enumerate(src)}
    dims = []
    blocks = {}
    offset = 0
    for y in tgt:
        total = 0
        for x in smap.fiber(y):
            xi = label_pos[x]
            d = grading.comps[xi].dim
            blocks[xi] = (offset + total, d)
            total += d
        dims.append(total)
        offset += total
    module = graded_comodule(phi.target, dims)
    return ForallData(phi, v, module, smap, grading, label_pos, blocks)


def _block_incl(data: ForallData, xi: int) -> Matrix:
    off, d = data.blocks[xi]
    m = data.module.dim
    out = [0] * (m * d)
    for i in range(d):
        out[(off + i) * d + i] = 1
    return Matrix(data.v.field, m, d, out)


def _block_proj(data: ForallData, xi: int) -> Matrix:
    off, d = data.blocks[xi]
    m = data.module.dim
    out = [0] * (d * m)
    for i in range(d):
        out[i * m + off + i] = 1
    return Matrix(data.v.field, d, m, out)


def _slot(mdim: int, n: int, x: int, field) -> Matrix:
    """The linear map M -> M (x) D, e_i -> e_i (x) e_x."""
    out = [0] * (mdim * n * mdim)
    for i in range(mdim):
        out[(i * n + x) * mdim + i] = 1
    return Matrix(field, mdim * n, mdim, out)


def forall_transpose_fwd(data: ForallData, w: Comodule, pw,
                         g: ComoduleMorphism) -> ComoduleMorphism:
    """Transpose a morphism g: phi^* W -> V into W -> forall V."""
    pw_mod, pw_sub = pw
    if g.source != pw_mod or g.target != data.v:
        raise BaseMismatchError("g is not a morphism phi^* W -> V")
    f = data.v.field
    nd = data.phi.source.dim
    gw = Grading(w)
    tgt_pos = {y: i for i, y in enumerate(data.setmap.target)}
    mat = Matrix.zeros(f, data.module.dim, w.dim)
    for x in data.setmap.source:
        xi = data.label_pos[x]
        yi = tgt_pos[data.setmap(x)]
        jx = pw_sub.coords(_slot(w.dim, nd, xi, f) @ gw.incl(yi))
        if jx is None:
            raise AxiomError("forall-transpose",
                             "slot map misses the equalizer")
        piece = _block_incl(data, xi) @ (data.grading_v.proj(xi)
                                         @ g.matrix @ jx) @ gw.proj(yi)
        mat = mat + piece
    return ComoduleMorphism(w, data.module, mat)


def forall_transpose_bwd(data: ForallData, w: Comodule, pw,
                         h: ComoduleMorphism) -> ComoduleMorphism:
    """Transpose a morphism h: W -> forall V into phi^* W -> V."""
    pw_mod, pw_sub = pw
    if h.source != w or h.target != data.module:
        raise BaseMismatchError("h is not a morphism W -> forall V")
    f = data.v.field
    gpw = Grading(pw_mod)
    recover = Matrix.identity(f, w.dim).kron(data.phi.source.epsilon) \
        @ pw_sub.basis
    mat = Matrix.zeros(f, data.v.dim, pw_mod.dim)
    for x in data.setmap.source:
        xi = data.label_pos[x]
        piece = data.grading_v.incl(xi) @ _block_proj(data, xi) @ h.matrix \
            @ recover @ gpw.incl(xi) @ gpw.proj(xi)
        mat = mat + piece
    return ComoduleMorphism(pw_mod, data.v, mat)


def forall_map(src: ForallData, tgt: ForallData,
               h: ComoduleMorphism) -> ComoduleMorphism:
    """forall on morphisms: blockwise action on components."""
    if h.source != src.v or h.target != tgt.v:
        raise BaseMismatchError("morphism does not match the forall data")
    f = h.matrix.field
    mat = Matrix.zeros(f, tgt.module.dim, src.module.dim)
    for x in src.setmap.source:
        xi = src.label_pos[x]
        piece = _block_incl(tgt, xi) @ (tgt.grading_v.proj(xi) @ h.matrix
                                        @ src.grading_v.incl(xi)) \
            @ _block_proj(src, xi)
        mat = mat + piece
    return ComoduleMorphism(src.module, tgt.module, mat)


def forall_unit(data: ForallData, w: Comodule, pw) -> ComoduleMorphism:
    """eta_W: W -> forall phi^* W (forward transpose of the identity),
    where ``data`` is the forall data of phi^* W."""
    return forall_transpose_fwd(data, w, pw, pw[0].identity_morphism())


def forall_counit(data: ForallData, pfv) -> ComoduleMorphism:
    """eps_V: phi^* forall V -> V (backward transpose of the identity)."""
    return forall_transpose_bwd(data, data.module, pfv,
                                data.module.identity_morphism())


def sigma_triangle_identities(phi: CoalgebraMorphism, v: Comodule,
                              w: Comodule) -> bool:
    """Unit/counit triangle identities of Sigma_phi -| phi^* on (V, W)."""
    sv = sigma(phi, v)
    psv = pullback_functor(phi, sv)
    eta_v = transpose_hat(phi, v, sv.identity_morphism(), psv)
    pw = pullback_functor(phi, w)
    pw_mod, _ = pw
    eps_w = transpose_tilde(phi, pw_mod, w, pw_mod.identity_morphism(), pw)
    # triangle 1: eps_{Sigma V} o Sigma(eta_V) = id
    eps_sv = transpose_tilde(phi, psv[0], sv, psv[0].identity_morphism(),
                             psv)
    t1 = eps_sv.matrix @ sigma_map(phi, eta_v).matrix \
        == Matrix.identity(v.field, v.dim)
    # triangle 2: phi^*(eps_W) o eta_{phi^* W} = id
    spw = sigma(phi, pw_mod)
    pspw = pullback_functor(phi, spw)
    eta_pw = transpose_hat(phi, pw_mod, spw.identity_morphism(), pspw)
    pull_eps = pullback_map(phi, eps_w, src=pspw, tgt=pw)
    t2 = pull_eps.matrix @ eta_pw.matrix \
        == Matrix.identity(v.field, pw_mod.dim)
    return t1 and t2


def forall_triangle_identities(phi: CoalgebraMorphism, v: Comodule,
                               w: Comodule) -> bool:
    """Unit/counit triangle identities of phi^* -| forall_phi on (V, W)."""
    data = forall_data(phi, v)
    pw = pullback_functor(phi, w)
    pfv = pullback_functor(phi, data.module)
    data_pw = forall_data(phi, pw[0])
    data2 = forall_data(phi, pfv[0])
    # triangle 1: eps_{phi^* W} o phi^*(eta_W) = id on phi^* W
    eta_w = forall_unit(data_pw, w, pw)
    pae = pullback_functor(phi, data_pw.module)
    lifted = pullback_map(phi, eta_w, src=pw, tgt=pae)
    eps_pw = forall_counit(data_pw, pae)
    t1 = eps_pw.matrix @ lifted.matrix \
        == Matrix.identity(v.field, pw[0].dim)
    # triangle 2: forall(eps_V) o eta_{forall V} = id on forall V
    eps_v = forall_counit(data, pfv)
    eta2 = forall_unit(data2, data.module, pfv)
    t2 = forall_map(data2, data, eps_v).matrix @ eta2.matrix \
        == Matrix.identity(v.field, data.module.dim)
    return t1 and t2


# -- pullback squares and Beck-Chevalley --------------------------------------

class PullbackSquare:
    """A commuting square delta/gamma over beta/alpha that is a pullback.

    delta: D -> D1, gamma: D -> D2, beta: D1 -> C, alpha: D2 -> C.
    Construction verifies beta delta = alpha gamma and that the mediating
    morphism into the canonical pullback of (beta, alpha) is an
    isomorphism.  It keeps the canonical pullback (D', u, v) and the
    inverse t: D' -> D of that isomorphism for the Beck maps.
    """

    __slots__ = ("delta", "gamma", "beta", "alpha", "canonical", "t")

    def __init__(self, delta: CoalgebraMorphism, gamma: CoalgebraMorphism,
                 beta: CoalgebraMorphism, alpha: CoalgebraMorphism):
        if delta.source != gamma.source:
            raise BaseMismatchError("delta and gamma need a common source")
        if beta.target != alpha.target:
            raise BaseMismatchError("beta and alpha need a common target")
        if delta.target != beta.source or gamma.target != alpha.source:
            raise BaseMismatchError("square legs do not match")
        if beta.matrix @ delta.matrix != alpha.matrix @ gamma.matrix:
            raise AxiomError("pullback-square", "square does not commute")
        canon, u, v = coalg_pullback(beta, alpha)
        m = pullback_mediate(u, v, delta, gamma)
        t = m.matrix.inverse()
        if t is None:
            raise AxiomError("pullback-square",
                             "apex is not the pullback of the cospan")
        self.delta = delta
        self.gamma = gamma
        self.beta = beta
        self.alpha = alpha
        self.canonical = (canon, u, v)
        self.t = t

    @classmethod
    def from_cospan(cls, beta: CoalgebraMorphism,
                    alpha: CoalgebraMorphism) -> "PullbackSquare":
        """The canonical pullback square; its legs are the canonical ones,
        so t is the identity and no mediating morphism is solved for."""
        canon, u, v = coalg_pullback(beta, alpha)
        square = cls.__new__(cls)
        square.delta, square.gamma, square.beta, square.alpha = \
            u, v, beta, alpha
        square.canonical = (canon, u, v)
        square.t = Matrix.identity(canon.field, canon.dim)
        return square


def _mediating_t(square: PullbackSquare):
    """t: D' -> D where D' is the canonical equalizer inside D1 (x) D2.

    t is the inverse of the mediating isomorphism m: D -> D', so it is the
    unique map with p t = incl, where p = <delta, gamma> = incl m is the
    canonical morphism D -> D1 (x) D2 and incl the inclusion of D'.  The
    legs delta t = u and gamma t = v are checked exactly, and t is checked
    to be a coalgebra morphism.  Returns (t, the subspace spanned by D').
    """
    dprime, u, v = square.canonical
    d = square.delta.source
    t_mor = CoalgebraMorphism(dprime, d, square.t)
    if square.delta.matrix @ square.t != u.matrix \
            or square.gamma.matrix @ square.t != v.matrix:
        raise AxiomError("beck-chevalley", "t does not mediate the legs")
    incl = u.matrix.kron(v.matrix) @ dprime.delta
    n1, n2 = square.beta.source.dim, square.alpha.source.dim
    esub = Subspace(d.field, n1 * n2, incl, _canonical=False)
    return t_mor, esub


def beck_maps(square: PullbackSquare, v: Comodule):
    """The explicit natural maps phi_V and psi_V of the Beck condition.

    phi_V: beta^*(Sigma_alpha V) -> Sigma_delta(gamma^* V) sends
    v (x) d1 to sum v0 (x) t(d1 (x) v1); psi_V sends v (x) d back to
    v (x) delta(d).  Returns (phi, psi, side1, side2) where side1/side2 are
    the two (module, subspace) pairs.
    """
    if v.base != square.alpha.source:
        raise BaseMismatchError("comodule must be based on source(alpha)")
    f = v.field
    n1 = square.beta.source.dim
    n2 = square.alpha.source.dim
    side1 = pullback_functor(square.beta, sigma(square.alpha, v))
    m2_mod, m2_sub = pullback_functor(square.gamma, v)
    side2_mod = sigma(square.delta, m2_mod)
    side2 = (side2_mod, m2_sub)
    t_mor, esub = _mediating_t(square)
    iv = Matrix.identity(f, v.dim)
    # forward: v (x) d1 |-> sum v0 (x) (t after swap)(v1 (x) d1)
    step = iv.kron(swap_matrix(f, n2, n1)) @ v.rho.kron(
        Matrix.identity(f, n1)) @ side1[1].basis
    chart = Chart.kron(Chart.identity(f, v.dim),
                       Chart.restrict(Chart.identity(f, n1 * n2), esub))
    coords = chart.coords(step)
    if coords is None:
        return None, None, side1, side2
    phi_mat = side2[1].coords(iv.kron(t_mor.matrix) @ coords)
    if phi_mat is None:
        return None, None, side1, side2
    phi = ComoduleMorphism(side1[0], side2_mod, phi_mat)
    # backward: v (x) d |-> v (x) delta(d)
    psi_mat = side1[1].coords(iv.kron(square.delta.matrix) @ side2[1].basis)
    if psi_mat is None:
        return phi, None, side1, side2
    psi = ComoduleMorphism(side2_mod, side1[0], psi_mat)
    return phi, psi, side1, side2


def beck_chevalley_check(square: PullbackSquare,
                         v: Comodule) -> CheckReport:
    """Verify that phi_V and psi_V are mutually inverse comodule morphisms."""
    refs = ["beck-chevalley"]
    try:
        phi, psi, side1, side2 = beck_maps(square, v)
    except AxiomError as exc:
        return failure("beck", str(exc))
    dims = {"pull_then_push": side2[0].dim, "push_then_pull": side1[0].dim}
    if phi is None:
        return failure("beck", "phi_V does not land in the equalizer",
                       dims=dims)
    if psi is None:
        return failure("beck", "psi_V does not land in the equalizer",
                       dims=dims)
    ident1 = Matrix.identity(v.field, side1[0].dim)
    ident2 = Matrix.identity(v.field, side2[0].dim)
    if phi.matrix @ psi.matrix != ident2:
        return failure("beck", "phi psi != id", dims=dims)
    if psi.matrix @ phi.matrix != ident1:
        return failure("beck", "psi phi != id", dims=dims)
    return CheckReport("beck", refs=refs, dims=dims)


def beck_for_forall_check(square: PullbackSquare, v: Comodule,
                          pv=None) -> CheckReport:
    """Beck condition for the right adjoints:
    forall_gamma(delta^* V) ~ alpha^*(forall_beta V) for V over D1.

    ``pv`` is delta^* V as returned by ``pullback_functor``, for a caller
    that needs it too; it is built here when omitted.
    """
    if v.base != square.beta.source:
        raise BaseMismatchError("comodule must be based on source(beta)")
    if pv is None:
        pv = pullback_functor(square.delta, v)
    lhs_data = forall_data(square.gamma, pv[0])
    rhs_mod, _ = pullback_functor(square.alpha,
                                  forall(square.beta, v))
    dims = {"forall_then_pull": rhs_mod.dim,
            "pull_then_forall": lhs_data.module.dim}
    rng = random.Random("beck-forall")
    iso = find_isomorphism(lhs_data.module, rhs_mod, rng)
    if iso is None:
        return failure("forall-beck", "sides are not isomorphic", dims=dims)
    return CheckReport("forall-beck", dims=dims)


# -- Frobenius ----------------------------------------------------------------

def frobenius_check(phi: CoalgebraMorphism, v: Comodule,
                    w: Comodule) -> CheckReport:
    """Sigma_phi(V (x)_C phi^* W) ~ Sigma_phi(V) (x)_D W via the explicit
    pair phi(v (x) w (x) c) = v (x) w eps(c), psi(v (x) w) = v0 (x) w (x) v1.
    """
    if v.base != phi.source:
        raise BaseMismatchError("V must be based on the source of phi")
    if w.base != phi.target:
        raise BaseMismatchError("W must be based on the target of phi")
    f = v.field
    nc = phi.source.dim
    pw = _pullback_obj(phi, atom(w), pullback_functor(phi, w))
    inner = ct(atom(v), pw)
    lhs = sigma(phi, inner.module)
    rhs = ct(atom(sigma(phi, v)), atom(w))
    dims = {"sigma_of_cotensor": lhs.dim, "cotensor_of_sigma": rhs.module.dim}
    # forward: drop c through the counit
    fwd_flat = Matrix.identity(f, v.dim * w.dim).kron(phi.source.epsilon)
    fwd_mat = rhs.chart.coords(fwd_flat @ inner.chart.embedding)
    if fwd_mat is None:
        return failure("frobenius", "phi map misses the target equalizer",
                       dims=dims)
    # backward: v (x) w -> v0 (x) w (x) v1
    bwd_flat = Matrix.identity(f, v.dim).kron(swap_matrix(f, nc, w.dim)) \
        @ v.rho.kron(Matrix.identity(f, w.dim))
    bwd_mat = inner.chart.coords(bwd_flat @ rhs.chart.embedding)
    if bwd_mat is None:
        return failure("frobenius", "psi map misses the target equalizer",
                       dims=dims)
    try:
        fwd = ComoduleMorphism(lhs, rhs.module, fwd_mat)
        bwd = ComoduleMorphism(rhs.module, lhs, bwd_mat)
    except AxiomError as exc:
        return failure("frobenius", str(exc), dims=dims)
    if fwd.matrix @ bwd.matrix != Matrix.identity(f, rhs.module.dim):
        return failure("frobenius", "phi psi != id", dims=dims)
    if bwd.matrix @ fwd.matrix != Matrix.identity(f, lhs.dim):
        return failure("frobenius", "psi phi != id", dims=dims)
    return CheckReport("frobenius", dims=dims)


# -- strong symmetric monoidal closure of phi^* -------------------------------

def _tensor_iso(phi: CoalgebraMorphism, v: Comodule, w: Comodule,
                lhs: _Obj, rhs: _Obj):
    """The mutually inverse maps phi^*(V (x) W) <-> phi^* V (x) phi^* W.

    ``lhs`` presents phi^*(V (x) W) in V x W x D and ``rhs`` presents
    phi^* V (x) phi^* W in V x D x W x D.  Forward:
    v (x) w (x) c -> sum v (x) c1 (x) w (x) c2; backward:
    v (x) c (x) w (x) c~ -> v (x) w (x) eps(c) c~.  Returns the pair of
    morphisms, None where a map misses its target.
    """
    f = v.field
    nc = phi.source.dim
    # forward on the flat ambient V x W x C -> V x C x W x C
    fwd_flat = Matrix.identity(f, v.dim).kron(
        swap_matrix(f, w.dim, nc).kron(Matrix.identity(f, nc))) \
        @ Matrix.identity(f, v.dim * w.dim).kron(phi.source.delta)
    fwd_mat = rhs.chart.coords(fwd_flat @ lhs.chart.embedding)
    # backward on the flat ambient
    bwd_flat = Matrix.identity(f, v.dim).kron(
        phi.source.epsilon.kron(Matrix.identity(f, w.dim * nc)))
    bwd_mat = lhs.chart.coords(bwd_flat @ rhs.chart.embedding)
    if fwd_mat is None or bwd_mat is None:
        return None, None
    return (ComoduleMorphism(lhs.module, rhs.module, fwd_mat),
            ComoduleMorphism(rhs.module, lhs.module, bwd_mat))


def ssmc_check(phi: CoalgebraMorphism, v: Comodule,
               w: Comodule) -> CheckReport:
    """Strong symmetric monoidal closure of phi^* between cosemisimple
    coalgebras: tensor iso, unit iso, braiding compatibility, and (on
    group-like bases) the closedness dimension equality."""
    if not is_cosemisimple(phi.source) or not is_cosemisimple(phi.target):
        raise UnsupportedBaseError("ssmc needs cosemisimple coalgebras")
    if v.base != phi.target or w.base != phi.target:
        raise BaseMismatchError("comodules must be based on target(phi)")
    f = v.field
    nc = phi.source.dim
    details = []
    dims = {}
    # phi^* V, phi^* W, phi^*(V (x) W) and (in (iii)) phi^*(W (x) V) are
    # each built once and shared by the steps below
    av, aw = atom(v), atom(w)
    vw = ct(av, aw)
    p_vw_pair = pullback_functor(phi, vw.module)
    p_vw = _pullback_obj(phi, vw, p_vw_pair)
    pv = _pullback_obj(phi, av, pullback_functor(phi, v))
    pw = _pullback_obj(phi, aw, pullback_functor(phi, w))
    pv_pw = ct(pv, pw)
    # (i) tensor isomorphism with the displayed maps
    fwd, bwd = _tensor_iso(phi, v, w, p_vw, pv_pw)
    dims["pull_of_tensor"] = p_vw.module.dim
    dims["tensor_of_pulls"] = pv_pw.module.dim
    if fwd is None or bwd is None:
        return failure("ssmc", "tensor comparison misses the equalizer",
                       dims=dims)
    if fwd.matrix @ bwd.matrix != Matrix.identity(f, pv_pw.module.dim) \
            or bwd.matrix @ fwd.matrix != Matrix.identity(f,
                                                          p_vw.module.dim):
        return failure("ssmc", "tensor comparison maps are not inverse",
                       dims=dims)
    details.append("tensor-iso")
    # (ii) unit: phi^*(D) ~ C as C-comodules
    reg_d = regular_comodule(phi.target)
    reg_c = regular_comodule(phi.source)
    pd_mod, pd_sub = pullback_functor(phi, reg_d)
    unit_fwd = phi.target.epsilon.kron(Matrix.identity(f, nc)) @ pd_sub.basis
    unit_bwd = pd_sub.coords(phi.matrix.kron(Matrix.identity(f, nc))
                             @ phi.source.delta)
    dims["pull_of_unit"] = pd_mod.dim
    if unit_bwd is None:
        return failure("ssmc", "unit comparison misses the equalizer",
                       dims=dims)
    try:
        unit_f = ComoduleMorphism(pd_mod, reg_c, unit_fwd)
        unit_b = ComoduleMorphism(reg_c, pd_mod, unit_bwd)
    except AxiomError as exc:
        return failure("ssmc", f"unit comparison: {exc}", dims=dims)
    if unit_f.matrix @ unit_b.matrix != Matrix.identity(f, nc) \
            or unit_b.matrix @ unit_f.matrix != Matrix.identity(f,
                                                                pd_mod.dim):
        return failure("ssmc", "unit comparison maps are not inverse",
                       dims=dims)
    details.append("unit-iso")
    # (iii) braiding compatibility: the tensor isos intertwine the braidings
    wv = ct(aw, av)
    p_wv_pair = pullback_functor(phi, wv.module)
    pw_pv = ct(pw, pv)
    fwd_wv, _ = _tensor_iso(phi, w, v, _pullback_obj(phi, wv, p_wv_pair),
                            pw_pv)
    pull_br = pullback_map(phi, _transposition(vw, wv), src=p_vw_pair,
                           tgt=p_wv_pair)
    rhs_br = _transposition(pv_pw, pw_pv)
    if fwd_wv.matrix @ pull_br.matrix != rhs_br.matrix @ fwd.matrix:
        return failure("ssmc", "braiding is not preserved", dims=dims)
    details.append("braiding")
    # (iv) closedness dimensions on group-like bases
    if grouplike_labels(phi.source) is not None \
            and grouplike_labels(phi.target) is not None:
        lhs_hom = internal_hom(pv.module, pw.module)
        rhs_hom, _ = pullback_functor(phi, internal_hom(v, w))
        dims["hom_of_pulls"] = lhs_hom.dim
        dims["pull_of_hom"] = rhs_hom.dim
        if lhs_hom.dim != rhs_hom.dim:
            return failure("ssmc", "closedness dimensions differ", dims=dims)
        details.append("closedness-dims")
    return CheckReport("ssmc", dims=dims, details=details)


# -- composition isomorphisms --------------------------------------------------

def composition_isos(phi: CoalgebraMorphism, psi: CoalgebraMorphism,
                     v: Comodule, w: Comodule, rng):
    """Sigma_{psi phi} = Sigma_psi Sigma_phi exactly, and
    (psi phi)^* ~ phi^* psi^* up to an isomorphism found by search.

    v lives over source(phi), w over target(psi); psi phi must compose.
    Returns (strict_equality, iso or None, dims).
    """
    composite = psi @ phi
    strict = sigma(composite, v) == sigma(psi, sigma(phi, v))
    lhs, _ = pullback_functor(composite, w)
    psw, _ = pullback_functor(psi, w)
    rhs, _ = pullback_functor(phi, psw)
    iso = find_isomorphism(lhs, rhs, rng)
    return strict, iso, {"composite_pull": lhs.dim, "iterated_pull": rhs.dim}
