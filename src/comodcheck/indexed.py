"""The indexed category of comodules over coalgebras.

A morphism phi: D -> C induces the corestriction Sigma_phi: Vec^D -> Vec^C
(same space, coaction (id (x) phi) rho) and the pullback
phi^*(W) = W (x)_C U(phi), realized as the subspace of W (x) D cut by the
equalizer condition, with coaction the restriction of id (x) delta_D.  The
adjunction Sigma_phi -| phi^* is witnessed by the explicit transposes
hat(f) = (f (x) id) rho  and  tilde(g) = (id (x) eps_D) g.
``adjunction_certificate`` applies them to the whole bases L and B of the
two hom spaces (``comod.hom_space``) as block maps, and certifies the
adjunction by exact equations: every transpose lies in its hom space, and
tilde(hat(L)) = L and hat(tilde(B)) = B.

For group-like bases phi^* also has a right adjoint "forall".  There a
fiber's product of components is their sum, so forall_phi is Sigma_phi,
and the adjunction phi^* -| forall_phi is carried by two explicit maps:
the unit eta_W = (id_W (x) phi^T) rho_W, w -> sum_x pi_phi(x) w (x) x,
and the counit eps_V, the coseparability retraction
r_V = (id_V (x) gamma_D)(rho_V (x) id_D) of ``comod.is_injective``
restricted to phi^* Sigma_phi V.  forall is guarded by the coflatness
hypothesis on U(phi), decided once per morphism object, on first use, and
kept on the morphism (``u_coflat``); callers that share one morphism
object therefore share the decision.  When the base is coseparable, as
every power of a group-like base is, the decision is the retraction
certificate of ``comod.is_injective``; otherwise it is an exact splitting
solve.  Since forall_phi = Sigma_phi there, ``adjoint_triple_identities``
certifies the triangle identities of both adjunctions of
Sigma_phi -| phi^* -| forall_phi from three pullbacks, each built once.

The law checks verify, per instance and in exact arithmetic, the canonical
isomorphisms of the calculus: Beck-Chevalley along pullback squares for
Sigma (through the inverse t of the comparison of the apex with the
cotensor D1 (x)_C D2) and for forall (the canonical mate), Frobenius
reciprocity, and strong symmetric monoidal closure of phi^* between
cosemisimple bases.  Each comparison is an explicit map checked exactly to
be an invertible comodule morphism; dimension counting alone is never
accepted for a law with a formula.  Every comparison map and transpose is
read as coordinates from column dicts built from nonzeros by
``_kron_cols`` and ``_swapped``: no law check builds a dense flat vector.
Morphisms keep those coordinate columns, and every inverse pair and
identity a check compares (Beck-Chevalley, Frobenius, ssmc, the
composition pair, the adjoint triple) is composed from them by
``comod._composite`` and compared by ``_difference``; the comparison m of
a pullback square is inverted from its columns by ``exactlin._inverse``.
"""

from __future__ import annotations

from .coalg import (CoalgebraMorphism, coseparability_form,
                    grouplike_labels, is_cosemisimple,
                    pullback as coalg_pullback)
from .comod import (Comodule, ComoduleMorphism, _composite,
                    _cotensor_kernel, _Obj, _restricted_coaction, atom,
                    coseparability_retraction, ct, hom_space, internal_hom,
                    is_coflat, regular_comodule)
from .errors import (AxiomError, BaseMismatchError, HypothesisViolatedError,
                     UnsupportedBaseError)
from .exactlin import (Chart, _difference, _inverse, _inverse_pair,
                       _is_identity, _kron_cols, _reduced, _swapped,
                       _transposed)
from .report import CheckReport, failure

__all__ = [
    "sigma", "sigma_map", "coaction_comodule", "pullback_functor",
    "pullback_map", "transpose_hat", "transpose_tilde",
    "AdjunctionCertificate", "adjunction_certificate", "forall",
    "forall_transpose_fwd", "forall_transpose_bwd", "forall_unit",
    "forall_counit", "adjoint_triple_identities", "PullbackSquare",
    "beck_maps", "beck_chevalley_check", "beck_for_forall_check",
    "frobenius_check", "ssmc_check", "composition_isos",
]


# -- Sigma and phi^* ----------------------------------------------------------

def sigma(phi: CoalgebraMorphism, v: Comodule) -> Comodule:
    """Corestriction along phi: same space, coaction (id (x) phi) rho."""
    if v.base != phi.source:
        raise BaseMismatchError("comodule is not based on the source of phi")
    return Comodule(phi.target, v.dim, _kron_cols(
        v.dim, phi.columns, phi.target.dim, v._rho_cols))


def sigma_map(phi: CoalgebraMorphism,
              f: ComoduleMorphism) -> ComoduleMorphism:
    """Sigma is the identity on underlying linear maps."""
    return ComoduleMorphism(sigma(phi, f.source), sigma(phi, f.target),
                            f.columns)


def coaction_comodule(phi: CoalgebraMorphism) -> Comodule:
    """U(phi): the source space over the target, coaction (id (x) phi) delta,
    built once per morphism object and kept on it (``phi._u``)."""
    if phi._u is None:
        d = phi.source
        phi._u = Comodule(phi.target, d.dim, _kron_cols(
            d.dim, phi.columns, phi.target.dim, d._delta_cols))
    return phi._u


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
    return _restricted_coaction(d, d._delta_cols, sub,
                                "pullback-coaction"), sub


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
    nd = phi.source.dim
    cols = tgt_sub.coords(_kron_cols(f.columns, nd, nd, src_sub.columns))
    if cols is None:
        raise AxiomError("pullback-functor",
                         "f (x) id does not preserve the equalizer")
    return ComoduleMorphism(src_mod, tgt_mod, cols)


# -- the adjunction Sigma_phi -| phi^* ----------------------------------------

def transpose_hat(phi: CoalgebraMorphism, v: Comodule, f: ComoduleMorphism,
                  pw=None, sv=None) -> ComoduleMorphism:
    """hat(f): V -> phi^* W for f: Sigma_phi V -> W, v -> sum f(v0) (x) v1;
    ``pw`` = pullback_functor(phi, W) and ``sv`` = sigma(phi, V) when the
    caller has them."""
    if sv is None:
        sv = sigma(phi, v)
    if f.source != sv:
        raise BaseMismatchError("f is not defined on Sigma_phi V")
    if pw is None:
        pw = pullback_functor(phi, f.target)
    pw_mod, pw_sub = pw
    nd = phi.source.dim
    cols = pw_sub.coords(_kron_cols(f.columns, nd, nd, v._rho_cols))
    if cols is None:
        raise AxiomError("transpose-hat",
                         "hat(f) does not land in the equalizer subspace")
    return ComoduleMorphism(v, pw_mod, cols)


def transpose_tilde(phi: CoalgebraMorphism, v: Comodule, w: Comodule,
                    g: ComoduleMorphism, pw, sv=None) -> ComoduleMorphism:
    """tilde(g) = (id (x) eps_D) g: Sigma_phi V -> W for g: V -> phi^* W;
    ``sv`` = sigma(phi, V) when the caller has it."""
    pw_mod, pw_sub = pw
    if g.source != v or g.target != pw_mod:
        raise BaseMismatchError("g is not a morphism V -> phi^* W")
    if sv is None:
        sv = sigma(phi, v)
    return ComoduleMorphism(sv, w, _kron_cols(
        _tilde_factor(phi, w, pw_sub), 1, 1, g.columns))


def _tilde_factor(phi: CoalgebraMorphism, w: Comodule, pw_sub):
    """rec = (id_W (x) eps_D) B, B the basis of phi^* W, as column dicts."""
    return _reduced(_kron_cols(w.dim, phi.source._eps_cols, 1,
                               pw_sub.columns), w.field.char)


def _hat_factor(v: Comodule):
    """R[(c, j), a] = rho_V[(a, c), j] as column dicts: for f: Sigma_phi V
    -> W, vec((f (x) id_D) rho_V) = (I_W (x) R) vec f (row-major)."""
    m, n = v.dim, v.base.dim
    cols = [{} for _ in range(m)]
    for j, col in enumerate(v._rho_cols):
        for idx, x in col.items():
            a, c = divmod(idx, n)
            cols[a][c * m + j] = x
    return cols


def _batched_hat(v: Comodule, w_dim: int, pw, x):
    """vec hat(f_t) for the {row: value} columns x, each vec f_t of a map
    f_t: Sigma_phi V -> W (row-major), pw = pullback_functor(phi, W).

    Row q*m + j of column t of (I_W (x) R) x, R = ``_hat_factor(V)``, is
    row q of column j of (f_t (x) id) rho_V; read as column t*m + j in
    phi^* W, its coordinate s is row s*m + j of vec hat(f_t).  Raises
    ``AxiomError("transpose-hat")`` when a column leaves the equalizer."""
    m, n, d = v.dim, v.base.dim, len(x)
    images = [{} for _ in range(d * m)]
    for t, col in enumerate(_kron_cols(w_dim, _hat_factor(v), n * m, x)):
        for key, y in col.items():
            images[t * m + key % m][key // m] = y
    coords = pw[1].coords(images)
    if coords is None:
        raise AxiomError("transpose-hat",
                         "hat(f) does not land in the equalizer subspace")
    return [{s * m + j: y for j in range(m)
             for s, y in coords[t * m + j].items()} for t in range(d)]


def _batched_tilde(rec, v_dim: int, x):
    """tilde on every column of x at once: column t is the {row: value}
    dict of vec g_t for g_t: V -> phi^* W, and vec(rec g_t) =
    (rec (x) I_V) vec g_t, for rec = ``_tilde_factor(phi, W, pw_sub)``."""
    return _kron_cols(rec, v_dim, v_dim, x)


def _in_hom(hom, x, what: str) -> None:
    """Every {row: value} column of x is the vec of a comodule morphism:
    it lies in the hom space ``hom``."""
    if hom.coords(x) is None:
        raise AxiomError("comodule-morphism",
                         f"{what} is not a comodule morphism")


def _residual(hom, x, what: str):
    """The ``_difference`` witness (column, row) of a round trip x
    ({row: value} columns) of the basis of ``hom`` against that basis, or
    None when they are equal; one that misses must still lie in ``hom``
    (``_in_hom``)."""
    witness = _difference(x, hom.columns, hom.field.char)
    if witness is not None:
        _in_hom(hom, x, what)
    return witness


class AdjunctionCertificate:
    """Round-trip evidence for Sigma_phi -| phi^* on one pair (V, W).

    Carries the two hom-space dimensions and the two round-trip residuals
    of tilde(hat(L)) = L and hat(tilde(B)) = B on the hom bases L and B:
    each the ``_difference`` witness (column, row) where the round trip
    misses its basis, or None (both None on success).
    """

    __slots__ = ("dim_sigma_side", "dim_pullback_side", "residuals")

    def __init__(self, dim_sigma_side, dim_pullback_side, residuals):
        self.dim_sigma_side = dim_sigma_side
        self.dim_pullback_side = dim_pullback_side
        self.residuals = residuals

    @property
    def round_trips_ok(self):
        return all(r is None for r in self.residuals)

    @property
    def ok(self):
        return (self.dim_sigma_side == self.dim_pullback_side
                and self.round_trips_ok)


def adjunction_certificate(phi: CoalgebraMorphism, v: Comodule,
                           w: Comodule) -> AdjunctionCertificate:
    """Verify Hom^C(Sigma_phi V, W) ~ Hom^D(V, phi^* W) via the transposes.

    Sigma_phi V and phi^* W are built once, and the bases L of
    Hom(Sigma_phi V, W) and B of Hom(V, phi^* W) come from ``hom_space``,
    whose columns are vec'd maps.  hat and tilde act on whole bases as
    block maps (``_batched_hat``, ``_batched_tilde``).  The certificate is
    exact:

    - hat(L) lies in B's space and tilde(B) in L's, so every transpose is a
      comodule morphism (else ``AxiomError("comodule-morphism")``); a hat
      that leaves the equalizer raises ``AxiomError("transpose-hat")``;
    - tilde(hat(L)) = L and hat(tilde(B)) = B as matrix equations (the
      residuals), and dim L = dim B.

    A round trip that fails and leaves its hom space raises like a
    transpose that is not a comodule morphism.
    """
    if v.base != phi.source or w.base != phi.target:
        raise BaseMismatchError("bases do not match phi")
    sv = sigma(phi, v)
    pw = pullback_functor(phi, w)
    left = hom_space(sv, w)
    right = hom_space(v, pw[0])
    rec = _tilde_factor(phi, w, pw[1])
    hats = _batched_hat(v, w.dim, pw, left.columns)
    _in_hom(right, hats, "hat(f)")
    back = _residual(left, _batched_tilde(rec, v.dim, hats), "tilde(hat(f))")
    tildes = _batched_tilde(rec, v.dim, right.columns)
    _in_hom(left, tildes, "tilde(g)")
    again = _residual(right, _batched_hat(v, w.dim, pw, tildes),
                      "hat(tilde(g))")
    return AdjunctionCertificate(left.dim, right.dim, [back, again])


# -- the right adjoint forall over group-like bases ---------------------------

def forall(phi: CoalgebraMorphism, v: Comodule) -> Comodule:
    """Right adjoint to phi^* on objects: forall_phi V = Sigma_phi V.

    (forall_phi V)_y is the product of the components V_x over the fiber
    of y, a finite product of vector spaces and hence their sum
    (Sigma_phi V)_y.  The gates run first, in this order: V lives over the
    source of phi; U(phi) is coflat (the theorem hypothesis), decided with
    ``is_coflat`` on the first call on a morphism object and kept in
    ``phi.u_coflat``, so a non-coflat U(phi) raises
    ``HypothesisViolatedError`` every time; both bases are group-like.
    """
    if v.base != phi.source:
        raise BaseMismatchError("comodule is not based on the source of phi")
    if phi.u_coflat is None:
        phi.u_coflat = is_coflat(coaction_comodule(phi))
    if not phi.u_coflat:
        raise HypothesisViolatedError(
            "U(phi) is not coflat; phi^* has no right adjoint")
    if grouplike_labels(phi.source) is None \
            or grouplike_labels(phi.target) is None:
        raise UnsupportedBaseError(
            "forall is only computable over group-like bases")
    return sigma(phi, v)


def _unit_coords(phi: CoalgebraMorphism, w: Comodule, pw_sub):
    """eta_W in the coordinates of phi^* W, as columns: (id_W (x) phi^T)
    rho_W, that is w -> sum_x pi_phi(x) w (x) x over the group-likes x of
    the source."""
    cols = pw_sub.coords(_kron_cols(w.dim, _transposed(
        phi.columns, phi.target.dim), phi.source.dim, w._rho_cols))
    if cols is None:
        raise AxiomError("forall-unit", "(id x phi^T) rho_W misses phi^* W")
    return cols


def forall_unit(phi: CoalgebraMorphism, w: Comodule, pw) -> ComoduleMorphism:
    """eta_W: W -> forall_phi phi^* W, for pw = pullback_functor(phi, W)."""
    return ComoduleMorphism(w, forall(phi, pw[0]), _unit_coords(phi, w, pw[1]))


def forall_counit(phi: CoalgebraMorphism, v: Comodule,
                  pfv) -> ComoduleMorphism:
    """eps_V: phi^* forall_phi V -> V, the coseparability retraction
    r_V(v (x) x) = pi_x v of V (x) D restricted to phi^* forall V, for
    pfv = pullback_functor(phi, forall(phi, V))."""
    pfv_mod, pfv_sub = pfv
    return ComoduleMorphism(pfv_mod, v, _kron_cols(
        coseparability_retraction(v), 1, 1, pfv_sub.columns))


def forall_transpose_fwd(phi: CoalgebraMorphism, w: Comodule, pw,
                         g: ComoduleMorphism, fv=None) -> ComoduleMorphism:
    """W -> forall_phi V for g: phi^* W -> V, the composite
    Sigma_phi(g) eta_W; ``fv`` = forall(phi, V) when the caller has it."""
    if g.source != pw[0]:
        raise BaseMismatchError("g is not a morphism phi^* W -> V")
    if fv is None:
        fv = forall(phi, g.target)
    return ComoduleMorphism(w, fv, _kron_cols(
        g.columns, 1, 1, _unit_coords(phi, w, pw[1])))


def forall_transpose_bwd(phi: CoalgebraMorphism, v: Comodule, pw,
                         h: ComoduleMorphism) -> ComoduleMorphism:
    """phi^* W -> V for h: W -> forall_phi V, the composite
    eps_V phi^*(h)."""
    if h.target != sigma(phi, v):
        raise BaseMismatchError("h is not a morphism W -> forall V")
    pfv = pullback_functor(phi, h.target)
    return forall_counit(phi, v, pfv) @ pullback_map(phi, h, src=pw, tgt=pfv)


def adjoint_triple_identities(phi: CoalgebraMorphism, v: Comodule,
                              w: Comodule):
    """The unit/counit triangle identities of Sigma_phi -| phi^* -|
    forall_phi on (V, W), exactly.

    forall_phi = Sigma_phi (see ``forall``), so three pullbacks serve all
    four identities, each built once: phi^* W, phi^* Sigma_phi V and
    phi^* Sigma_phi phi^* W.  The exists side is checked first; forall's
    gates run with its unit.  Returns None when all four hold, else the
    adjunction that failed, "exists" or "forall".
    """
    sv = sigma(phi, v)
    psv = pullback_functor(phi, sv)
    pw = pullback_functor(phi, w)
    pw_mod = pw[0]
    spw = sigma(phi, pw_mod)
    pspw = pullback_functor(phi, spw)
    # exists: eps_{Sigma V} Sigma(eta_V) = id and phi^*(eps_W) eta_{phi^* W}
    # = id, the unit and counit being the transposes of identities
    eta_v = transpose_hat(phi, v, sv.identity_morphism(), psv, sv)
    eps_w = transpose_tilde(phi, pw_mod, w, pw_mod.identity_morphism(), pw,
                            spw)
    eps_sv = transpose_tilde(phi, psv[0], sv, psv[0].identity_morphism(),
                             psv)
    eta_pw = transpose_hat(phi, pw_mod, spw.identity_morphism(), pspw, spw)
    pull_eps = pullback_map(phi, eps_w, src=pspw, tgt=pw)
    p = v.field.char
    # Sigma(eta_V) has the columns of eta_V
    if not _is_identity(_composite(eps_sv, eta_v), p) \
            or not _is_identity(_composite(pull_eps, eta_pw), p):
        return "exists"
    # forall: eps_{phi^* W} phi^*(eta_W) = id on phi^* W, and
    # forall(eps_V) eta_{forall V} = id on forall V, where
    # forall(eps_V) = Sigma(eps_V) has the columns of eps_V
    eta_w = forall_unit(phi, w, pw)
    lifted = pullback_map(phi, eta_w, src=pw, tgt=pspw)
    eta_sv = forall_unit(phi, sv, psv)
    if not _is_identity(_composite(forall_counit(phi, pw_mod, pspw),
                                   lifted), p) \
            or not _is_identity(_composite(forall_counit(phi, v, psv),
                                           eta_sv), p):
        return "forall"
    return None


# -- pullback squares and Beck-Chevalley --------------------------------------

class PullbackSquare:
    """A commuting square delta/gamma over beta/alpha that is a pullback.

    delta: D -> D1, gamma: D -> D2, beta: D1 -> C, alpha: D2 -> C.
    The pullback of (beta, alpha) is the cotensor E = D1 (x)_C D2 inside
    D1 (x) D2 (see ``coalg.pullback``).  Construction verifies
    beta delta = alpha gamma and that the coalgebra morphism
    P = (delta (x) gamma) delta_D lands in E with invertible coordinate
    matrix m: then P is an isomorphism of D onto E carrying delta and gamma
    to the projections.  It keeps E (``cotensor``) and t = m^-1, which
    sends coordinates in E back to D, as column dicts for the Beck maps;
    m is inverted from its columns by ``exactlin._inverse``.
    ``_cotensor`` is E when the legs are the canonical ones read off it
    (``from_cospan``); both facts are then checked already and t = I.
    """

    __slots__ = ("delta", "gamma", "beta", "alpha", "cotensor", "t")

    def __init__(self, delta: CoalgebraMorphism, gamma: CoalgebraMorphism,
                 beta: CoalgebraMorphism, alpha: CoalgebraMorphism,
                 _cotensor=None):
        if delta.source != gamma.source:
            raise BaseMismatchError("delta and gamma need a common source")
        if beta.target != alpha.target:
            raise BaseMismatchError("beta and alpha need a common target")
        if delta.target != beta.source or gamma.target != alpha.source:
            raise BaseMismatchError("square legs do not match")
        d = delta.source
        if _cotensor is not None:
            t = [{j: 1} for j in range(d.dim)]
        else:
            if _difference(_kron_cols(beta.columns, 1, 1, delta.columns),
                           _kron_cols(alpha.columns, 1, 1, gamma.columns),
                           d.field.char) is not None:
                raise AxiomError("pullback-square",
                                 "square does not commute")
            _cotensor = _cotensor_kernel(coaction_comodule(beta),
                                         coaction_comodule(alpha))
            m = _cotensor.coords(_kron_cols(delta.columns, gamma.columns,
                                            gamma.target.dim, d._delta_cols))
            t = None if m is None else _inverse(d.field, _cotensor.dim, m)
            if t is None:
                raise AxiomError("pullback-square",
                                 "apex is not the pullback of the cospan")
        self.delta = delta
        self.gamma = gamma
        self.beta = beta
        self.alpha = alpha
        self.cotensor = _cotensor
        self.t = t

    @classmethod
    def from_cospan(cls, beta: CoalgebraMorphism,
                    alpha: CoalgebraMorphism) -> "PullbackSquare":
        """The canonical pullback square.  Its legs u, v are read off the
        cotensor kernel E, which is built once and certifies them, and
        ``coalg.pullback`` checks beta u = alpha v.  t is the identity with
        no coordinates computed: (u (x) v) delta_P = (p1 (x) p2)
        (B (x) B) delta_P = (p1 (x) p2) delta B = B, by the closure
        equation ``_subcoalgebra`` checks on E's basis B and the counit
        laws of the factors, (p1 (x) p2) delta = id on the product."""
        if beta.target != alpha.target:
            raise BaseMismatchError("pullback needs a common codomain")
        cotensor = _cotensor_kernel(coaction_comodule(beta),
                                    coaction_comodule(alpha))
        _, u, v = coalg_pullback(beta, alpha, _kernel=cotensor)
        return cls(u, v, beta, alpha, _cotensor=cotensor)


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
    # forward: v (x) d1 |-> sum v0 (x) (t after swap)(v1 (x) d1)
    step = _swapped(_kron_cols(v._rho_cols, n1, n1, side1[1].columns), v.dim,
                    n2, n1, 1)
    chart = Chart.kron(Chart.identity(f, v.dim),
                       Chart.restrict(Chart.identity(f, n1 * n2),
                                      square.cotensor))
    coords = chart.coords(step)
    if coords is None:
        return None, None, side1, side2
    phi_cols = side2[1].coords(_kron_cols(v.dim, square.t,
                                          square.delta.source.dim, coords))
    if phi_cols is None:
        return None, None, side1, side2
    phi = ComoduleMorphism(side1[0], side2_mod, phi_cols)
    # backward: v (x) d |-> v (x) delta(d)
    psi_cols = side1[1].coords(_kron_cols(v.dim, square.delta.columns, n1,
                                          side2[1].columns))
    if psi_cols is None:
        return phi, None, side1, side2
    psi = ComoduleMorphism(side2_mod, side1[0], psi_cols)
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
    if not _is_identity(_composite(phi, psi), v.field.char):
        return failure("beck", "phi psi != id", dims=dims)
    if not _is_identity(_composite(psi, phi), v.field.char):
        return failure("beck", "psi phi != id", dims=dims)
    return CheckReport("beck", refs=refs, dims=dims)


def beck_for_forall_check(square: PullbackSquare, v: Comodule,
                          pv=None) -> CheckReport:
    """Beck condition for the right adjoints, for V over D1: the canonical
    mate alpha^* forall_beta V -> forall_gamma delta^* V is an invertible
    comodule morphism, exactly.

    The mate (Kelly-Street) is Sigma_gamma(g) eta, the transpose under
    gamma^* -| forall_gamma of g: gamma^* alpha^* forall_beta V ~
    delta^* beta^* forall_beta V -> delta^* V, which is
    m (x) d2 (x) d -> eps(d2) sum r_V(m (x) delta(d_1)) (x) d_2 on the flat
    ambient, r_V being the counit of beta^* -| forall_beta before
    restriction.  ``pv`` is delta^* V from ``pullback_functor`` when the
    caller has it.
    """
    if v.base != square.beta.source:
        raise BaseMismatchError("comodule must be based on source(beta)")
    if pv is None:
        pv = pullback_functor(square.delta, v)
    lhs = forall(square.gamma, pv[0])
    rhs = forall(square.beta, v)
    pa = _pullback_obj(square.alpha, atom(rhs),
                       pullback_functor(square.alpha, rhs))
    pga = pullback_functor(square.gamma, pa.module)
    dims = {"forall_then_pull": pa.module.dim, "pull_then_forall": lhs.dim}
    d = square.delta.source
    nd, n1 = d.dim, square.delta.target.dim
    # d2 (x) d -> eps(d2) sum delta(d_1) (x) d_2, then r_V (x) id_D
    lift = _kron_cols(square.delta.columns, nd, nd, d._delta_cols)
    flat = _kron_cols(rhs.dim, lift, n1 * nd, _counit_middle(
        square.alpha.source._eps_cols, rhs.dim, nd,
        _pullback_obj(square.gamma, pa, pga).chart.columns))
    g_cols = pv[1].coords(_kron_cols(coseparability_retraction(v), nd, nd,
                                     flat))
    if g_cols is None:
        return failure("forall-beck", "g misses the equalizer of delta^* V",
                       dims=dims)
    try:
        g = ComoduleMorphism(pga[0], pv[0], g_cols)
        mate = forall_transpose_fwd(square.gamma, pa.module, pga, g, lhs)
    except AxiomError as exc:
        return failure("forall-beck", str(exc), dims=dims)
    if not mate.is_isomorphism():
        return failure("forall-beck", "the mate is not invertible",
                       dims=dims)
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
    nc = phi.source.dim
    pw = _pullback_obj(phi, atom(w), pullback_functor(phi, w))
    inner = ct(atom(v), pw)
    lhs = sigma(phi, inner.module)
    rhs = ct(atom(sigma(phi, v)), atom(w))
    dims = {"sigma_of_cotensor": lhs.dim, "cotensor_of_sigma": rhs.module.dim}
    # forward: drop c through the counit
    fwd_cols = rhs.chart.coords(_kron_cols(
        v.dim * w.dim, phi.source._eps_cols, 1, inner.chart.columns))
    if fwd_cols is None:
        return failure("frobenius", "phi map misses the target equalizer",
                       dims=dims)
    # backward: v (x) w -> v0 (x) w (x) v1
    bwd_flat = _swapped(_kron_cols(v._rho_cols, w.dim, w.dim,
                                   rhs.chart.columns), v.dim, nc, w.dim, 1)
    bwd_cols = inner.chart.coords(bwd_flat)
    if bwd_cols is None:
        return failure("frobenius", "psi map misses the target equalizer",
                       dims=dims)
    try:
        fwd = ComoduleMorphism(lhs, rhs.module, fwd_cols)
        bwd = ComoduleMorphism(rhs.module, lhs, bwd_cols)
    except AxiomError as exc:
        return failure("frobenius", str(exc), dims=dims)
    if not _is_identity(_composite(fwd, bwd), v.field.char):
        return failure("frobenius", "phi psi != id", dims=dims)
    if not _is_identity(_composite(bwd, fwd), v.field.char):
        return failure("frobenius", "psi phi != id", dims=dims)
    return CheckReport("frobenius", dims=dims)


# -- strong symmetric monoidal closure of phi^* -------------------------------

def _counit_middle(eps, m: int, k: int, x):
    """(I_m (x) eps (x) I_k) on columns x, eps by its ``_eps_cols``."""
    return _kron_cols(m * k, eps, 1, _swapped(x, m, len(eps), k, 1))


def _tensor_fwd(phi: CoalgebraMorphism, v_dim: int, w_dim: int, x):
    """v (x) w (x) c -> sum v (x) c1 (x) w (x) c2, flat, on x's columns."""
    nc = phi.source.dim
    return _swapped(_kron_cols(v_dim * w_dim, phi.source._delta_cols,
                               nc * nc, x), v_dim, w_dim, nc, nc)


def _tensor_iso(phi: CoalgebraMorphism, v: Comodule, w: Comodule,
                lhs: _Obj, rhs: _Obj):
    """The mutually inverse maps phi^*(V (x) W) <-> phi^* V (x) phi^* W.

    ``lhs`` presents phi^*(V (x) W) in V x W x D and ``rhs`` presents
    phi^* V (x) phi^* W in V x D x W x D.  Forward: ``_tensor_fwd``;
    backward: v (x) c (x) w (x) c~ -> v (x) w (x) eps(c) c~.  Returns the
    pair of morphisms, None where a map misses its target.
    """
    nc = phi.source.dim
    fwd_cols = rhs.chart.coords(_tensor_fwd(phi, v.dim, w.dim,
                                            lhs.chart.columns))
    bwd_cols = lhs.chart.coords(_counit_middle(
        phi.source._eps_cols, v.dim, w.dim * nc, rhs.chart.columns))
    if fwd_cols is None or bwd_cols is None:
        return None, None
    return (ComoduleMorphism(lhs.module, rhs.module, fwd_cols),
            ComoduleMorphism(rhs.module, lhs.module, bwd_cols))


def ssmc_check(phi: CoalgebraMorphism, v: Comodule,
               w: Comodule) -> CheckReport:
    """Strong symmetric monoidal closure of phi^* between cosemisimple
    coalgebras, checked exactly on explicit maps: (i) tensor iso fwd, (ii)
    unit iso, (iii) braiding, tau E fwd = F_{W,V} (tau (x) 1) E' for the
    flat embeddings E of phi^* V (x) phi^* W and E' of phi^*(V (x) W) and
    F = ``_tensor_fwd``, which is fwd_{W,V} phi^*(sigma) = sigma fwd as E
    is injective, and (iv) closedness, where the comparison
    phi^*[V, W] -> [phi^* V, phi^* W] of Eilenberg and Kelly, for
    [V, W] = W (x)_C V^vee on any base, must be an invertible comodule
    morphism.  Closedness keeps the detail name ``closedness-dims`` (and
    the dims ``hom_of_pulls``, ``pull_of_hom``) for payload stability."""
    if not is_cosemisimple(phi.source) or not is_cosemisimple(phi.target):
        raise UnsupportedBaseError("ssmc needs cosemisimple coalgebras")
    if v.base != phi.target or w.base != phi.target:
        raise BaseMismatchError("comodules must be based on target(phi)")
    f, nc = v.field, phi.source.dim
    details = []
    dims = {}
    # phi^* V, phi^* W and phi^*(V (x) W) are each built once and shared
    # by the steps below
    av, aw = atom(v), atom(w)
    vw = ct(av, aw)
    p_vw = _pullback_obj(phi, vw, pullback_functor(phi, vw.module))
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
    if not _inverse_pair(fwd.columns, bwd.columns, f.char):
        return failure("ssmc", "tensor comparison maps are not inverse",
                       dims=dims)
    details.append("tensor-iso")
    # (ii) unit: phi^*(D) ~ C as C-comodules
    reg_d = regular_comodule(phi.target)
    reg_c = regular_comodule(phi.source)
    pd_mod, pd_sub = pullback_functor(phi, reg_d)
    unit_fwd = _kron_cols(phi.target._eps_cols, nc, nc, pd_sub.columns)
    unit_bwd = pd_sub.coords(_kron_cols(phi.columns, nc, nc,
                                        phi.source._delta_cols))
    dims["pull_of_unit"] = pd_mod.dim
    if unit_bwd is None:
        return failure("ssmc", "unit comparison misses the equalizer",
                       dims=dims)
    try:
        unit_f = ComoduleMorphism(pd_mod, reg_c, unit_fwd)
        unit_b = ComoduleMorphism(reg_c, pd_mod, unit_bwd)
    except AxiomError as exc:
        return failure("ssmc", f"unit comparison: {exc}", dims=dims)
    if not _inverse_pair(unit_f.columns, unit_b.columns, f.char):
        return failure("ssmc", "unit comparison maps are not inverse",
                       dims=dims)
    details.append("unit-iso")
    # (iii) braiding compatibility, on the flat ambient W x D x V x D
    br_lhs = _swapped(pv_pw.chart._apply(fwd.columns), 1, v.dim * nc,
                      w.dim * nc, 1)
    br_rhs = _tensor_fwd(phi, w.dim, v.dim, _swapped(
        p_vw.chart.columns, 1, v.dim, w.dim, nc))
    if _difference(br_lhs, br_rhs, f.char) is not None:
        return failure("ssmc", "braiding is not preserved", dims=dims)
    details.append("braiding")
    # (iv) closedness: phi^*[V, W] -> [phi^* V, phi^* W] sends
    # w (x) xi (x) d in W x V* x D to sum (w (x) d_1) (x)
    # B^T (xi (x) gamma(d_2, -)), for B the basis of phi^* V in V x D
    hom_mod, hom_sub = internal_hom(v, w)
    p_hom, p_hom_sub = pullback_functor(phi, hom_mod)
    hom_p, hom_p_sub = internal_hom(pv.module, pw.module)
    dims["hom_of_pulls"] = hom_p.dim
    dims["pull_of_hom"] = p_hom.dim
    gamma = _transposed(coseparability_form(phi.source), nc)
    pair = _transposed(_kron_cols(v.dim, gamma, nc, pv.chart.columns),
                       v.dim * nc)
    split = _swapped(_kron_cols(hom_sub.columns, phi.source._delta_cols,
                                nc * nc, p_hom_sub.columns),
                     w.dim, v.dim, nc, nc)
    chart = Chart.restrict(Chart.kron(pw.chart, Chart.identity(
        f, pv.module.dim)), hom_p_sub)
    cmp_cols = chart.coords(_kron_cols(w.dim * nc, pair, pv.module.dim,
                                       split))
    if cmp_cols is None:
        return failure("ssmc", "closedness comparison misses the internal "
                       "hom", dims=dims)
    try:
        invertible = ComoduleMorphism(p_hom, hom_p,
                                      cmp_cols).is_isomorphism()
    except AxiomError as exc:
        return failure("ssmc", f"closedness comparison: {exc}", dims=dims)
    if not invertible:
        return failure("ssmc", "closedness comparison is not invertible",
                       dims=dims)
    details.append("closedness-dims")
    return CheckReport("ssmc", dims=dims, details=details)


# -- composition isomorphisms --------------------------------------------------

def composition_isos(phi: CoalgebraMorphism, psi: CoalgebraMorphism,
                     v: Comodule, w: Comodule):
    """Sigma_{psi phi} = Sigma_psi Sigma_phi exactly, and the canonical
    pair (psi phi)^* W <-> phi^* psi^* W: w (x) c -> sum w (x) phi(c_1)
    (x) c_2 and w (x) d (x) c -> eps(d) w (x) c.

    v lives over source(phi), w over target(psi).  Returns (strict
    equality, the pair or None unless exact two-sided inverses, dims).
    """
    composite = psi @ phi
    strict = sigma(composite, v) == sigma(psi, sigma(phi, v))
    nc = phi.source.dim
    aw = atom(w)
    lhs = _pullback_obj(composite, aw, pullback_functor(composite, w))
    psw = _pullback_obj(psi, aw, pullback_functor(psi, w))
    rhs = _pullback_obj(phi, psw, pullback_functor(phi, psw.module))
    dims = {"composite_pull": lhs.module.dim, "iterated_pull": rhs.module.dim}
    lift = _kron_cols(phi.columns, nc, nc, phi.source._delta_cols)
    fwd_cols = rhs.chart.coords(_kron_cols(w.dim, lift,
                                           phi.target.dim * nc,
                                           lhs.chart.columns))
    bwd_cols = lhs.chart.coords(_counit_middle(
        psi.source._eps_cols, w.dim, nc, rhs.chart.columns))
    if fwd_cols is None or bwd_cols is None:
        return strict, None, dims
    pair = (ComoduleMorphism(lhs.module, rhs.module, fwd_cols),
            ComoduleMorphism(rhs.module, lhs.module, bwd_cols))
    inverse = _inverse_pair(pair[0].columns, pair[1].columns, v.field.char)
    return strict, pair if inverse else None, dims
