"""The LNL layer: coalgebras over a fixed base, the comparison functor into
comodules, morphisms of LNL adjunctions, and the hyperdoctrine conditions
over the base of tensor powers.

An object over the base C is a coalgebra morphism phi: D -> C; the functor
into comodules sends it to (D, (id (x) phi) delta_D).  Binary products in
the slice are pullbacks, the terminal object is id_C, and the comparison
functor is strong monoidal: (u (x) v) delta_D identifies the product with
the cotensor of the images, which is checked per instance as an exact
isomorphism of comodules.

Base change along f: C' -> C acts on the slice by pullback (L_f) and on
comodules by f^* (K_f); the pair is a morphism of LNL adjunctions, verified
here through the equalizer comparison (x~ (x) x) delta_X, preservation of
terminal objects and binary products on the instance, and strong symmetric
monoidal closure of K_f.

The hyperdoctrine itself lives over the cartesian base of powers C^(x)n
(the 0-th power is the trivial coalgebra): reindexing along the canonical
projections has left and right adjoints (exists and forall) whose triangle
identities, commuting squares for base morphisms, and symmetric variants
are verified on seeded instance corpora in exact arithmetic.
"""

from __future__ import annotations

from .coalg import (Coalgebra, CoalgebraMorphism, counit_morphism,
                    is_cosemisimple, pairing, product as coalg_product,
                    pullback as coalg_pullback, pullback_mediate,
                    trivial_coalgebra)
from .comod import Comodule, ComoduleMorphism, cotensor, regular_comodule
from .errors import (AxiomError, BaseMismatchError, UnsupportedBaseError)
from .exactlin import ShapeError, _difference, _kron_cols, _swapped
from .indexed import (PullbackSquare, beck_chevalley_check,
                      beck_for_forall_check, coaction_comodule,
                      pullback_functor, sigma, ssmc_check)
from .report import CheckReport, failure

__all__ = [
    "CoalgCObject", "U_C", "coalgC_product", "strong_monoidality_check",
    "L_f", "L_f_map", "lnl_morphism_check", "BasePower", "base_powers",
    "base_power", "power_morphism",
    "hyperdoctrine_condition2_check", "condition3_symmetry_check",
]


class CoalgCObject:
    """An object of the slice over C: a coalgebra morphism phi: D -> C."""

    __slots__ = ("phi",)

    def __init__(self, phi: CoalgebraMorphism):
        self.phi = phi

    @property
    def domain(self) -> Coalgebra:
        return self.phi.source

    @property
    def base(self) -> Coalgebra:
        return self.phi.target

    def __eq__(self, other):
        return isinstance(other, CoalgCObject) and other.phi == self.phi

    def __repr__(self):
        return f"CoalgCObject({self.domain.dim} -> {self.base.dim})"


def U_C(obj: CoalgCObject) -> Comodule:
    """The comparison functor: (phi) -> (D, (id (x) phi) delta_D)."""
    return coaction_comodule(obj.phi)


def coalgC_product(o1: CoalgCObject, o2: CoalgCObject):
    """Binary product in the slice, computed as the pullback of the cospan.

    Returns (object, pi1, pi2) with the projections as slice morphisms
    (coalgebra morphisms commuting with the structure maps).
    """
    if o1.base != o2.base:
        raise BaseMismatchError("objects live over different bases")
    apex, u, v = coalg_pullback(o1.phi, o2.phi)
    structure = o1.phi @ u
    return CoalgCObject(structure), u, v


def strong_monoidality_check(o1: CoalgCObject,
                             o2: CoalgCObject) -> CheckReport:
    """U_C(product) = U_C(o1) (x)_C U_C(o2) via (u (x) v) delta.

    Verifies that the pairing maps the apex isomorphically onto the
    cotensor equalizer, that it intertwines the coactions, and that the
    unit is preserved on the nose.
    """
    obj, u, v = coalgC_product(o1, o2)
    d = obj.domain
    left = U_C(obj)
    k_mod, k_sub = cotensor(U_C(o1), U_C(o2))
    dims = {"product_side": left.dim, "cotensor_side": k_mod.dim}
    coords = k_sub.coords(_kron_cols(u.columns, v.columns, v.target.dim,
                                     d._delta_cols))
    if coords is None:
        return failure("strong-monoidality",
                       "(u x v) delta misses the cotensor equalizer",
                       dims=dims)
    try:
        comparison = ComoduleMorphism(left, k_mod, coords)
    except AxiomError as exc:
        return failure("strong-monoidality", str(exc), dims=dims)
    if not comparison.is_isomorphism():
        return failure("strong-monoidality",
                       "comparison is not an isomorphism", dims=dims)
    base = o1.base
    unit_ok = U_C(CoalgCObject(base.identity_morphism())) \
        == regular_comodule(base)
    if not unit_ok:
        return failure("strong-monoidality", "unit is not preserved",
                       dims=dims)
    return CheckReport("strong-monoidality", dims=dims,
                       details=["binary-products", "unit",
                                "monoidal-adjunction-by-strength"])


# -- base change --------------------------------------------------------------

def L_f(f: CoalgebraMorphism, obj: CoalgCObject):
    """Base change on the slice: pullback of the structure map along f.

    Returns (object over source(f), x~: X -> D) where X is the apex.
    """
    if obj.base != f.target:
        raise BaseMismatchError("object does not live over the target of f")
    apex, to_d, to_cprime = coalg_pullback(obj.phi, f)
    return CoalgCObject(to_cprime), to_d


def L_f_map(src_obj: CoalgCObject, tgt_obj: CoalgCObject,
            g: CoalgebraMorphism, l_src, l_tgt):
    """L_f on a slice morphism g: (src) -> (tgt), via pullback universality
    into the legs of l_tgt; l_src, l_tgt are the ``L_f`` results of src, tgt.
    """
    if tgt_obj.phi @ g != src_obj.phi:
        raise BaseMismatchError("g is not a morphism of slice objects")
    ls, ls_tilde = l_src
    lt, lt_tilde = l_tgt
    return pullback_mediate(lt_tilde, lt.phi, g @ ls_tilde, ls.phi)


def lnl_morphism_check(f: CoalgebraMorphism,
                       obj: CoalgCObject) -> CheckReport:
    """(L_f, K_f) is a morphism of LNL adjunctions, on one instance.

    Checks: K_f U = U' L_f through the equalizer comparison
    (x~ (x) x) delta_X; L_f preserves the terminal object and the binary
    product (obj x obj: the images of its projections form a
    ``PullbackSquare`` over L_f obj); K_f is strong symmetric monoidal
    closed; the unit condition holds trivially because the units are
    identities.
    """
    if not is_cosemisimple(f.source) or not is_cosemisimple(f.target):
        raise UnsupportedBaseError("lnl check needs cosemisimple bases")
    if obj.base != f.target:
        raise BaseMismatchError("object does not live over the target of f")
    field = f.source.field
    details = []
    # square K_f U = U' L_f
    k_mod, k_sub = pullback_functor(f, U_C(obj))
    lf_obj, x_tilde = L_f(f, obj)
    x = lf_obj.phi
    u_prime = coaction_comodule(x)
    dims = {"pull_of_image": k_mod.dim, "image_of_pull": u_prime.dim}
    compare = k_sub.coords(_kron_cols(x_tilde.columns, x.columns,
                                      x.target.dim, x.source._delta_cols))
    if compare is None:
        return failure("lnl", "(x~ x x) delta misses the equalizer",
                       dims=dims)
    try:
        square = ComoduleMorphism(u_prime, k_mod, compare)
    except AxiomError as exc:
        return failure("lnl", str(exc), dims=dims)
    if not square.is_isomorphism():
        return failure("lnl", "square comparison is not an isomorphism",
                       dims=dims)
    details.append("KU=U'L")
    # terminal preservation: pullback of id_C along f is (id_C')
    lt_obj, _ = L_f(f, CoalgCObject(f.target.identity_morphism()))
    if not lt_obj.phi.is_isomorphism():
        return failure("lnl", "L_f does not preserve the terminal object",
                       dims=dims)
    details.append("terminal")
    # binary product preservation on (obj, obj)
    prod_c, pi1, pi2 = coalgC_product(obj, obj)
    l_prod = L_f(f, prod_c)
    lp1 = L_f_map(prod_c, obj, pi1, l_prod, (lf_obj, x_tilde))
    lp2 = L_f_map(prod_c, obj, pi2, l_prod, (lf_obj, x_tilde))
    try:
        PullbackSquare(lp1, lp2, x, x)
    except AxiomError:
        return failure("lnl", "L_f does not preserve binary products",
                       dims=dims)
    details.append("binary-products")
    # K_f strong symmetric monoidal closed on the instance
    ss = ssmc_check(f, U_C(obj), U_C(obj))
    if not ss.passed:
        return failure("lnl", "K_f fails strong monoidal closure",
                       dims=dims)
    details.append("K-ssmc")
    details.append("unit-condition-identities")
    details.append("LR=R'K-by-adjointness")
    return CheckReport("lnl", dims=dims, details=details)


# -- the base of tensor powers -------------------------------------------------

class BasePower:
    """C^(x)n realized by iterated binary products, with projections.

    ``step`` is I (x) C with its projections (p_I, p_C), where I is this
    power: the base of the comodules the quantifiers along p_I act on, and
    the next power of the tower.  ``swapped`` is C (x) I with (q_C, q_I),
    the base of condition (3).  Every check reads these shared objects, so
    the coflatness of U(p_I) is decided once per power.
    """

    __slots__ = ("base", "exponent", "coalgebra", "projections", "chain",
                 "step", "swapped")

    def __init__(self, base, exponent, coalgebra, projections, chain):
        self.base = base
        self.exponent = exponent
        self.coalgebra = coalgebra
        self.projections = projections
        self.chain = chain
        self.step = coalg_product(coalgebra, base)
        self.swapped = coalg_product(base, coalgebra)

    def __repr__(self):
        return f"BasePower({self.base.dim}^({self.exponent}))"


def base_powers(c: Coalgebra, n: int) -> list[BasePower]:
    """The tower C^(x)0, ..., C^(x)n, with all factor projections.

    Power 0 is the trivial coalgebra; power k+1 is the step
    product(power k, C) of power k, so the tower builds each product once.
    """
    if n < 0:
        raise ShapeError("exponent must be nonnegative")
    if not is_cosemisimple(c):
        raise UnsupportedBaseError("base powers need a cosemisimple base")
    power = BasePower(c, 0, trivial_coalgebra(c.field), [], [])
    tower = [power]
    for k in range(n):
        prod, p_i, p_c = power.step
        projections = [q @ p_i for q in power.projections] + [p_c]
        power = BasePower(c, k + 1, prod, projections,
                          power.chain + [power.step])
        tower.append(power)
    return tower


def base_power(c: Coalgebra, n: int) -> BasePower:
    """The n-fold product of C, the top of ``base_powers(c, n)``."""
    return base_powers(c, n)[-1]


def power_morphism(src: BasePower, tgt: BasePower,
                   assignment) -> CoalgebraMorphism:
    """The base morphism C^(x)m -> C^(x)n selecting source coordinates.

    ``assignment`` lists, for each target coordinate, the source coordinate
    it copies: projections, diagonals and symmetries are all of this form,
    and any such morphism is the iterated pairing of projections.
    """
    assignment = tuple(assignment)
    if len(assignment) != tgt.exponent:
        raise ShapeError("one source coordinate per target coordinate")
    if any(a < 0 or a >= src.exponent for a in assignment):
        raise ShapeError("assignment out of range")
    current = counit_morphism(src.coalgebra)
    for k, a in enumerate(assignment):
        leg = src.projections[a]
        if k == 0:
            current = leg
        else:
            prod = tgt.chain[k][0]
            current = pairing(current, leg, prod=prod)
    if current.target != tgt.coalgebra:
        raise AxiomError("power-morphism", "assembled morphism has the "
                                           "wrong target")
    return current


def hyperdoctrine_condition2_check(f: CoalgebraMorphism, src: BasePower,
                                   tgt: BasePower,
                                   v: Comodule) -> CheckReport:
    """Condition (2): reindexing commutes with forall along projections.

    f: J -> I a base morphism (src = J, tgt = I), v a comodule over I x C;
    the square J x C -> I x C over J -> I is a pullback, and the check
    verifies f^* forall_I ~ forall_J (f x id)^* by inverting the canonical
    Beck-Chevalley mate, with the companion exists-square instance.
    Both squares share the pullback of V along f x id.

    f x id = f (x) id_C: J x C -> I x C is built by
    ``CoalgebraMorphism._implied``: its laws are implied by f's, as the
    steps are the products J x C and I x C (``BasePower``):
    delta (f (x) id) = (id (x) tau (x) id)((f (x) f) delta_J (x) delta_C) =
    (f (x) id (x) f (x) id) delta_{J x C}, and (eps_I (x) eps_C)(f (x) id)
    = eps_J (x) eps_C.
    """
    prod_i, pi_i, _ = tgt.step
    prod_j, pi_j, _ = src.step
    if f.source != src.coalgebra or f.target != tgt.coalgebra:
        raise BaseMismatchError("f is not a morphism src -> tgt")
    if v.base != prod_i:
        raise BaseMismatchError("comodule is not based on I x C")
    n = tgt.base.dim
    f_times_id = CoalgebraMorphism._implied(prod_j, prod_i, _kron_cols(
        f.columns, n, n, [{t: 1} for t in range(f.source.dim * n)]))
    square = PullbackSquare(delta=f_times_id, gamma=pi_j, beta=pi_i,
                            alpha=f)
    pv = pullback_functor(f_times_id, v)
    rep = beck_for_forall_check(square, v, pv)
    if not rep.passed:
        return CheckReport("hyperdoctrine-2", verdict="fail",
                           dims=rep.dims, witness=rep.witness)
    companion = beck_chevalley_check(square, sigma(pi_j, pv[0]))
    if not companion.passed:
        return CheckReport("hyperdoctrine-2", verdict="fail",
                           dims=companion.dims, witness=companion.witness)
    dims = dict(rep.dims)
    dims.update({"exists_" + k: d for k, d in companion.dims.items()})
    return CheckReport("hyperdoctrine-2", dims=dims,
                       details=["forall-square", "exists-square"])


def condition3_symmetry_check(i: BasePower, v: Comodule) -> CheckReport:
    """Condition (3): the swapped projection C x I -> I behaves like
    I x C -> I through the transposition isomorphism."""
    prod_ic, p_i, _ = i.step
    prod_ci, q_c, q_i = i.swapped
    swap = _swapped([{t: 1} for t in range(prod_ci.dim)], 1, i.base.dim,
                    i.coalgebra.dim, 1)
    try:
        swap_mor = CoalgebraMorphism(prod_ci, prod_ic, swap)
    except AxiomError as exc:
        return failure("hyperdoctrine-3", f"transposition: {exc}")
    if not swap_mor.is_isomorphism():
        return failure("hyperdoctrine-3", "transposition not invertible")
    if _difference(_kron_cols(p_i.columns, 1, 1, swap_mor.columns),
                   q_i.columns, prod_ci.field.char) is not None:
        return failure("hyperdoctrine-3",
                       "projections do not match through the swap")
    if v.base != prod_ci:
        raise BaseMismatchError("comodule is not based on C x I")
    transported = sigma(swap_mor, v)
    lhs = sigma(q_i, v)
    rhs = sigma(p_i, transported)
    if lhs != rhs:
        return failure("hyperdoctrine-3",
                       "exists along the swapped projection differs")
    return CheckReport("hyperdoctrine-3",
                       dims={"comodule": v.dim},
                       details=["swap-iso", "projection-transport",
                                "exists-transport"])
