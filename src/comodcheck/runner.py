"""Check dispatch: executes the directives of a parsed document.

Each directive produces exactly one CheckReport, in document order.
Boolean decisions (cosemisimple, injective) report their value under a
"pass" verdict; law checks fail only on an actual violation.  Checks whose
comodule arguments are omitted generate seeded instances, so a fixed
``--seed`` reproduces identical reports.

The registry at the bottom records which spec-level operations each check
kind reaches; an internal test asserts the union covers the whole
operation inventory.
"""

from __future__ import annotations

import json
import time

from . import coalg, comod, gen, hyperdoctrine as hd, indexed, oracle
from .dsl import Document, ParseError
from .errors import (AxiomError, BaseMismatchError,
                     HypothesisViolatedError, UnsupportedBaseError)
from .exactlin import ShapeError
from .report import CheckReport, failure

__all__ = ["run", "reports_to_json", "CHECK_OPERATIONS",
           "OPERATION_INVENTORY"]


class _Ctx:
    def __init__(self, doc: Document, seed: int, max_dim: int):
        self.doc = doc
        self.seed = seed
        self.max_dim = max_dim


def run(doc: Document, seed: int = 0, max_dim: int = 4) -> list[CheckReport]:
    """Execute every check directive; one report each, in order.

    A ``ParseError``, ``BaseMismatchError`` or ``ShapeError`` raised by a
    check is the document's fault and is re-raised as a ``ParseError`` at
    the check's line.  Any other exception is an internal fault and
    propagates unchanged.
    """
    ctx = _Ctx(doc, seed, max_dim)
    reports = []
    for index, (kind, args, line) in enumerate(doc.checks):
        executor = _EXECUTORS[kind]
        start = time.perf_counter()
        try:
            report = executor(ctx, index, *args)
        except (UnsupportedBaseError, HypothesisViolatedError) as exc:
            report = CheckReport(kind, verdict="unsupported",
                                 details=[str(exc)])
        except AxiomError as exc:
            report = failure(kind, str(exc))
        except (ParseError, BaseMismatchError, ShapeError) as exc:
            raise ParseError(f"check {kind!r}: {exc}", line) from exc
        report.refs = list(args)
        report.millis = round((time.perf_counter() - start) * 1000.0, 3)
        reports.append(report)
    return reports


def reports_to_json(reports) -> str:
    return json.dumps([r.as_dict() for r in reports], indent=2,
                      sort_keys=True) + "\n"


def _coalg_arg(ctx, name) -> coalg.Coalgebra:
    return ctx.doc.coalgebras[name]


def _comod_arg(ctx, name) -> comod.Comodule:
    return ctx.doc.comodules[name]


def _morph_arg(ctx, name) -> coalg.CoalgebraMorphism:
    return ctx.doc.morphisms[name]


def _comod_or_gen(ctx, index, name, base, tag):
    """The named comodule, or a seeded instance over ``base`` when the
    argument is omitted."""
    if name:
        return _comod_arg(ctx, name)
    rng = gen.rng_for(ctx.seed, "comod", index, tag)
    return gen.random_comodule(rng, base, max_dim=ctx.max_dim)


# -- executors ----------------------------------------------------------------

def _check_axioms(ctx, index, name):
    """The verdict rests on the parse: each object of a document is built
    by a constructor that checks its axioms exactly, and ``dsl._at_line``
    turns a failed axiom into a parse error."""
    obj = ctx.doc.lookup(name)
    if isinstance(obj, coalg.Coalgebra):
        return CheckReport("axioms", dims={"dim": obj.dim},
                           details=["coassociativity", "counit",
                                    "cocommutativity"])
    if isinstance(obj, comod.Comodule):
        return CheckReport("axioms", dims={"dim": obj.dim,
                                           "base": obj.base.dim},
                           details=["comodule-counit",
                                    "comodule-coassociativity"])
    return CheckReport("axioms",
                       dims={"source": obj.source.dim,
                             "target": obj.target.dim},
                       details=["comultiplication-preservation",
                                "counit-preservation"])


def _check_cosemisimple(ctx, index, name):
    c = _coalg_arg(ctx, name)
    value = coalg.is_cosemisimple(c)
    return CheckReport("cosemisimple", value=value, dims={"dim": c.dim})


def _check_injective(ctx, index, name):
    v = _comod_arg(ctx, name)
    value = comod.is_injective(v)
    return CheckReport("injective", value=value,
                       dims={"dim": v.dim, "cofree": v.dim * v.base.dim})


def _check_cotensor(ctx, index, vname, wname):
    v = _comod_arg(ctx, vname)
    w = _comod_arg(ctx, wname)
    isos, failing = comod.coherence(v, w, w, v)
    t = isos["braiding"].source
    dims = {"left": v.dim, "right": w.dim, "cotensor": t.dim}
    if failing is not None:
        return failure("cotensor", f"{failing} coherence fails", dims=dims)
    details = sorted(isos)
    if coalg.grouplike_labels(v.base) is not None:
        expected = oracle.graded_cotensor(oracle.to_graded(v),
                                          oracle.to_graded(w))
        if oracle.to_graded(t) != expected:
            return failure("cotensor", "oracle grading disagrees",
                           dims=dims)
        details.append("oracle-agreement")
    return CheckReport("cotensor", dims=dims, details=details)


def _check_hom(ctx, index, vname, wname):
    v = _comod_arg(ctx, vname)
    w = _comod_arg(ctx, wname)
    hom = comod.hom_space(v, w)
    dims = {"hom": hom.dim, "left": v.dim, "right": w.dim}
    details = []
    if coalg.grouplike_labels(v.base) is not None:
        want = oracle.graded_hom_dim(oracle.to_graded(v),
                                     oracle.to_graded(w))
        if hom.dim != want:
            return failure("hom", "oracle hom dimension disagrees",
                           dims=dims)
        details.append("oracle-agreement")
    return CheckReport("hom", dims=dims, details=details)


def _check_adjunction(ctx, index, phi_name, vname=None, wname=None):
    phi = _morph_arg(ctx, phi_name)
    v = _comod_or_gen(ctx, index, vname, phi.source, "V")
    w = _comod_or_gen(ctx, index, wname, phi.target, "W")
    cert = indexed.adjunction_certificate(phi, v, w)
    dims = {"hom_sigma_side": cert.dim_sigma_side,
            "hom_pullback_side": cert.dim_pullback_side}
    details = []
    if not cert.ok:
        return failure("adjunction", "transpose round trips fail",
                       dims=dims)
    if coalg.grouplike_labels(phi.source) is not None \
            and coalg.grouplike_labels(phi.target) is not None:
        smap = oracle.setmap_of_morphism(phi)
        gv = oracle.to_graded(v)
        gw = oracle.to_graded(w)
        want = oracle.graded_hom_dim(oracle.graded_sigma(smap, gv), gw)
        if cert.dim_sigma_side != want:
            return failure("adjunction", "oracle hom dimension disagrees",
                           dims=dims)
        details.append("oracle-agreement")
    return CheckReport("adjunction", dims=dims, details=details)


def _check_beck(ctx, index, beta_name, alpha_name, vname=None):
    beta = _morph_arg(ctx, beta_name)
    alpha = _morph_arg(ctx, alpha_name)
    square = indexed.PullbackSquare.from_cospan(beta, alpha)
    v = _comod_or_gen(ctx, index, vname, alpha.source, "V")
    report = indexed.beck_chevalley_check(square, v)
    if report.passed and coalg.grouplike_labels(beta.source) is not None \
            and coalg.grouplike_labels(alpha.source) is not None \
            and coalg.grouplike_labels(beta.target) is not None:
        sb = oracle.setmap_of_morphism(beta)
        sa = oracle.setmap_of_morphism(alpha)
        _, p1, p2 = oracle.set_fiber_product(sb, sa)
        gv = oracle.to_graded(v)
        lhs = oracle.graded_pullback(sb, oracle.graded_sigma(sa, gv))
        rhs = oracle.graded_sigma(p1, oracle.graded_pullback(p2, gv))
        if lhs.dims != rhs.dims \
                or sum(lhs.dims) != report.dims["push_then_pull"]:
            return failure("beck", "oracle dimension disagrees",
                           dims=report.dims)
        report.details.append("oracle-agreement")
    return report


def _check_forall_beck(ctx, index, beta_name, alpha_name, vname=None):
    beta = _morph_arg(ctx, beta_name)
    alpha = _morph_arg(ctx, alpha_name)
    square = indexed.PullbackSquare.from_cospan(beta, alpha)
    v = _comod_or_gen(ctx, index, vname, beta.source, "V")
    report = indexed.beck_for_forall_check(square, v)
    if report.passed:
        sb = oracle.setmap_of_morphism(beta)
        sa = oracle.setmap_of_morphism(alpha)
        _, p1, p2 = oracle.set_fiber_product(sb, sa)
        gv = oracle.to_graded(v)
        lhs = oracle.graded_pullback(sa, oracle.graded_forall(sb, gv))
        rhs = oracle.graded_forall(p2, oracle.graded_pullback(p1, gv))
        if lhs.dims != rhs.dims:
            return failure("forall-beck", "oracle dimension disagrees",
                           dims=report.dims)
        report.details.append("oracle-agreement")
    return report


def _check_frobenius(ctx, index, phi_name, vname=None, wname=None):
    phi = _morph_arg(ctx, phi_name)
    v = _comod_or_gen(ctx, index, vname, phi.source, "V")
    w = _comod_or_gen(ctx, index, wname, phi.target, "W")
    return indexed.frobenius_check(phi, v, w)


def _check_ssmc(ctx, index, phi_name, vname=None, wname=None):
    phi = _morph_arg(ctx, phi_name)
    v = _comod_or_gen(ctx, index, vname, phi.target, "V")
    w = _comod_or_gen(ctx, index, wname, phi.target, "W")
    return indexed.ssmc_check(phi, v, w)


def _check_lnl(ctx, index, f_name, obj_name):
    f = _morph_arg(ctx, f_name)
    obj = hd.CoalgCObject(_morph_arg(ctx, obj_name))
    report = hd.lnl_morphism_check(f, obj)
    if report.passed:
        strong = hd.strong_monoidality_check(obj, obj)
        if not strong.passed:
            return strong
        report.details.append("strong-monoidality")
        report.dims.update({"product_side": strong.dims["product_side"]})
    return report


def _check_hyperdoctrine(ctx, index, cname, n):
    c = _coalg_arg(ctx, cname)
    n = int(n)
    rng = gen.rng_for(ctx.seed, "hyperdoctrine", index)
    details = []
    dims = {}
    powers = hd.base_powers(c, n)
    for k, bp in enumerate(powers):
        prod_ic, p_i, _ = bp.step
        v = gen.random_comodule(rng, prod_ic, max_dim=ctx.max_dim,
                                max_total=8)
        w = gen.random_comodule(rng, bp.coalgebra, max_dim=ctx.max_dim,
                                max_total=6)
        failed = indexed.adjoint_triple_identities(p_i, v, w)
        if failed is not None:
            return failure("hyperdoctrine",
                           f"{failed} adjunction fails at power {k}")
        # Sigma_p keeps the underlying space, and forall passed its gates
        # above, so forall_p V = Sigma_p V
        dims[f"power_{k}"] = {"comodule": v.dim, "exists": v.dim,
                              "forall": v.dim}
        details.append(f"adjoint-triple-power-{k}")
        v3 = gen.random_comodule(rng, bp.swapped[0], max_dim=ctx.max_dim,
                                 max_total=8)
        rep3 = hd.condition3_symmetry_check(bp, v3)
        if not rep3.passed:
            return rep3
        details.append(f"condition3-power-{k}")
    # condition (2) for a sample of base morphisms between powers
    count = 0
    for m in range(n + 1):
        for nn in range(n + 1):
            if count >= 10:
                break
            for assignment in _assignments(m, nn):
                if count >= 10:
                    break
                f = hd.power_morphism(powers[m], powers[nn], assignment)
                v = gen.random_comodule(rng, powers[nn].step[0], max_dim=2,
                                        max_total=6)
                rep = hd.hyperdoctrine_condition2_check(
                    f, powers[m], powers[nn], v)
                if not rep.passed:
                    return rep
                count += 1
    details.append(f"condition2-squares-{count}")
    dims["condition2_squares"] = count
    return CheckReport("hyperdoctrine", dims=dims, details=details)


def _assignments(m, n):
    """Coordinate assignments defining base morphisms C^m -> C^n."""
    if n == 0:
        yield ()
        return
    if m == 0:
        return
    import itertools
    yield from itertools.product(range(m), repeat=n)


_EXECUTORS = {
    "axioms": _check_axioms,
    "cosemisimple": _check_cosemisimple,
    "injective": _check_injective,
    "cotensor": _check_cotensor,
    "hom": _check_hom,
    "adjunction": _check_adjunction,
    "beck": _check_beck,
    "forall-beck": _check_forall_beck,
    "frobenius": _check_frobenius,
    "ssmc": _check_ssmc,
    "lnl": _check_lnl,
    "hyperdoctrine": _check_hyperdoctrine,
}


# -- operation coverage registry ------------------------------------------------

OPERATION_INVENTORY = (
    "exactlin._null_space", "exactlin._kron_cols",
    "coalg.trivial_coalgebra", "coalg.grouplike_coalgebra",
    "coalg.direct_sum", "coalg.product", "coalg.pairing", "coalg.pullback",
    "coalg.coseparability_form", "coalg.is_cosemisimple",
    "comod.regular_comodule", "comod.cofree_comodule", "comod.hom_space",
    "comod.cotensor", "comod.coherence", "comod.internal_hom",
    "comod.is_injective", "comod.is_coflat",
    "indexed.sigma", "indexed.pullback_functor", "indexed.transpose_hat",
    "indexed.transpose_tilde", "indexed.forall",
    "indexed.beck_chevalley_check", "indexed.beck_for_forall_check",
    "indexed.frobenius_check", "indexed.ssmc_check",
    "hyperdoctrine.U_C", "hyperdoctrine.coalgC_product",
    "hyperdoctrine.strong_monoidality_check", "hyperdoctrine.L_f",
    "hyperdoctrine.lnl_morphism_check", "hyperdoctrine.base_powers",
    "hyperdoctrine.hyperdoctrine_condition2_check",
    "oracle.to_graded", "oracle.graded_cotensor", "oracle.graded_pullback",
    "oracle.graded_sigma", "oracle.graded_forall",
    "oracle.set_fiber_product",
    "dsl.parse", "runner.run",
)

CHECK_OPERATIONS = {
    "axioms": {"exactlin._kron_cols", "coalg.grouplike_coalgebra",
               "coalg.direct_sum", "coalg.product", "dsl.parse",
               "runner.run"},
    "cosemisimple": {"coalg.is_cosemisimple", "coalg.coseparability_form",
                     "dsl.parse", "runner.run"},
    "injective": {"comod.is_injective", "comod.cofree_comodule",
                  "coalg.coseparability_form", "dsl.parse", "runner.run"},
    "cotensor": {"comod.cotensor", "comod.coherence",
                 "comod.regular_comodule", "exactlin._null_space",
                 "exactlin._kron_cols", "oracle.to_graded",
                 "oracle.graded_cotensor", "dsl.parse", "runner.run"},
    "hom": {"comod.hom_space", "exactlin._null_space", "oracle.to_graded",
            "dsl.parse", "runner.run"},
    "adjunction": {"indexed.sigma", "indexed.pullback_functor",
                   "indexed.transpose_hat", "indexed.transpose_tilde",
                   "comod.hom_space", "oracle.graded_sigma",
                   "dsl.parse", "runner.run"},
    "beck": {"coalg.pullback", "coalg.product",
             "indexed.beck_chevalley_check",
             "oracle.set_fiber_product", "oracle.graded_sigma",
             "oracle.graded_pullback", "dsl.parse", "runner.run"},
    "forall-beck": {"indexed.forall", "indexed.beck_for_forall_check",
                    "comod.is_coflat", "coalg.coseparability_form",
                    "oracle.graded_forall",
                    "oracle.graded_pullback", "oracle.set_fiber_product",
                    "coalg.pullback", "dsl.parse", "runner.run"},
    "frobenius": {"indexed.frobenius_check", "indexed.sigma",
                  "indexed.pullback_functor", "comod.cotensor",
                  "dsl.parse", "runner.run"},
    "ssmc": {"indexed.ssmc_check", "comod.internal_hom",
             "indexed.pullback_functor", "comod.cotensor",
             "coalg.is_cosemisimple", "coalg.coseparability_form",
             "dsl.parse", "runner.run"},
    "lnl": {"hyperdoctrine.U_C", "hyperdoctrine.L_f",
            "hyperdoctrine.lnl_morphism_check",
            "hyperdoctrine.coalgC_product",
            "hyperdoctrine.strong_monoidality_check", "coalg.pullback",
            "coalg.pairing", "indexed.ssmc_check", "dsl.parse",
            "runner.run"},
    "hyperdoctrine": {"hyperdoctrine.base_powers",
                      "hyperdoctrine.hyperdoctrine_condition2_check",
                      "indexed.beck_chevalley_check",
                      "indexed.beck_for_forall_check", "indexed.forall",
                      "indexed.sigma", "comod.is_coflat",
                      "coalg.coseparability_form", "coalg.trivial_coalgebra",
                      "coalg.product", "coalg.pairing",
                      "coalg.is_cosemisimple", "dsl.parse",
                      "runner.run"},
}
