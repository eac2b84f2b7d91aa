"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every criterion prints a single PASS/FAIL line (visible with ``pytest -s``
or in captured output); tolerances are exact equality, dimensions stay at
desk scale (components <= 4, label sets <= 5, composites <= 64).
"""

import json
import subprocess
import sys
import time
from importlib import resources

import pytest

from comodcheck import coalg as ca
from comodcheck import comod as cm
from comodcheck import dsl, runner
from comodcheck import indexed as ix
from comodcheck import oracle as orc
from comodcheck.errors import AxiomError
from comodcheck.exactlin import Matrix
from comodcheck.fields import QQ
from comodcheck.gen import (corrupt_coalgebra, random_coalgebra,
                            random_comodule, random_grouplike,
                            random_setmap_morphism, rng_for)

from conftest import column_dicts, columns, find_isomorphism

F = QQ

GX_DELTA = [[1, 0], [0, 1], [0, 1], [0, 0]]
SQRT2_DELTA = [[1, 0], [0, 1], [0, 1], [2, 0]]


def _report(num: int, name: str, ok: bool):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}",
          flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_axiom_suite():
    start = time.perf_counter()
    rng = rng_for(101, "axioms")
    for _ in range(100):
        c = random_coalgebra(rng, F, max_labels=5)
        # re-validated from the dense views
        ca.Coalgebra(F, c.dim, column_dicts(c.delta),
                     column_dicts(c.epsilon))
    named = set()
    for _ in range(10):
        c = random_coalgebra(rng, F, max_labels=4)
        delta, eps = corrupt_coalgebra(rng, c)
        with pytest.raises(AxiomError) as err:
            ca.Coalgebra(F, c.dim, delta, eps)
        assert err.value.axiom in ("coassociativity", "counit",
                                   "cocommutativity")
        named.add(err.value.axiom)
    elapsed = time.perf_counter() - start
    _report(1, "axiom suite", elapsed < 5.0 and len(named) >= 1)


def test_criterion_02_monoidal_coherence():
    start = time.perf_counter()
    rng = rng_for(102, "coherence")
    for _ in range(50):
        base = random_grouplike(rng, F, max_labels=3)
        u = random_comodule(rng, base, max_dim=2, max_total=4)
        v = random_comodule(rng, base, max_dim=2, max_total=4)
        w = random_comodule(rng, base, max_dim=2, max_total=4)
        assert cm.coherence(u, v, w, u)[1] is None
        fwd, back = cm.right_unitor(u)
        assert (fwd @ back).matrix == Matrix.identity(F, u.dim)
        lf, lb = cm.left_unitor(u)
        assert (lf @ lb).matrix == Matrix.identity(F, u.dim)
    elapsed = time.perf_counter() - start
    _report(2, "monoidal coherence", elapsed < 30.0)


def test_criterion_03_unit_isomorphism():
    rng = rng_for(103, "unit")
    for _ in range(25):
        base = random_grouplike(rng, F, max_labels=4)
        x = random_comodule(rng, base, max_dim=3, max_total=6,
                            conjugated=True)
        fwd, back = cm.right_unitor(x)
        assert (fwd @ back).matrix == Matrix.identity(F, x.dim)
        assert (back @ fwd).matrix == Matrix.identity(F, fwd.source.dim)
    _report(3, "cotensor unit isomorphism", True)


def test_criterion_04_sigma_pullback_adjunction():
    rng = rng_for(104, "adjunction")
    for _ in range(50):
        src = random_grouplike(rng, F, max_labels=3)
        tgt = random_grouplike(rng, F, max_labels=3)
        phi = random_setmap_morphism(rng, src, tgt)
        v = random_comodule(rng, src, max_dim=2, max_total=5)
        w = random_comodule(rng, tgt, max_dim=2, max_total=5)
        cert = ix.adjunction_certificate(phi, v, w)
        assert cert.ok
    # non-group-like cosemisimple bases built from sums
    k2 = ca.Coalgebra(F, 2, columns(F, SQRT2_DELTA), columns(F, [[1, 0]]))
    gu = ca.grouplike_coalgebra(F, ["u"])
    ks = ca.direct_sum(k2, gu)
    assert ca.is_cosemisimple(ks) and not ks.is_grouplike()
    inc = ca.CoalgebraMorphism(k2, ks,
                               columns(F, [[1, 0], [0, 1], [0, 0]]))
    eps = ca.counit_morphism(ks)
    regs = cm.regular_comodule(ks)
    cases = [
        (inc, cm.regular_comodule(k2), regs),
        (inc, cm.direct_sum(cm.regular_comodule(k2),
                            cm.regular_comodule(k2)), regs),
        (eps, regs, cm.graded_comodule(eps.target, [2])),
        (ks.identity_morphism(), regs, cm.direct_sum(regs, regs)),
        (k2.identity_morphism(), cm.regular_comodule(k2),
         cm.direct_sum(cm.regular_comodule(k2), cm.regular_comodule(k2))),
    ]
    for phi, v, w in cases:
        cert = ix.adjunction_certificate(phi, v, w)
        assert cert.ok
    _report(4, "Sigma -| pullback adjunction", True)


def test_criterion_05_beck_chevalley():
    rng = rng_for(105, "beck")
    agreements = 0
    for _ in range(25):
        base = random_grouplike(rng, F, max_labels=3)
        d1 = random_grouplike(rng, F, max_labels=3)
        d2 = random_grouplike(rng, F, max_labels=3)
        beta = random_setmap_morphism(rng, d1, base)
        alpha = random_setmap_morphism(rng, d2, base)
        square = ix.PullbackSquare.from_cospan(beta, alpha)
        v = random_comodule(rng, d2, max_dim=2, max_total=5)
        rep = ix.beck_chevalley_check(square, v)
        assert rep.passed
        sb, sa = orc.setmap_of_morphism(beta), orc.setmap_of_morphism(alpha)
        pairs, p1, p2 = orc.set_fiber_product(sb, sa)
        gv = orc.to_graded(v)
        lhs = orc.graded_pullback(sb, orc.graded_sigma(sa, gv))
        rhs = orc.graded_sigma(p1, orc.graded_pullback(p2, gv))
        assert lhs.dims == rhs.dims
        assert sum(lhs.dims) == rep.dims["push_then_pull"]
        agreements += 1
    g2 = ca.grouplike_coalgebra(F, ["a", "b"])
    square = ix.PullbackSquare.from_cospan(g2.identity_morphism(),
                                           g2.identity_morphism())
    assert ix.beck_chevalley_check(square,
                                   cm.graded_comodule(g2, [1, 2])).passed
    _report(5, "Beck-Chevalley", agreements == 25)


def test_criterion_06_frobenius():
    rng = rng_for(106, "frobenius")
    for _ in range(25):
        src = random_grouplike(rng, F, max_labels=3)
        tgt = random_grouplike(rng, F, max_labels=3)
        phi = random_setmap_morphism(rng, src, tgt)
        v = random_comodule(rng, src, max_dim=2, max_total=5)
        w = random_comodule(rng, tgt, max_dim=2, max_total=5)
        assert ix.frobenius_check(phi, v, w).passed
    _report(6, "Frobenius reciprocity", True)


def test_criterion_07_ssmc():
    rng = rng_for(107, "ssmc")
    for _ in range(25):
        src = random_grouplike(rng, F, max_labels=3)
        tgt = random_grouplike(rng, F, max_labels=3)
        phi = random_setmap_morphism(rng, src, tgt)
        v = random_comodule(rng, tgt, max_dim=2, max_total=4)
        w = random_comodule(rng, tgt, max_dim=2, max_total=4)
        rep = ix.ssmc_check(phi, v, w)
        assert rep.passed
        assert "tensor-iso" in rep.details and "unit-iso" in rep.details
        assert "closedness-dims" in rep.details
    _report(7, "strong symmetric monoidal closure", True)


def test_criterion_08_injectivity():
    rng = rng_for(108, "injective")
    for _ in range(100):
        base = random_coalgebra(rng, F, max_labels=4)
        v = random_comodule(rng, base, max_dim=2, max_total=6,
                            conjugated=bool(rng.randrange(2)))
        assert cm.is_injective(v)
    gx = ca.Coalgebra(F, 2, columns(F, GX_DELTA), columns(F, [[1, 0]]))
    one = cm.Comodule(gx, 1, columns(F, [[1], [0]]))
    assert not cm.is_injective(one)
    assert cm.is_injective(cm.regular_comodule(gx))
    assert cm.is_coflat(cm.regular_comodule(gx)) \
        and not cm.is_coflat(one)
    _report(8, "injectivity and coflatness", True)


def test_criterion_09_hyperdoctrine():
    start = time.perf_counter()
    doc = dsl.parse("field Q\ncoalg C = grouplike {a, b}\n"
                    "check hyperdoctrine C 2\n")
    reports = runner.run(doc, seed=109, max_dim=4)
    rep = reports[0]
    assert rep.passed, rep.as_dict()
    assert rep.dims["condition2_squares"] >= 10
    assert any(d.startswith("adjoint-triple-power-2") for d in rep.details)
    assert any(d.startswith("condition3") for d in rep.details)
    elapsed = time.perf_counter() - start
    _report(9, "linear hyperdoctrine conditions", elapsed < 120.0)


def test_criterion_10_oracle_equivalence():
    rng = rng_for(110, "oracle")
    disagreements = 0
    # cotensor and hom: 20 + 20 instances
    for _ in range(20):
        base = random_grouplike(rng, F, max_labels=3)
        a = random_comodule(rng, base, max_dim=2, max_total=5)
        b = random_comodule(rng, base, max_dim=2, max_total=5)
        t, _ = cm.cotensor(a, b)
        want = orc.graded_cotensor(orc.to_graded(a), orc.to_graded(b))
        if orc.to_graded(t) != want or find_isomorphism(
                t, orc.from_graded(base, want), rng) is None:
            disagreements += 1
    for _ in range(20):
        base = random_grouplike(rng, F, max_labels=3)
        a = random_comodule(rng, base, max_dim=2, max_total=5)
        b = random_comodule(rng, base, max_dim=2, max_total=5)
        if cm.hom_space(a, b).dim != orc.graded_hom_dim(
                orc.to_graded(a), orc.to_graded(b)):
            disagreements += 1
        ih, _ = cm.internal_hom(a, b)
        want = orc.GradedVectorSpace(
            orc.to_graded(a).labels,
            [x * y for x, y in zip(orc.to_graded(a).dims,
                                   orc.to_graded(b).dims)])
        if orc.to_graded(ih) != want:
            disagreements += 1
    # Sigma, pullback, forall: 15 instances each
    for _ in range(15):
        src = random_grouplike(rng, F, max_labels=3)
        tgt = random_grouplike(rng, F, max_labels=3)
        phi = random_setmap_morphism(rng, src, tgt)
        smap = orc.setmap_of_morphism(phi)
        v = random_comodule(rng, src, max_dim=2, max_total=5)
        w = random_comodule(rng, tgt, max_dim=2, max_total=5)
        sv = ix.sigma(phi, v)
        want = orc.graded_sigma(smap, orc.to_graded(v))
        if orc.to_graded(sv) != want or find_isomorphism(
                sv, orc.from_graded(tgt, want), rng) is None:
            disagreements += 1
        pw, _ = ix.pullback_functor(phi, w)
        want = orc.graded_pullback(smap, orc.to_graded(w))
        if orc.to_graded(pw) != want or find_isomorphism(
                pw, orc.from_graded(src, want), rng) is None:
            disagreements += 1
        fv = ix.forall(phi, v)
        want = orc.graded_forall(smap, orc.to_graded(v))
        if orc.to_graded(fv) != want or find_isomorphism(
                fv, orc.from_graded(tgt, want), rng) is None:
            disagreements += 1
    # coalgebra pullbacks against set fiber products: 15 instances
    for _ in range(15):
        base = random_grouplike(rng, F, max_labels=3)
        d1 = random_grouplike(rng, F, max_labels=3)
        d2 = random_grouplike(rng, F, max_labels=3)
        f1 = random_setmap_morphism(rng, d1, base)
        f2 = random_setmap_morphism(rng, d2, base)
        pb, _, _ = ca.pullback(f1, f2)
        pairs, _, _ = orc.set_fiber_product(orc.setmap_of_morphism(f1),
                                            orc.setmap_of_morphism(f2))
        if set(pb.labels or ()) != set(pairs) or pb.dim != len(pairs):
            disagreements += 1
    _report(10, "oracle equivalence", disagreements == 0)


def test_criterion_11_cli_determinism():
    corpus = resources.files("comodcheck") / "corpus"
    names = sorted(p.name for p in corpus.iterdir()
                   if p.name.endswith(".cd"))
    assert len(names) >= 12
    kinds = set()
    for name in names:
        path = str(corpus / name)
        doc = dsl.parse((corpus / name).read_text())
        kinds |= {k for k, _, _ in doc.checks}
        outs = [subprocess.run([sys.executable, "-m", "comodcheck.cli",
                                "check", path, "--json", "--seed", "7"],
                               capture_output=True, text=True)
                for _ in range(2)]
        assert all(o.returncode == 0 for o in outs), \
            (name, outs[0].stdout, outs[0].stderr)
        payloads = [json.loads(o.stdout) for o in outs]
        for payload in payloads:
            for rec in payload:
                rec["millis"] = 0.0
        assert json.dumps(payloads[0], sort_keys=True) \
            == json.dumps(payloads[1], sort_keys=True), name
    assert kinds == set(dsl.CHECK_KINDS)
    _report(11, "CLI determinism on the corpus", True)
