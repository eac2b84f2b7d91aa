"""The constructors that skip implied equations, against those equations.

``Comodule._implied``, ``CoalgebraMorphism._implied`` and
``ComoduleMorphism._implied`` keep only the shape check: each call site's
docstring derives the equations they skip from certificates its inputs
already passed.  A differential test spies on the three over the corpus,
a hyperdoctrine document and the raw injectivity documents, and runs the
skipped equations on every object built, as dense references
(``conftest``).  A static guard asks that every function calling one of
them says why in its docstring, and that the oracle, the independent
reference, calls none.
"""

import ast
import random
import sys
from importlib import resources
from pathlib import Path

from comodcheck import (coalg as ca, comod as cm, dsl, gen, indexed as ix,
                        runner)
from comodcheck.fields import QQ
from conftest import (GX_DELTA, SQRT2_DELTA, coalgebra_morphism_laws_hold,
                      comodule_axioms_hold, intertwines)

ROOT = Path(__file__).resolve().parents[1]
CLASSES = {"Comodule": cm.Comodule,
           "CoalgebraMorphism": ca.CoalgebraMorphism,
           "ComoduleMorphism": cm.ComoduleMorphism}
RETIRED = {"Comodule": comodule_axioms_hold,
           "CoalgebraMorphism": coalgebra_morphism_laws_hold,
           "ComoduleMorphism": intertwines}
# every call site of each constructor, as module.function
SITES = {
    "Comodule": {
        "indexed.sigma", "indexed.coaction_comodule",
        "comod.regular_comodule", "comod.cofree_comodule",
        "comod.zero_comodule", "comod.direct_sum", "comod.conjugate",
        "comod.dual_comodule", "comod._restricted_coaction"},
    "CoalgebraMorphism": {
        "coalg.identity_morphism", "coalg.__matmul__",
        "coalg.counit_morphism", "coalg.product", "coalg.pairing",
        "coalg._subcoalgebra",
        "hyperdoctrine.hyperdoctrine_condition2_check"},
    "ComoduleMorphism": {
        "indexed.pullback_map", "indexed.sigma_map", "comod.__matmul__",
        "comod._structure_map", "comod._transposition",
        "comod.tensor_morphism", "comod._right_unitor",
        "comod._left_unitor", "comod.identity_morphism"},
}


def _flat(rows):
    return ", ".join(str(x) for row in rows for x in row)


def _doubled(rows, m, n):
    """The rows of rho_V (+) rho_V for the (m*n) x m rows of rho_V."""
    out = [[0] * (2 * m) for _ in range(2 * m * n)]
    for r, row in enumerate(rows):
        for j, x in enumerate(row):
            out[r][j] = out[m * n + r][m + j] = x
    return out


def raw_documents():
    """Injectivity over the non-group-like bases N and sum(K, N), over Q
    and F_7: the regular comodule R of the base, R (+) R over N, and the
    one-dimensional S over N, which is not injective."""
    docs = []
    for field in ("Q", "Fp 7"):
        head = (f"field {field}\n"
                f"coalg K = raw dim=2 delta=[{_flat(SQRT2_DELTA)}] "
                "eps=[1, 0]\n"
                f"coalg N = raw dim=2 delta=[{_flat(GX_DELTA)}] eps=[1, 0]\n"
                "coalg B = sum(K, N)\n")
        delta = dsl.parse(head).coalgebras["B"].delta
        docs.append(head
                    + f"comod R over N {{dim 2 rho=[{_flat(GX_DELTA)}]}}\n"
                    + "comod D over N {dim 4 rho="
                    f"[{_flat(_doubled(GX_DELTA, 2, 2))}]}}\n"
                    "comod S over N {dim 1 rho=[1, 0]}\n"
                    "check injective R\ncheck injective D\n"
                    "check injective S\n")
        docs.append(head + "comod R over B {dim 4 rho="
                    f"[{', '.join(map(str, delta.data))}]}}\n"
                    "check cosemisimple B\ncheck injective R\n")
    return docs


def _site(frame):
    return (f"{frame.f_globals['__name__'].rsplit('.', 1)[-1]}."
            f"{frame.f_code.co_name}")


def test_every_implied_object_passes_the_retired_equations(monkeypatch):
    built = {kind: [] for kind in CLASSES}
    for kind, cls in CLASSES.items():
        real = cls._implied.__func__

        def spy(cls, *args, _real=real, _built=built[kind]):
            obj = _real(cls, *args)
            _built.append((_site(sys._getframe(1)), obj))
            return obj

        monkeypatch.setattr(cls, "_implied", classmethod(spy))
    corpus = resources.files("comodcheck") / "corpus"
    texts = [(path.read_text(), seed) for path in sorted(corpus.iterdir())
             if path.name.endswith(".cd") for seed in range(4)]
    texts.append(("field Q\ncoalg C = grouplike {a, b}\n"
                  "check hyperdoctrine C 2\n", 0))
    texts += [(text, 0) for text in raw_documents()]
    for text, seed in texts:
        reps = runner.run(dsl.parse(text), seed=seed)
        assert reps and all(rep.verdict in ("pass", "unsupported")
                            for rep in reps), text
    # public constructions that no document reaches
    rng = random.Random(3)
    g = ca.grouplike_coalgebra(QQ, "ab")
    v, w = (gen.random_comodule(rng, g, max_dim=2, conjugated=True)
            for _ in range(2))
    assert cm.direct_sum(v, cm.zero_comodule(g)) is not None
    phi = ca.grouplike_morphism(g, ca.grouplike_coalgebra(QQ, "x"),
                                {"a": "x", "b": "x"})
    assert ix.sigma_map(phi, v.identity_morphism()) is not None
    pw = ix.pullback_functor(phi, ix.sigma(phi, w))
    h = ix.forall_transpose_fwd(phi, ix.sigma(phi, w), pw,
                                ix.forall_counit(phi, w, pw))
    assert ix.forall_transpose_bwd(phi, w, pw, h) is not None
    for kind, sites in SITES.items():
        assert {site for site, _ in built[kind]} == sites, kind
        check = RETIRED[kind]
        assert all(check(obj) for _, obj in built[kind]), kind


def _own_calls(fn):
    """The calls in a function's body outside any function nested in it."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        todo.extend(ast.iter_child_nodes(node))


def implied_callers():
    """{"module.py:function": docstring} for every function in ``src/``
    that calls an ``_implied`` constructor."""
    callers = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    any(isinstance(call.func, ast.Attribute)
                        and call.func.attr == "_implied"
                        for call in _own_calls(fn)):
                callers[f"{path.name}:{fn.name}"] = ast.get_docstring(fn)
    return callers


def test_every_implied_construction_says_why():
    callers = implied_callers()
    assert len(callers) >= 20
    assert [site for site, doc in callers.items()
            if "implied" not in (doc or "")] == []
    assert [site for site in callers if site.startswith("oracle.py:")] == []


def test_the_retired_equations_reject_planted_objects():
    # the dense references can fail: a coaction that misses the counit
    # law, a map that preserves no comultiplication, and one that
    # intertwines nothing
    g = ca.grouplike_coalgebra(QQ, "ab")
    assert not comodule_axioms_hold(cm.Comodule._implied(
        g, 1, [{0: 1, 1: 1}]))
    assert not coalgebra_morphism_laws_hold(ca.CoalgebraMorphism._implied(
        g, g, [{0: 1, 1: 1}, {1: 1}]))
    v, w = cm.graded_comodule(g, [1, 0]), cm.graded_comodule(g, [0, 1])
    assert not intertwines(cm.ComoduleMorphism._implied(v, w, [{0: 1}]))
