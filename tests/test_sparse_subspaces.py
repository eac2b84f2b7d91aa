"""Subspaces and kernels read off one sparse reduced-echelon kernel.

``_core_py.rref_rows`` reduces {column: value} rows over Q or F_p, and a
``Subspace`` stores the reduced rows of its spanning columns as its
canonical basis, with no transpose and no dense copy; a kernel is read off
the reduced rows of its matrix, and a cotensor kernel without a
coseparability form off the rows of A, transposed from its columns.  Each
is compared here with an independent reference: sympy's rref, the dense
``_cotensor_matrix(v, w).kernel()``, and equal subspaces spanned in other
orders and scalings.  The guards check what runs: no ``Subspace`` holds a
``Matrix``, and building one transposes, slices or scans no matrix.

The same module keeps the two loops that sparse builds replaced as
references: the one-unit-at-a-time trim of ``gen.random_graded_dims`` and
the ``_kron_cols`` formula of r_V, applied to every identity column.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from comodcheck import _core_py as core
from comodcheck import coalg as ca
from comodcheck import comod as cm
from comodcheck import dsl, runner
from comodcheck import exactlin as el
from comodcheck.exactlin import (Matrix, ShapeError, Subspace, _kron_cols,
                                 _reduced)
from comodcheck.fields import GF, QQ
from comodcheck.gen import (random_comodule, random_graded_dims,
                            random_grouplike, random_invertible)

from conftest import SRC, form_matrix, gx_coalgebra, matmul, sqrt2_dual

FIELDS = pytest.mark.parametrize("field", [QQ, GF(7), GF(3)],
                                 ids=["Q", "F7", "F3"])
ROOT = Path(__file__).resolve().parents[1]


def sympy_rref(field, rows, cols):
    """The rref and pivots of the dense matrix with the given rows, by
    sympy over QQ or GF(p), with entries as Fractions or ints mod p."""
    from sympy.polys.domains import GF as SymGF, QQ as SymQQ
    from sympy.polys.matrices import DomainMatrix

    p = field.char
    dom = SymGF(p) if p else SymQQ
    dense = [[row.get(j, 0) for j in range(cols)] for row in rows]
    if p:
        entries = [[dom(int(x) % p) for x in r] for r in dense]
    else:
        entries = [[dom(Fraction(x).numerator, Fraction(x).denominator)
                    for x in r] for r in dense]
    rref, pivots = DomainMatrix(entries, (len(rows), cols), dom).rref()
    out = [[int(x) % p if p else Fraction(int(x.numerator),
                                           int(x.denominator))
            for x in r] for r in rref.to_list()]
    return out[:len(pivots)], list(pivots)


def random_rows(rng, field, count, cols):
    """{column: value} rows with keys inserted in shuffled order: sparse
    rows, Fraction entries over Q and values past p or negative over F_p,
    explicit zero entries, empty rows and duplicated rows."""
    p = field.char
    rows = []
    for _ in range(count):
        keys = [j for j in range(cols) if rng.random() < 0.4]
        rng.shuffle(keys)
        if p:
            row = {j: rng.randint(-2 * p, 3 * p) for j in keys}
        else:
            row = {j: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))
                   for j in keys}
        rows.append(row)
    if rows:
        rows.append(dict(rng.choice(rows)))
        rows.append({})
        rows.append({rng.randrange(cols): 0} if cols else {})
    rng.shuffle(rows)
    return rows


@FIELDS
def test_rref_rows_matches_sympy(field):
    pytest.importorskip("sympy")
    p = field.char
    rng = random.Random(f"rref rows {p}")
    for _ in range(60):
        cols = rng.randint(1, 9)
        rows = random_rows(rng, field, rng.randint(0, 8), cols)
        before = [dict(row) for row in rows]
        reduced, pivots = core.rref_rows(rows, cols, p)
        assert rows == before
        want, want_pivots = sympy_rref(field, rows, cols)
        assert pivots == want_pivots
        assert [[row.get(j, 0) for j in range(cols)] for row in reduced] \
            == want
        assert all(x and (not p or 0 < x < p)
                   for row in reduced for x in row.values())


@FIELDS
def test_flat_adapters_agree_with_the_row_kernel(field):
    # bareiss_echelon and rref_mod read a flat matrix into rows for the
    # same row kernels: same pivots, and over F_p the same reduced rows
    p = field.char
    rng = random.Random(f"adapters {p}")
    for _ in range(30):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        m = Matrix(field, rows, cols, [field.of(rng.randint(-3, 3))
                                       if rng.random() < 0.5 else 0
                                       for _ in range(rows * cols)])
        reduced, pivots = core.rref_rows(
            core._sparse_rows(m.data, rows, cols), cols, p)
        if p:
            data, flat_pivots = core.rref_mod(m.data, rows, cols, p)
            assert data == core._dense(reduced, rows, cols)
        else:
            _, flat_pivots = core.bareiss_echelon(m.data, rows, cols)
        assert flat_pivots == pivots == m.rref()[1]


@FIELDS
def test_spanning_sets_in_any_order_and_scaling_store_equal_columns(field):
    p = field.char
    rng = random.Random(f"spans {p}")
    for _ in range(30):
        n, k = rng.randint(1, 7), rng.randint(1, 4)
        span = [{j: field.of(rng.randint(-3, 3)) for j in range(n)
                 if rng.random() < 0.6} for _ in range(k)]
        sub = Subspace(field, n, span, _canonical=False)
        other = [{j: x * s for j, x in reversed(col.items())}
                 for col, s in zip(span, (rng.choice([2, 3, -1, 5])
                                          for _ in span))]
        # an extra combination and a zero column leave the span as it is
        extra = {}
        for col in span:
            for j, x in col.items():
                extra[j] = extra.get(j, 0) + 2 * x
        other = [extra] + other[::-1] + [{}]
        rng.shuffle(other)
        again = Subspace(field, n, other, _canonical=False)
        assert again == sub
        assert again.columns == sub.columns and again.pivots == sub.pivots
        assert Subspace(field, n, sub.columns) == sub
        with pytest.raises(ShapeError):
            Subspace(field, n, span + [{n: 1}], _canonical=False)
        # the basis is the identity at its pivot rows
        assert [[col.get(piv, 0) for piv in sub.pivots]
                for col in sub.columns] \
            == [[int(q == t) for q in range(sub.dim)]
                for t in range(sub.dim)]


def kernel_bases(field):
    """N and sum(K, N), neither with a coseparability form."""
    return [gx_coalgebra(field),
            ca.direct_sum(sqrt2_dual(field), gx_coalgebra(field))]


def regular_sums(rng, base):
    reg = cm.regular_comodule(base)
    out = [reg, cm.direct_sum(reg, reg)]
    return out + [cm.conjugate(v, random_invertible(rng, base.field, v.dim))
                  for v in out]


@FIELDS
def test_kernels_from_the_rows_of_a_match_the_dense_kernel(field):
    rng = random.Random(f"rows of A {field.char}")
    for base in kernel_bases(field):
        comods = regular_sums(rng, base) + [cm.cofree_comodule(base, 1)]
        for v in comods:
            assert cm.coseparability_retraction(v) is None
            for w in comods[::2]:
                sub = cm._cotensor_kernel(v, w)
                a = cm._cotensor_matrix(v, w)
                assert sub == a.kernel()
                assert matmul(a, sub.basis).is_zero()
                assert sub.dim == a.cols - a.rank()


# -- what runs ---------------------------------------------------------------

@pytest.mark.parametrize("doc", ["04_cotensor", "hyperdoctrine C 2"],
                         ids=["04_cotensor", "hyperdoctrine-C-2"])
def test_subspaces_hold_no_matrix_and_transpose_none(monkeypatch, doc):
    # a Subspace is built by one rref_rows of its columns: it makes no
    # Matrix (so no transpose or row slice), runs no rank elimination,
    # scans no dense matrix and keeps no Matrix; the idempotent it reduces
    # is column dicts
    inside, calls, built, idempotents = [], [], [], []
    real_init = Subspace.__init__

    def init(self, *args, **kwargs):
        inside.append(1)
        try:
            real_init(self, *args, **kwargs)
        finally:
            inside.pop()
        built.append(self)

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if inside:
                calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("__init__", "rank", "_echelon"):
        spy(Matrix, name)
    spy(el, "_dense_columns")
    for name in ("mul_obj", "mul_mod", "rref_rows"):
        spy(core, name)
    monkeypatch.setattr(Subspace, "__init__", init)
    real_idempotent = cm._cotensor_idempotent

    def idempotent(*args):
        idempotents.append(real_idempotent(*args))
        return idempotents[-1]

    monkeypatch.setattr(cm, "_cotensor_idempotent", idempotent)
    if doc.startswith("hyperdoctrine"):
        text = f"field Q\ncoalg C = grouplike {{a, b}}\ncheck {doc}\n"
    else:
        text = (resources.files("comodcheck") / "corpus"
                / f"{doc}.cd").read_text()
    reps = runner.run(dsl.parse(text))
    assert reps and all(rep.passed for rep in reps)
    assert built and idempotents
    assert calls == ["rref_rows"] * len(built)
    for sub in built:
        assert not any(isinstance(getattr(sub, slot), Matrix)
                       for slot in Subspace.__slots__)
        assert all(type(col) is dict for col in sub.columns)
    assert all(type(col) is dict for e in idempotents for col in e)


def guarded_documents():
    """Every corpus document, ``hyperdoctrine C 2`` and the cotensor of
    graded comodules (3, 3) and (3, 1) over {a, b}."""
    corpus = resources.files("comodcheck") / "corpus"
    docs = [(p.name[:-3], p.read_text())
            for p in sorted(corpus.iterdir(), key=lambda p: p.name)
            if p.name.endswith(".cd")]
    head = "field Q\ncoalg C = grouplike {a, b}\n"
    return docs + [
        ("hyperdoctrine-C-2", head + "check hyperdoctrine C 2\n"),
        ("cotensor-33-31", head + "comod V over C {graded {a: 3, b: 3}}\n"
         "comod W over C {graded {a: 3, b: 1}}\ncheck cotensor V W\n")]


@pytest.mark.parametrize("text", [text for _, text in guarded_documents()],
                         ids=[name for name, _ in guarded_documents()])
def test_no_check_runs_a_dense_product_or_reads_a_morphism_matrix(
        monkeypatch, text):
    # morphisms are their columns: every composition, inverse pair and
    # comparison is evaluated from nonzeros, so no check calls the flat
    # product kernels or builds the dense view of a morphism
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    def spy_view(cls):
        real = cls.matrix.fget

        def view(self):
            calls.append(f"{cls.__name__}.matrix")
            return real(self)
        monkeypatch.setattr(cls, "matrix", property(view))

    for name in ("mul_obj", "mul_mod"):
        spy(core, name)
    for cls in (ca.CoalgebraMorphism, cm.ComoduleMorphism):
        spy_view(cls)
    reps = runner.run(dsl.parse(text))
    assert reps and all(rep.verdict != "error" for rep in reps)
    assert calls == []


def test_the_benchmark_tracer_still_fits_the_package():
    # perfbench/spans.py wraps the flat kernel names on _backend.core and
    # every public callable; run it, read-only, on two corpus documents:
    # the cotensor builds subspaces, and the injectivity solve without a
    # coseparability form runs a flat elimination kernel
    script = f"""
import contextlib, importlib.util, io, json, sys
sys.path.insert(0, {SRC!r})
from importlib import resources
from comodcheck import _backend, cli
spec = importlib.util.spec_from_file_location(
    "spans", {str(ROOT / "perfbench" / "spans.py")!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
missing = [k for k in spans.KERNELS if not callable(
    getattr(_backend.core, k, None))]
tracer = spans.Tracer()
tracer.install()
code = 0
for name in ("03_injective.cd", "04_cotensor.cd"):
    doc = resources.files("comodcheck") / "corpus" / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = code or cli.main(["check", str(doc), "--json"])
print(json.dumps({{"code": code, "missing": missing,
                  "subspaces": tracer.count("exactlin.Subspace.__init__"),
                  "kernels": tracer.count("exactlin.bareiss")
                  + tracer.count("exactlin.rref_mod")}}))
"""
    out = subprocess.run([sys.executable, "-B", "-c", script],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["code"] == 0 and got["missing"] == []
    assert got["subspaces"] > 0 and got["kernels"] > 0


# -- the loops the sparse builds replaced -------------------------------------

def trimmed_one_unit_at_a_time(rng, n, max_dim, max_total=None):
    """``random_graded_dims`` as a loop that lowers the first largest
    entry by one until the sum fits."""
    dims = [rng.randint(0, max_dim) for _ in range(n)]
    if max_total is not None:
        while sum(dims) > max_total:
            i = max(range(n), key=lambda j: dims[j])
            dims[i] -= 1
    return dims


def test_water_filling_matches_the_one_unit_loop():
    trimmed = 0
    for seed in range(4000):
        pick = random.Random(seed)
        n, max_dim = pick.randint(0, 12), pick.randint(0, 6)
        max_total = pick.choice([None, *range(-2 if n else 0, 30)])
        ours, ref = random.Random(seed + 1), random.Random(seed + 1)
        got = random_graded_dims(ours, n, max_dim, max_total)
        assert got == trimmed_one_unit_at_a_time(ref, n, max_dim, max_total)
        assert ours.random() == ref.random()
        drawn = random_graded_dims(random.Random(seed + 1), n, max_dim)
        trimmed += max_total is not None and sum(drawn) > max_total
    assert trimmed > 1000


def retraction_on_every_identity_column(v):
    """r_V = (I_m (x) gamma)(rho_V (x) I_n) applied by ``_kron_cols`` to
    all m*n identity columns."""
    p, n, m = v.field.char, v.base.dim, v.dim
    forms = [{0: g} if g else {} for g in form_matrix(v.base).data]
    return _reduced(_kron_cols(m, forms, 1, _kron_cols(
        v._rho_cols, n, n, [{t: 1} for t in range(m * n)])), p)


@FIELDS
def test_retraction_from_nonzeros_matches_the_identity_column_formula(
        field):
    rng = random.Random(f"retraction {field.char}")
    k = sqrt2_dual(field)
    comods = regular_sums(rng, k) + regular_sums(
        rng, ca.product(k, k)[0])
    for _ in range(4):
        base = random_grouplike(rng, field, max_labels=4)
        comods += [random_comodule(rng, base, max_dim=3, conjugated=c)
                   for c in (False, True)]
    for v in comods:
        r = cm.coseparability_retraction(v)
        assert r is v._retraction is not None
        assert r == retraction_on_every_identity_column(v)
