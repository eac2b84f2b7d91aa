"""Run the suite from a checkout without installing the package, and
hold the helpers that several test modules share.

``pythonpath`` in ``pyproject.toml`` puts ``src/`` on this process's
``sys.path``; the CLI tests start ``python -m comodcheck.cli`` in child
processes, which find the package through ``PYTHONPATH`` set here.  Test
modules import the helpers below with ``from conftest import ...``.
"""

import os
from pathlib import Path

import pytest

from comodcheck._backend import core
from comodcheck.coalg import Coalgebra, _subcoalgebra, coseparability_form
from comodcheck.comod import ComoduleMorphism, _cotensor_columns, hom_space
from comodcheck.exactlin import Matrix, ShapeError, Subspace, _dense_columns
from comodcheck.fields import QQ

SRC = str(Path(__file__).resolve().parents[1] / "src")

# delta g = g x g, delta x = g x x + x x g: valid but not cosemisimple
GX_DELTA = [[1, 0], [0, 1], [0, 1], [0, 0]]
GX_EPS = [[1, 0]]

# structure constants of the dual of Q(sqrt 2): cosemisimple, no group-likes
SQRT2_DELTA = [[1, 0], [0, 1], [0, 1], [2, 0]]
SQRT2_EPS = [[1, 0]]


def column_dicts(m):
    """The {row: value} column dicts of a dense matrix, in one data pass:
    the form every structure map and morphism constructor takes."""
    cols = [{} for _ in range(m.cols)]
    c = m.cols
    for idx, v in enumerate(m.data):
        if v:
            cols[idx % c][idx // c] = v
    return cols


def columns(field, rows):
    """The {row: value} column dicts of the matrix with the given rows, as
    the ``Coalgebra`` and ``Comodule`` constructors take them."""
    return column_dicts(Matrix.from_rows(field, rows))


def _mul(field, a, b, m, k, n):
    """Flat product of an m x k and a k x n flat list by the dense
    kernels of ``_backend.core``."""
    if field.char:
        return core.mul_mod(a, b, m, k, n, field.char)
    return core.mul_obj(a, b, m, k, n)


def matmul(*factors):
    """The dense product factors[0] ... factors[-1]: a test-only
    reference for the sparse compositions."""
    out = factors[0]
    for m in factors[1:]:
        if out.field != m.field or out.cols != m.rows:
            raise ShapeError(f"cannot compose {out.rows}x{out.cols} "
                             f"with {m.rows}x{m.cols}")
        out = Matrix(out.field, out.rows, m.cols, _mul(
            out.field, out.data, m.data, out.rows, out.cols, m.cols))
    return out


def kron(a, b):
    """The dense Kronecker product a (x) b on the fixed tensor bases: a
    test-only reference."""
    if a.field != b.field:
        raise ShapeError("field mismatch")
    rb, cb = b.rows, b.cols
    out = Matrix.zeros(a.field, a.rows * rb, a.cols * cb).data
    for i in range(a.rows):
        for j in range(a.cols):
            x = a[i, j]
            if x:
                for k in range(rb):
                    for l in range(cb):
                        out[(i * rb + k) * a.cols * cb + j * cb + l] = \
                            a.field.mul(x, b[k, l])
    return Matrix(a.field, a.rows * rb, a.cols * cb, out)


def is_invertible(m):
    """Square with full rank, by dense elimination: a test-only
    reference."""
    return m.rows == m.cols and m.rank() == m.rows


def inverse(m):
    """The exact inverse of a dense matrix by ``solve_right``, or None
    when it is not square or singular: a test-only reference."""
    if m.rows != m.cols:
        return None
    ident = Matrix.identity(m.field, m.rows)
    inv = m.solve_right(ident)
    return inv if inv is not None and matmul(inv, m) == ident else None


def cotensor_matrix(v, w):
    """The cotensor equations A of ``comod._cotensor_columns`` as a dense
    matrix, whose kernel is V (x)_C W: a test-only reference."""
    return _dense_columns(v.field, v.dim * v.base.dim * w.dim,
                          _cotensor_columns(v, w))


def swap_matrix(field, m, n):
    """The dense transposition V (x) W -> W (x) V for dims (m, n),
    e_i (x) e_j -> e_j (x) e_i: a test-only reference."""
    data = [0] * (m * n * m * n)
    for i in range(m):
        for j in range(n):
            data[(j * m + i) * m * n + i * n + j] = 1
    return Matrix(field, m * n, m * n, data)


def gx_coalgebra(field=QQ):
    return Coalgebra(field, 2, columns(field, GX_DELTA),
                     columns(field, GX_EPS))


def sqrt2_dual(field=QQ):
    return Coalgebra(field, 2, columns(field, SQRT2_DELTA),
                     columns(field, SQRT2_EPS))


def form_matrix(c):
    """The coseparability form of c as a dense 1 x n^2 row, read from the
    rows {e: gamma(e_d (x) e_e)} that ``coseparability_form`` returns, or
    None when c has none."""
    rows = coseparability_form(c)
    if rows is None:
        return None
    n = c.dim
    return Matrix(c.field, 1, n * n, [row.get(e, 0) for row in rows
                                      for e in range(n)])


def retraction_splits(v):
    """The per-comodule splitting certificate that ``comod.is_injective``
    no longer evaluates, as dense products: True when
    r = (id (x) gamma)(rho (x) id) has r rho = id and
    (r (x) id)(id (x) delta) = rho r.  A test-only reference, for a
    comodule whose base has a coseparability form."""
    f, m, n = v.field, v.dim, v.base.dim
    ident = Matrix.identity
    r = matmul(kron(ident(f, m), form_matrix(v.base)),
               kron(v.rho, ident(f, n)))
    return (matmul(r, v.rho) == ident(f, m)
            and matmul(kron(r, ident(f, n)),
                       kron(ident(f, m), v.base.delta)) == matmul(v.rho, r))


def intertwines(mor):
    """(f (x) id) rho_V = rho_W f for a comodule morphism f: V -> W, as
    dense products: the equation ``ComoduleMorphism._implied`` does not
    evaluate, a test-only reference."""
    f, n = mor.source.field, mor.source.base.dim
    return (matmul(kron(mor.matrix, Matrix.identity(f, n)), mor.source.rho)
            == matmul(mor.target.rho, mor.matrix))


def comodule_axioms_hold(v):
    """(id (x) eps) rho = id and (id (x) delta) rho = (rho (x) id) rho for
    a comodule V, as dense products: the equations ``Comodule._implied``
    does not evaluate, a test-only reference."""
    f, m, n = v.field, v.dim, v.base.dim
    ident = Matrix.identity
    return (matmul(kron(ident(f, m), v.base.epsilon), v.rho) == ident(f, m)
            and matmul(kron(ident(f, m), v.base.delta), v.rho)
            == matmul(kron(v.rho, ident(f, n)), v.rho))


def coalgebra_morphism_laws_hold(mor):
    """delta_D f = (f (x) f) delta_C and eps_D f = eps_C for a coalgebra
    map f: C -> D, as dense products: the equations
    ``CoalgebraMorphism._implied`` does not evaluate, a test-only
    reference."""
    a = mor.matrix
    return (matmul(mor.target.delta, a)
            == matmul(kron(a, a), mor.source.delta)
            and matmul(mor.target.epsilon, a) == mor.source.epsilon)


def kron_apply(a, b, x):
    """(a (x) b) @ x without building a (x) b; an int n stands for I_n.

    A dense test-only reference for the sparse kernel ``_kron_cols``.
    Column t of x is vec X_t for a block X_t with one row per column of a
    and one column per column of b, and the result column is
    vec(a X_t b^T): b multiplies the blocks side by side (one batched
    product, its input and output regrouped), and a multiplies that result
    as it stands.
    """
    f, d = x.field, x.cols
    ra, ca = (a, a) if isinstance(a, int) else (a.rows, a.cols)
    rb, cb = (b, b) if isinstance(b, int) else (b.rows, b.cols)
    for m in (a, b):
        if not isinstance(m, int) and m.field != f:
            raise ShapeError("field mismatch")
    if ca * cb != x.rows:
        raise ShapeError(f"cannot apply a {ra * rb}x{ca * cb} tensor product "
                         f"to {x.rows}x{d}")
    data = x.data
    if not isinstance(b, int):
        if ca == 1:
            data = _mul(f, b.data, data, rb, cb, d)
        else:
            # Z[j, i*d + t] = X_t[i, j]; then W = b Z back to (i, k, t) order
            z = []
            for j in range(cb):
                for i in range(ca):
                    s = (i * cb + j) * d
                    z += data[s:s + d]
            w = _mul(f, b.data, z, rb, cb, ca * d)
            data = []
            for i in range(ca):
                for k in range(rb):
                    s = (k * ca + i) * d
                    data += w[s:s + d]
    if not isinstance(a, int):
        data = _mul(f, a.data, data, ra, ca, rb * d)
    return Matrix(f, ra * rb, d, data)


def transpose(m):
    """The transpose of a dense matrix: a test-only reference."""
    c = m.cols
    return Matrix(m.field, c, m.rows,
                  [x for j in range(c) for x in m.data[j::c]])


def take_rows(m, indices):
    """The rows of a dense matrix at ``indices``, in that order: a
    test-only reference."""
    c = m.cols
    return Matrix(m.field, len(indices), c,
                  [x for i in indices for x in m.data[i * c:(i + 1) * c]])


def chart_embedding(chart):
    """A chart's flat_dim x dim embedding as a dense matrix, built from its
    column dicts."""
    return _dense_columns(chart.field, chart.flat_dim, chart.columns)


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns its list of calls."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def hom_morphisms(v, w):
    """The basis of ``hom_space(v, w)`` as comodule morphisms: column t of
    the basis is the row-major vec of a w.dim x v.dim matrix.  Each
    ``ComoduleMorphism`` re-checks its intertwining equation, a test-side
    check independent of the kernel certificate."""
    basis = hom_space(v, w).basis
    return [ComoduleMorphism(v, w, column_dicts(Matrix(
        v.field, w.dim, v.dim, basis.data[t::basis.cols])))
            for t in range(basis.cols)]


def find_isomorphism(v, w, rng, tries=64):
    """An invertible comodule morphism V -> W, or None when none is found.

    A test-only reference, never a verdict: unequal dimensions certify
    there is none; otherwise invertible elements of the hom space are dense
    whenever an iso exists, so a seeded random search over small integer
    combinations finds one quickly.
    """
    if v.base != w.base or v.dim != w.dim:
        return None
    basis = hom_morphisms(v, w)
    if not basis:
        return None if v.dim else ComoduleMorphism(v, w, [])
    for mor in basis:
        if is_invertible(mor.matrix):
            return mor
    p = v.field.char
    for t in range(tries):
        bound = 1 + t // 8
        coeffs = [rng.randint(-bound, bound) if not p else
                  rng.randrange(p) for _ in basis]
        mat = Matrix.zeros(v.field, w.dim, v.dim)
        for c, mor in zip(coeffs, basis):
            if c:
                mat = mat + mor.matrix.scale(c)
        if is_invertible(mat):
            return ComoduleMorphism(v, w, column_dicts(mat))
    return None


def annihilator(w):
    """A matrix Q with kernel exactly the subspace w (its rows cut w out):
    a dense test-only reference, the transposed kernel of w's transposed
    basis."""
    return transpose(transpose(w.basis).kernel().basis)


def largest_subcoalgebra_in(c, w):
    """Largest subcoalgebra of c inside the subspace w, with its inclusion.

    A test-only reference for ``coalg.pullback``: it iterates the
    refinement W -> {x in W : delta(x) in W (x) W} to its fixpoint, one
    kernel per step through (W (x) C) cap (C (x) W) = W (x) W, cut out by
    ann(W) (x) id and id (x) ann(W); each step strictly lowers the
    dimension until it stops.
    """
    f = c.field
    ident = Matrix.identity(f, c.dim)
    while w.dim:
        q = annihilator(w)
        cond = matmul(kron(q, ident).vstack(kron(ident, q)), c.delta,
                      w.basis)
        coords = cond.kernel()
        if coords.dim == w.dim:
            break
        w = Subspace(f, c.dim, column_dicts(matmul(w.basis, coords.basis)),
                     _canonical=False)
    return _subcoalgebra(c, w)


@pytest.fixture(autouse=True)
def src_on_child_path(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
