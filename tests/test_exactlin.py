import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comodcheck import _core_py
from comodcheck import coalg as ca
from comodcheck import comod as cm
from comodcheck import indexed as ix
from comodcheck.exactlin import (Chart, Matrix, ShapeError, Subspace,
                                 _dense_columns, _difference, _inverse,
                                 _kron_cols)
from comodcheck.fields import GF, QQ

from conftest import (annihilator, chart_embedding, column_dicts, columns,
                      inverse, kron, kron_apply, matmul, swap_matrix,
                      take_rows, transpose)

F = QQ


def rnd_matrix(rng, rows, cols, field=F, lo=-3, hi=3):
    return Matrix(field, rows, cols,
                  [field.of(rng.randint(lo, hi))
                   for _ in range(rows * cols)])


# -- kernels -------------------------------------------------------------------

def test_kernel_identity_is_zero():
    assert Matrix.identity(F, 3).kernel().dim == 0


def test_kernel_zero_map_is_full():
    assert Matrix.zeros(F, 2, 4).kernel().dim == 4


def test_kernel_rank_one_example():
    # rows (1,1) and (2,2): kernel spanned by (1,-1)
    m = Matrix.from_rows(F, [[1, 1], [2, 2]])
    k = m.kernel()
    assert k.dim == 1
    assert matmul(m, k.basis).is_zero()
    assert k.coords(column_dicts(Matrix.from_rows(F, [[1], [-1]]))) \
        is not None


@given(st.integers(0, 40))
@settings(max_examples=30, deadline=None)
def test_rank_nullity(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(0, 5), rng.randint(0, 5)
    m = rnd_matrix(rng, rows, cols)
    assert m.rank() + m.kernel().dim == cols
    assert matmul(m, m.kernel().basis).is_zero()


def test_kernel_over_fp():
    p = GF(7)
    m = Matrix.from_rows(p, [[1, 1], [2, 2]])
    k = m.kernel()
    assert k.dim == 1 and matmul(m, k.basis).is_zero()


# -- kron ----------------------------------------------------------------------

def test_kron_identities():
    assert kron(Matrix.identity(F, 2), Matrix.identity(F, 3)) \
        == Matrix.identity(F, 6)


def test_kron_shape_law():
    a = Matrix.zeros(F, 2, 3)
    b = Matrix.zeros(F, 4, 5)
    k = kron(a, b)
    assert (k.rows, k.cols) == (8, 15)


def test_kron_mixed_product_law():
    rng = random.Random(0)
    for _ in range(10):
        a, b, c, d = (rnd_matrix(rng, 2, 2) for _ in range(4))
        assert matmul(kron(a, b), kron(c, d)) \
            == kron(matmul(a, c), matmul(b, d))


def test_kron_associativity_on_flat_indices():
    rng = random.Random(1)
    a, b, c = rnd_matrix(rng, 2, 2), rnd_matrix(rng, 3, 2), \
        rnd_matrix(rng, 2, 3)
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


def rnd_entries(rng, field, rows, cols, density=0.5):
    """Sparse random entries; over Q some of them proper fractions."""
    p = field.char
    data = []
    for _ in range(rows * cols):
        if rng.random() >= density:
            data.append(0)
        elif p:
            data.append(rng.randint(1, p - 1))
        else:
            data.append(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return Matrix(field, rows, cols, data)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(3)],
                         ids=["Q", "GF7", "GF3"])
def test_kron_apply_matches_the_built_product(field):
    rng = random.Random(field.char + 13)
    for _ in range(300):
        ra, ca, rb, cb, d = (rng.randint(0, 4) for _ in range(5))
        # an int factor stands for the identity of that size
        a = ca if rng.random() < 0.25 else rnd_entries(rng, field, ra, ca)
        b = cb if rng.random() < 0.25 else rnd_entries(rng, field, rb, cb)
        x = rnd_entries(rng, field, ca * cb, d)
        built_a = Matrix.identity(field, a) if isinstance(a, int) else a
        built_b = Matrix.identity(field, b) if isinstance(b, int) else b
        assert kron_apply(a, b, x) == matmul(kron(built_a, built_b), x)


def test_kron_apply_rejects_mismatched_operands():
    rng = random.Random(2)
    a, b = rnd_matrix(rng, 2, 3), rnd_matrix(rng, 2, 2)
    with pytest.raises(ShapeError):
        kron_apply(a, b, rnd_matrix(rng, 5, 1))
    with pytest.raises(ShapeError):
        kron_apply(3, b, rnd_matrix(rng, 7, 2))
    with pytest.raises(ShapeError):
        kron_apply(a, 2, Matrix.zeros(GF(7), 6, 1))


# -- the sparse certificate kernel ---------------------------------------------

def reduced(columns, p):
    """Columns of unreduced sums reduced mod p (p = 0: as they are) and rid
    of zero sums."""
    out = []
    for col in columns:
        col = {k: s % p for k, s in col.items()} if p else col
        out.append({k: s for k, s in col.items() if s})
    return out


@pytest.mark.parametrize("field", [QQ, GF(7), GF(3)], ids=repr)
def test_kron_cols_matches_kron_apply(field):
    rng = random.Random(f"kron_cols {field.char}")
    p = field.char
    kinds, past_p = set(), False
    for _ in range(400):
        ra, ca, rb, cb, d = (rng.randint(0, 4) for _ in range(5))
        # an int factor stands for the identity of that size
        a = ca if rng.random() < 0.3 else rnd_entries(rng, field, ra, ca, 0.7)
        b = cb if rng.random() < 0.3 else rnd_entries(rng, field, rb, cb, 0.7)
        x = rnd_entries(rng, field, ca * cb, d, 0.7)
        got = _kron_cols(a if isinstance(a, int) else column_dicts(a),
                         b if isinstance(b, int) else column_dicts(b),
                         b if isinstance(b, int) else rb, column_dicts(x))
        assert reduced(got, p) == column_dicts(kron_apply(a, b, x))
        kinds.add((isinstance(a, int), isinstance(b, int)))
        past_p |= any(s >= p for col in got for s in col.values()) if p \
            else False
    assert len(kinds) == 4
    assert past_p or not p


def perturbed(rng, columns, rows, p):
    """The same matrix with unreduced entries: over F_p each entry moved by
    a multiple of p and some zeros spelled out as 0 or p, over Q some
    zeros spelled out as Fraction(0)."""
    out = []
    for col in columns:
        col = {k: s + p * rng.randint(0, 2) for k, s in col.items()}
        for k in range(rows):
            if k not in col and rng.random() < 0.2:
                col[k] = p * rng.randint(0, 1) if p else Fraction(0)
        out.append(col)
    return out


@pytest.mark.parametrize("field", [QQ, GF(7), GF(3)], ids=repr)
def test_difference_matches_a_dense_comparison(field):
    rng = random.Random(f"difference {field.char}")
    p = field.char
    outcomes = set()
    for _ in range(400):
        rows, cols = rng.randint(0, 5), rng.randint(0, 4)
        lhs = rnd_entries(rng, field, rows, cols)
        data = list(lhs.data)
        for _ in range(rng.choice([0, 0, 1, 2])):
            if data:
                i = rng.randrange(len(data))
                data[i] = field.add(data[i], rng.randint(1, 2))
        rhs = Matrix(field, rows, cols, data)
        want = next(((t, i) for t in range(cols) for i in range(rows)
                     if lhs[i, t] != rhs[i, t]), None)
        got = _difference(perturbed(rng, column_dicts(lhs), rows, p),
                          perturbed(rng, column_dicts(rhs), rows, p), p)
        assert got == want
        assert _difference(column_dicts(lhs), column_dicts(lhs), p) is None
        outcomes.add(want is None)
    assert outcomes == {True, False}


def test_transpose_is_an_involution_on_every_shape():
    rng = random.Random(4)
    for rows, cols in [(0, 3), (3, 0), (1, 4), (4, 1), (3, 5)]:
        m = rnd_matrix(rng, rows, cols)
        t = transpose(m)
        assert (t.rows, t.cols) == (cols, rows)
        assert all(t[j, i] == m[i, j]
                   for i in range(rows) for j in range(cols))
        assert transpose(t) == m


def test_swap_matrix_inverse_pair():
    s = swap_matrix(F, 2, 3)
    assert matmul(swap_matrix(F, 3, 2), s) == Matrix.identity(F, 6)


# -- subspaces ------------------------------------------------------------------

def test_annihilator_cuts_exactly():
    w = Subspace(F, 4, column_dicts(
        Matrix.from_rows(F, [[1, 0], [2, 1], [0, 0], [1, 3]])))
    q = annihilator(w)
    assert matmul(q, w.basis).is_zero()
    assert q.kernel() == w


def test_subspace_coords_reads_pivots():
    w = Subspace(F, 3, column_dicts(
        Matrix.from_rows(F, [[1, 1], [0, 2], [1, 0]])))
    y = matmul(w.basis, Matrix.from_rows(F, [[Fraction(1, 2)], [3]]))
    c = w.coords(column_dicts(y))
    assert c is not None
    assert matmul(w.basis, _dense_columns(F, w.dim, c)) == y
    assert w.coords(column_dicts(Matrix.from_rows(F, [[1], [0], [0]]))) \
        is None or w.dim == 3


def test_subspace_requires_independent_columns():
    with pytest.raises(ShapeError):
        Subspace(F, 2, column_dicts(Matrix.from_rows(F, [[1, 2], [1, 2]])))


# -- solving --------------------------------------------------------------------

def test_solve_right_unsolvable():
    # X @ 0 = I has no solution; vec(X @ R) = kron(I, R^T) vec(X)
    zero = Matrix.zeros(F, 2, 2)
    rhs = Matrix(F, 4, 1, Matrix.identity(F, 2).data)
    assert kron(Matrix.identity(F, 2), transpose(zero)).solve_right(rhs) \
        is None


def test_solve_right_retraction_of_injective():
    inj = Matrix.from_rows(F, [[1, 0], [0, 1], [1, 1]])  # injective 3x2
    rhs = Matrix(F, 4, 1, Matrix.identity(F, 2).data)
    x = kron(Matrix.identity(F, 2), transpose(inj)).solve_right(rhs)
    assert x is not None
    assert matmul(Matrix(F, 2, 3, x.data), inj) == Matrix.identity(F, 2)


@given(st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_solve_consistency_matches_rank_test(seed):
    rng = random.Random(seed)
    a = rnd_matrix(rng, 3, 4)
    b = rnd_matrix(rng, 3, 1)
    sol = a.solve_right(b)
    assert (sol is not None) == (a.hstack(b).rank() == a.rank())
    if sol is not None:
        assert matmul(a, sol) == b


def test_inverse():
    m = Matrix.from_rows(F, [[2, 1], [1, 1]])
    inv = _inverse(F, 2, column_dicts(m))
    assert matmul(_dense_columns(F, 2, inv), m) == Matrix.identity(F, 2)
    assert _dense_columns(F, 2, inv) == inverse(m)
    assert _inverse(F, 2, columns(F, [[1, 1], [1, 1]])) is None
    assert _inverse(GF(7), 1, [{0: 3}]) == [{0: 5}]


# -- charts ----------------------------------------------------------------------

def test_chart_kron_coords_roundtrip():
    rng = random.Random(3)
    a = Chart.restrict(Chart.identity(F, 4),
                       Subspace(F, 4, column_dicts(rnd_matrix(rng, 4, 2)),
                                _canonical=False))
    b = Chart.restrict(Chart.identity(F, 3),
                       Subspace(F, 3, column_dicts(rnd_matrix(rng, 3, 2)),
                                _canonical=False))
    k = Chart.kron(a, b)
    x = rnd_matrix(rng, k.dim, 2)
    y = matmul(chart_embedding(k), x)
    z = k.coords(column_dicts(y))
    assert z is not None
    assert matmul(chart_embedding(k), _dense_columns(F, k.dim, z)) == y


def test_kron_chart_columns_are_built_on_demand():
    # restricting a kron chart and reading coordinates in it apply its
    # parts factor by factor; its own columns are built only when read
    rng = random.Random(5)
    a = Chart.restrict(Chart.identity(F, 3),
                       Subspace(F, 3, column_dicts(rnd_matrix(rng, 3, 2)),
                                _canonical=False))
    for b in (Chart.identity(F, 2), a):
        k = Chart.kron(a, b)
        dense = kron(chart_embedding(a), chart_embedding(b))
        sub = Subspace(F, k.dim, column_dicts(rnd_matrix(rng, k.dim, 2)),
                       _canonical=False)
        r = Chart.restrict(k, sub)
        assert k.coords(column_dicts(matmul(dense, sub.basis))) \
            == column_dicts(sub.basis)
        assert k._columns is None
        assert r.columns == column_dicts(matmul(dense, sub.basis))
        assert k.columns == column_dicts(dense)
        assert chart_embedding(k) == dense
        assert chart_embedding(r) == matmul(chart_embedding(k), sub.basis)


@pytest.mark.parametrize("p", [7, 3])
def test_stored_chart_columns_are_reduced(p):
    # the composed sums of a nested restriction reach p and 2p - 1: the
    # stored columns hold them reduced, and a sum = 0 mod p not at all
    field = GF(p)
    a = Chart.restrict(Chart.identity(field, 4), Subspace(
        field, 4, columns(field, [[1, 0], [0, 1], [1, 1], [1, 2]])))
    b = Chart.restrict(Chart.identity(field, 3), Subspace(
        field, 3, columns(field, [[1, 0], [0, 1], [1, 1]])))
    k = Chart.kron(b, Chart.identity(field, 2))
    for parent, column, reduced in (
            (a, [1, p - 1], {0: 1, 1: p - 1, 3: p - 1}),
            (k, [1, 0, p - 1, 0], {0: 1, 2: p - 1})):
        sub = Subspace(field, parent.dim,
                       columns(field, [[x] for x in column]))
        sums = parent._apply(sub.columns)[0]
        assert any(x >= p for x in sums.values())
        chart = Chart.restrict(parent, sub)
        assert chart.columns == [reduced] \
            == column_dicts(matmul(chart_embedding(parent), sub.basis))
        assert take_rows(chart_embedding(chart), chart.pivots) \
            == Matrix.identity(field, 1)


def test_coords_reject_rows_outside_the_ambient():
    # a sparse column with a row past the ambient fails, for charts and
    # subspaces alike
    sub = Subspace(F, 3, columns(F, [[1], [0], [2]]))
    k = Chart.kron(Chart.restrict(Chart.identity(F, 3), sub),
                   Chart.identity(F, 2))
    assert sub.coords([{0: 1, 2: 2}]) == [{0: 1}]
    assert k.coords([{0: 1, 4: 2}]) == [{0: 1}]
    for space, ambient in ((sub, 3), (k, 6)):
        with pytest.raises(ShapeError):
            space.coords([{0: 1}, {ambient: 1}])


def test_chart_rejects_outside_vectors():
    a = Chart.restrict(Chart.identity(F, 3),
                       Subspace(F, 3, columns(F, [[1], [0], [0]])))
    k = Chart.kron(a, Chart.identity(F, 2))
    outside = Matrix.from_rows(F, [[0], [0], [0], [1], [0], [0]])
    assert k.coords(column_dicts(outside)) is None


def nested_charts(field):
    """Charts as the constructions nest them: by hand, by ``comod.ct``, by
    ``indexed._pullback_obj`` and in the shape ``beck_maps`` builds."""
    rng = random.Random(field.char + 29)

    def sub(n, k):
        return Subspace(field, n,
                        column_dicts(rnd_entries(rng, field, n, k, 0.7)),
                        _canonical=False)

    a = Chart.restrict(Chart.identity(field, 4), sub(4, 2))
    b = Chart.restrict(Chart.identity(field, 3), sub(3, 2))
    k = Chart.kron(a, b)
    yield "kron(restrict, id)", Chart.kron(a, Chart.identity(field, 2))
    yield "restrict(kron(restrict, restrict))", Chart.restrict(k, sub(4, 3))
    g_ab = ca.grouplike_coalgebra(field, ["a", "b"])
    u, v, w = (cm.atom(cm.graded_comodule(g_ab, d))
               for d in ([1, 2], [2, 1], [1, 1]))
    uvw = cm.ct(cm.ct(u, v), w)
    yield "ct(ct(a, b), c)", uvw.chart
    g_xyz = ca.grouplike_coalgebra(field, ["x", "y", "z"])
    phi = ca.grouplike_morphism(g_xyz, g_ab, {"x": "a", "y": "a", "z": "b"})
    yield "pullback of ct(ct(a, b), c)", ix._pullback_obj(
        phi, uvw, ix.pullback_functor(phi, uvw.module)).chart
    g_pq = ca.grouplike_coalgebra(field, ["p", "q"])
    square = ix.PullbackSquare.from_cospan(
        ca.grouplike_morphism(g_xyz, g_ab, {"x": "a", "y": "b", "z": "b"}),
        ca.grouplike_morphism(g_pq, g_ab, {"p": "a", "q": "b"}))
    yield "kron(id, restrict(id))", Chart.kron(
        Chart.identity(field, 3),
        Chart.restrict(Chart.identity(field, 6), square.cotensor))


FIELDS = pytest.mark.parametrize("field", [QQ, GF(7), GF(3)],
                                 ids=["Q", "GF7", "GF3"])


@FIELDS
def test_chart_embedding_is_the_identity_at_its_pivots(field):
    for name, chart in nested_charts(field):
        assert chart.dim < chart.flat_dim, name
        assert take_rows(chart_embedding(chart), chart.pivots) \
            == Matrix.identity(field, chart.dim), name


@FIELDS
def test_chart_coords_agree_with_solving(field):
    rng = random.Random(field.char + 31)
    for name, chart in nested_charts(field):
        for cols in (1, 3):
            x = rnd_entries(rng, field, chart.dim, cols)
            y = matmul(chart_embedding(chart), x)
            assert chart.coords(column_dicts(y)) == column_dicts(
                chart_embedding(chart).solve_right(y)) == column_dicts(x), \
                name


@FIELDS
def test_chart_rejects_a_member_changed_off_its_pivots(field):
    # x = y[pivots] for every member y = E x, so a vector that keeps a
    # member's pivot rows and differs in one other row is outside the
    # subspace: only the membership equation E x = y tells them apart
    rng = random.Random(field.char + 37)
    for name, chart in nested_charts(field):
        y = matmul(chart_embedding(chart),
                   rnd_entries(rng, field, chart.dim, 2))
        row = rng.choice(sorted(set(range(chart.flat_dim))
                                - set(chart.pivots)))
        data = list(y.data)
        data[row * 2 + 1] = field.add(data[row * 2 + 1], 1)
        outside = Matrix(field, y.rows, 2, data)
        assert take_rows(outside, chart.pivots) \
            == take_rows(y, chart.pivots)
        assert chart.coords(column_dicts(outside)) is None, name
        assert chart_embedding(chart).solve_right(outside) is None, name


# -- sympy reference ---------------------------------------------------------------

def rnd_sparse(rng, field):
    rows, cols = rng.randint(1, 12), rng.randint(1, 12)
    density = rng.uniform(0.1, 0.4)
    p = field.char
    data = []
    for _ in range(rows * cols):
        if rng.random() >= density:
            data.append(0)
        elif p:
            data.append(rng.randint(1, p - 1))
        else:
            data.append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                 rng.randint(1, 4)))
    return Matrix(field, rows, cols, data)


def to_sympy(m):
    from sympy.polys.domains import GF as SymGF, QQ as SymQQ
    from sympy.polys.matrices import DomainMatrix

    p = m.field.char
    dom = SymGF(p) if p else SymQQ
    if p:
        entries = [dom(x) for x in m.data]
    else:
        entries = [dom(x.numerator, x.denominator)
                   for x in map(Fraction, m.data)]
    return DomainMatrix([entries[i * m.cols:(i + 1) * m.cols]
                         for i in range(m.rows)], (m.rows, m.cols), dom)


def from_sympy(dm, p):
    if p:
        return [int(x) % p for row in dm.to_list() for x in row]
    return [Fraction(int(x.numerator), int(x.denominator))
            for row in dm.to_list() for x in row]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7), GF(101)],
                         ids=["Q", "GF2", "GF7", "GF101"])
def test_rank_rref_kernel_match_sympy(field):
    pytest.importorskip("sympy")
    p = field.char
    rng = random.Random(p)
    for _ in range(40):
        m = rnd_sparse(rng, field)
        ref = to_sympy(m)
        assert m.rank() == ref.rank()
        rref, pivots = m.rref()
        ref_rref, ref_pivots = ref.rref()
        assert tuple(pivots) == tuple(ref_pivots)
        assert list(rref.data) == from_sympy(ref_rref, p)
        # the kernel basis is canonical: its transpose is the rref of
        # any spanning set, here sympy's own null space basis
        ker = m.kernel()
        null = ref.nullspace()
        assert ker.dim == null.shape[0] == m.cols - ref.rank()
        if ker.dim:
            null_rref, _ = null.rref()
            assert transpose(ker.basis).data == from_sympy(null_rref, p)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(3)],
                         ids=["Q", "F7", "F3"])
def test_rref_rows_clears_dense_fill_above_the_pivots(field):
    # rows mixed from an echelon form that is dense past each pivot: the
    # forward pass leaves rows that hold several later pivot columns, so
    # the backward pass subtracts several reduced rows from each; the
    # result is sympy's rref
    pytest.importorskip("sympy")
    p = field.char
    rng = random.Random(f"dense fill {p}")
    unit = (1, 2, -1, -2)
    held = 0
    for rank, cols in ((5, 5), (7, 11), (10, 16), (12, 12)):
        pivots = sorted(rng.sample(range(cols), rank))
        upper = [{c: field.of(rng.choice(unit)),
                  **{j: field.of(rng.choice(unit + (3, -5)))
                     for j in range(c + 1, cols)}} for c in pivots]
        rows = []
        for _ in range(rank + 2):
            row = {}
            for u in rng.sample(upper, rng.randint(1, rank)):
                x = rng.choice(unit)
                for j, y in u.items():
                    row[j] = row.get(j, 0) + x * y
            rows.append(row)
        rows += upper[::-1]
        echelon, forward = (_core_py._forward_mod(rows, cols, p) if p
                            else _core_py._bareiss_rows(rows, cols))
        at = set(forward)
        held = max(held, *(len(at.intersection(row)) - 1
                           for row in echelon))
        reduced, got = _core_py.rref_rows(rows, cols, p)
        m = Matrix(field, len(rows), cols, [field.of(row.get(j, 0))
                                            for row in rows
                                            for j in range(cols)])
        ref_rref, ref_pivots = to_sympy(m).rref()
        assert got == list(ref_pivots) == pivots
        assert _core_py._dense(reduced, len(rows), cols) \
            == from_sympy(ref_rref, p)
        assert all(x and (not p or 0 < x < p)
                   for row in reduced for x in row.values())
    assert held >= 4


def gauss_jordan(m):
    """Reduced row echelon form and pivots by naive dense Gauss-Jordan in
    the field's own arithmetic: Fractions over Q, inverses mod p."""
    f, rows, cols = m.field, m.rows, m.cols
    work = [list(m.data[i * cols:(i + 1) * cols]) for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = f.inv(work[r][c])
        work[r] = [f.mul(inv, x) for x in work[r]]
        for i in range(rows):
            if i != r and work[i][c]:
                coef = work[i][c]
                work[i] = [f.sub(x, f.mul(coef, y))
                           for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return [x for row in work for x in row], pivots


def test_bareiss_agrees_with_fraction_elimination():
    rng = random.Random(2)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rnd_matrix(rng, rows, cols, lo=-6, hi=6)
        # pivots and rank from the kernel must match naive Fraction Gauss
        _, piv_cols = gauss_jordan(
            Matrix(F, rows, cols, [Fraction(x) for x in m.data]))
        _, pivots = _core_py.bareiss_echelon(list(m.data), rows, cols)
        assert pivots == piv_cols


# -- differential tests of the elimination kernels -------------------------------

def _denominators(p):
    return [d for d in (1, 2, 3, 4, 5, 6, 9, 10) if not p or d % p]


def kernel_cases(field, seed):
    """Matrices of every shape the kernels see: tall and sparse 0/+-1
    (the is_injective systems), dense with entries up to +-1000, rows
    with different denominators, zero rows and columns, and empty."""
    rng = random.Random(seed)

    def make(rows, cols, entry):
        return Matrix(field, rows, cols,
                      [field.of(entry()) for _ in range(rows * cols)])

    def sparse_unit(density):
        return lambda: rng.choice((1, -1)) if rng.random() < density else 0

    dens = _denominators(field.char)
    cases = [make(rows, cols, sparse_unit(0.02))
             for rows, cols in ((272, 65), (160, 40), (96, 24), (65, 65))]
    cases += [make(rows, cols, sparse_unit(0.3))
              for rows, cols in ((30, 10), (12, 12), (8, 20))]
    cases += [make(rows, cols, lambda: rng.randint(-1000, 1000))
              for rows, cols in ((10, 10), (12, 7), (6, 11), (9, 9))]
    cases += [make(rows, cols,
                   lambda: Fraction(rng.randint(-9, 9), rng.choice(dens))
                   if rng.random() < 0.6 else 0)
              for rows, cols in ((8, 8), (10, 6), (5, 9))]
    for rows, cols in ((9, 7), (6, 10)):
        m = make(rows, cols, lambda: rng.randint(-5, 5))
        zero_rows = set(rng.sample(range(rows), 3))
        zero_cols = set(rng.sample(range(cols), 2))
        cases.append(Matrix(field, rows, cols, [
            0 if i in zero_rows or j in zero_cols else m[i, j]
            for i in range(rows) for j in range(cols)]))
    cases += [Matrix.zeros(field, 5, 4), Matrix.zeros(field, 0, 0)]
    cases += [make(rows, cols, lambda: rng.randint(-3, 3))
              for rows, cols in ((0, 4), (4, 0), (0, 1), (1, 0))]
    return cases


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7), GF(101)],
                         ids=["Q", "GF2", "GF7", "GF101"])
def test_kernels_match_sympy_and_gauss_jordan(field):
    pytest.importorskip("sympy")
    p = field.char
    rng = random.Random(p + 5)
    for m in kernel_cases(field, p + 1):
        rows, cols = m.rows, m.cols
        ref_rref, ref_pivots = gauss_jordan(m)
        rank = len(ref_pivots)
        rref, pivots = m.rref()
        assert m.rank() == rank and pivots == ref_pivots
        assert rref.data == ref_rref
        if rows and cols:
            ref = to_sympy(m)
            assert ref.rank() == rank
            sym_rref, sym_pivots = ref.rref()
            assert tuple(sym_pivots) == tuple(pivots)
            assert rref.data == from_sympy(sym_rref, p)
        # kernel: the free-variable basis read off the rref, in the
        # canonical form (its transpose reduced) every Subspace keeps
        ker = m.kernel()
        assert ker.dim == cols - rank
        assert matmul(m, ker.basis).is_zero()
        free = [j for j in range(cols) if j not in pivots]
        basis_rows = []
        for fc in free:
            row = [0] * cols
            row[fc] = 1
            for r, pc in enumerate(pivots):
                row[pc] = field.neg(ref_rref[r * cols + fc])
            basis_rows += row
        canonical, _ = gauss_jordan(
            Matrix(field, len(free), cols, basis_rows))
        assert transpose(ker.basis).data == canonical
        # solve_right: the solution with free variables 0, or None
        x = Matrix(field, cols, 2,
                   [field.of(rng.randint(-4, 4)) for _ in range(cols * 2)])
        consistent = matmul(m, x)
        noise = Matrix(field, rows, 2,
                       [field.of(rng.randint(-4, 4)) for _ in range(rows * 2)])
        for b in (consistent, noise):
            aug_rref, aug_pivots = gauss_jordan(m.hstack(b))
            sol = m.solve_right(b)
            if aug_pivots and aug_pivots[-1] >= cols:
                assert sol is None
                continue
            assert sol is not None and matmul(m, sol) == b
            want = [0] * (cols * 2)
            for r, pc in enumerate(aug_pivots):
                for k in range(2):
                    want[pc * 2 + k] = aug_rref[r * (cols + 2) + cols + k]
            assert sol.data == want


def test_echelon_kernels_return_an_echelon_form_of_the_rows():
    for field in (QQ, GF(7)):
        for m in kernel_cases(field, 3):
            rows, cols = m.rows, m.cols
            if field.char:
                data, pivots = _core_py.rref_mod(m.data, rows, cols, 7)
            else:
                data, pivots = _core_py.bareiss_echelon(m.data, rows, cols)
                assert all(type(x) is int for x in data)
            ech = Matrix(field, rows, cols, data)
            # leading entries at the pivots, zero rows below
            for r in range(rows):
                row = data[r * cols:(r + 1) * cols]
                lead = next((j for j, x in enumerate(row) if x), None)
                assert lead == (pivots[r] if r < len(pivots) else None)
            # the same row space: stacking adds no rank
            assert ech.rank() == m.rank() == m.vstack(ech).rank()


def test_sparse_echelon_entries_stay_within_the_hadamard_bound():
    # each echelon row is the primitive row of a Gauss step, which divides
    # the row of minors Bareiss would hold for the same pivot rows, so no
    # entry outgrows Hadamard's bound on those minors
    rng = random.Random(5)
    for n in (6, 10, 14, 20):
        data = [rng.randint(-1000, 1000) for _ in range(n * n)]
        ech, pivots = _core_py.bareiss_echelon(data, n, n)
        assert pivots == list(range(n))
        longest = max(abs(x).bit_length() for x in ech)
        bound = sum((sum(x * x for x in data[i * n:(i + 1) * n])
                     .bit_length() + 1) // 2 for i in range(n))
        assert longest <= bound
