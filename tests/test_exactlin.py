import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comodcheck import _core_py
from comodcheck.exactlin import (Chart, Matrix, ShapeError, Subspace,
                                 kron_apply, swap_matrix)
from comodcheck.fields import GF, QQ

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
    assert (m @ k.basis).is_zero()
    assert k.coords(Matrix.from_rows(F, [[1], [-1]])) is not None


@given(st.integers(0, 40))
@settings(max_examples=30, deadline=None)
def test_rank_nullity(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(0, 5), rng.randint(0, 5)
    m = rnd_matrix(rng, rows, cols)
    assert m.rank() + m.kernel().dim == cols
    assert (m @ m.kernel().basis).is_zero()


def test_kernel_over_fp():
    p = GF(7)
    m = Matrix.from_rows(p, [[1, 1], [2, 2]])
    k = m.kernel()
    assert k.dim == 1 and (m @ k.basis).is_zero()


# -- kron ----------------------------------------------------------------------

def test_kron_identities():
    assert Matrix.identity(F, 2).kron(Matrix.identity(F, 3)) \
        == Matrix.identity(F, 6)


def test_kron_shape_law():
    a = Matrix.zeros(F, 2, 3)
    b = Matrix.zeros(F, 4, 5)
    k = a.kron(b)
    assert (k.rows, k.cols) == (8, 15)


def test_kron_mixed_product_law():
    rng = random.Random(0)
    for _ in range(10):
        a, b, c, d = (rnd_matrix(rng, 2, 2) for _ in range(4))
        assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


def test_kron_associativity_on_flat_indices():
    rng = random.Random(1)
    a, b, c = rnd_matrix(rng, 2, 2), rnd_matrix(rng, 3, 2), \
        rnd_matrix(rng, 2, 3)
    assert a.kron(b).kron(c) == a.kron(b.kron(c))


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
        assert kron_apply(a, b, x) == built_a.kron(built_b) @ x


def test_kron_apply_rejects_mismatched_operands():
    rng = random.Random(2)
    a, b = rnd_matrix(rng, 2, 3), rnd_matrix(rng, 2, 2)
    with pytest.raises(ShapeError):
        kron_apply(a, b, rnd_matrix(rng, 5, 1))
    with pytest.raises(ShapeError):
        kron_apply(3, b, rnd_matrix(rng, 7, 2))
    with pytest.raises(ShapeError):
        kron_apply(a, 2, Matrix.zeros(GF(7), 6, 1))


def test_transpose_is_an_involution_on_every_shape():
    rng = random.Random(4)
    for rows, cols in [(0, 3), (3, 0), (1, 4), (4, 1), (3, 5)]:
        m = rnd_matrix(rng, rows, cols)
        t = m.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert all(t[j, i] == m[i, j]
                   for i in range(rows) for j in range(cols))
        assert t.transpose() == m


def test_swap_matrix_inverse_pair():
    s = swap_matrix(F, 2, 3)
    assert swap_matrix(F, 3, 2) @ s == Matrix.identity(F, 6)


# -- subspaces ------------------------------------------------------------------

def test_annihilator_cuts_exactly():
    w = Subspace(F, 4, Matrix.from_rows(F, [[1, 0], [2, 1], [0, 0], [1, 3]]))
    q = w.annihilator()
    assert (q @ w.basis).is_zero()
    assert q.kernel() == w


def test_subspace_coords_reads_pivots():
    w = Subspace(F, 3, Matrix.from_rows(F, [[1, 1], [0, 2], [1, 0]]))
    y = w.basis @ Matrix.from_rows(F, [[Fraction(1, 2)], [3]])
    c = w.coords(y)
    assert c is not None and w.basis @ c == y
    assert w.coords(Matrix.from_rows(F, [[1], [0], [0]])) is None \
        or w.dim == 3


def test_subspace_requires_independent_columns():
    with pytest.raises(ShapeError):
        Subspace(F, 2, Matrix.from_rows(F, [[1, 2], [1, 2]]))


# -- solving --------------------------------------------------------------------

def test_solve_right_unsolvable():
    # X @ 0 = I has no solution; vec(X @ R) = kron(I, R^T) vec(X)
    zero = Matrix.zeros(F, 2, 2)
    rhs = Matrix(F, 4, 1, Matrix.identity(F, 2).data)
    assert Matrix.identity(F, 2).kron(zero.transpose()).solve_right(rhs) \
        is None


def test_solve_right_retraction_of_injective():
    inj = Matrix.from_rows(F, [[1, 0], [0, 1], [1, 1]])  # injective 3x2
    rhs = Matrix(F, 4, 1, Matrix.identity(F, 2).data)
    x = Matrix.identity(F, 2).kron(inj.transpose()).solve_right(rhs)
    assert x is not None
    assert Matrix(F, 2, 3, x.data) @ inj == Matrix.identity(F, 2)


@given(st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_solve_consistency_matches_rank_test(seed):
    rng = random.Random(seed)
    a = rnd_matrix(rng, 3, 4)
    b = rnd_matrix(rng, 3, 1)
    sol = a.solve_right(b)
    assert (sol is not None) == (a.hstack(b).rank() == a.rank())
    if sol is not None:
        assert a @ sol == b


def test_inverse():
    m = Matrix.from_rows(F, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert inv @ m == Matrix.identity(F, 2)
    assert Matrix.from_rows(F, [[1, 1], [1, 1]]).inverse() is None
    assert Matrix.from_rows(GF(7), [[3]]).inverse() \
        == Matrix.from_rows(GF(7), [[5]])


# -- charts ----------------------------------------------------------------------

def test_chart_kron_coords_roundtrip():
    rng = random.Random(3)
    a = Chart.restrict(Chart.identity(F, 4),
                       Subspace(F, 4, rnd_matrix(rng, 4, 2),
                                _canonical=False))
    b = Chart.restrict(Chart.identity(F, 3),
                       Subspace(F, 3, rnd_matrix(rng, 3, 2),
                                _canonical=False))
    k = Chart.kron(a, b)
    x = rnd_matrix(rng, k.dim, 2)
    y = k.embedding @ x
    z = k.coords(y)
    assert z is not None and k.embedding @ z == y


def test_kron_chart_embedding_is_built_on_demand():
    rng = random.Random(5)
    a = Chart.restrict(Chart.identity(F, 3),
                       Subspace(F, 3, rnd_matrix(rng, 3, 2),
                                _canonical=False))
    for b in (Chart.identity(F, 2), a):
        k = Chart.kron(a, b)
        assert k._embedding is None
        assert k.embedding == a.embedding.kron(b.embedding)
        sub = Subspace(F, k.dim, rnd_matrix(rng, k.dim, 2),
                       _canonical=False)
        assert Chart.restrict(k, sub).embedding == k.embedding @ sub.basis


def test_chart_rejects_outside_vectors():
    a = Chart.restrict(Chart.identity(F, 3),
                       Subspace(F, 3, Matrix.from_rows(F, [[1], [0], [0]])))
    k = Chart.kron(a, Chart.identity(F, 2))
    outside = Matrix.from_rows(F, [[0], [0], [0], [1], [0], [0]])
    assert k.coords(outside) is None


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


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7), GF(101)],
                         ids=["Q", "GF2", "GF7", "GF101"])
def test_rank_rref_kernel_match_sympy(field):
    pytest.importorskip("sympy")
    from sympy.polys.domains import GF as SymGF, QQ as SymQQ
    from sympy.polys.matrices import DomainMatrix

    p = field.char
    dom = SymGF(p) if p else SymQQ

    def to_sympy(m):
        if p:
            entries = [dom(x) for x in m.data]
        else:
            entries = [dom(x.numerator, x.denominator)
                       for x in map(Fraction, m.data)]
        return DomainMatrix([entries[i * m.cols:(i + 1) * m.cols]
                             for i in range(m.rows)], (m.rows, m.cols), dom)

    def from_sympy(dm):
        if p:
            return [int(x) % p for row in dm.to_list() for x in row]
        return [Fraction(int(x.numerator), int(x.denominator))
                for row in dm.to_list() for x in row]

    rng = random.Random(p)
    for _ in range(40):
        m = rnd_sparse(rng, field)
        ref = to_sympy(m)
        assert m.rank() == ref.rank()
        rref, pivots = m.rref()
        ref_rref, ref_pivots = ref.rref()
        assert tuple(pivots) == tuple(ref_pivots)
        assert list(rref.data) == from_sympy(ref_rref)
        # the kernel basis is canonical: its transpose is the rref of
        # any spanning set, here sympy's own null space basis
        ker = m.kernel()
        null = ref.nullspace()
        assert ker.dim == null.shape[0] == m.cols - ref.rank()
        if ker.dim:
            null_rref, _ = null.rref()
            assert list(ker.basis.transpose().data) == from_sympy(null_rref)


def test_bareiss_agrees_with_fraction_elimination():
    rng = random.Random(2)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rnd_matrix(rng, rows, cols, lo=-6, hi=6)
        # pivots and rank from Bareiss must match naive Fraction Gauss
        data = [Fraction(x) for x in m.data]
        rank = 0
        work = [data[i * cols:(i + 1) * cols] for i in range(rows)]
        piv_cols = []
        r = 0
        for c in range(cols):
            pr = next((i for i in range(r, rows) if work[i][c]), None)
            if pr is None:
                continue
            work[r], work[pr] = work[pr], work[r]
            for i in range(r + 1, rows):
                if work[i][c]:
                    coef = work[i][c] / work[r][c]
                    work[i] = [x - coef * y
                               for x, y in zip(work[i], work[r])]
            piv_cols.append(c)
            r += 1
        rank = r
        _, pivots = _core_py.bareiss_echelon(list(m.data), rows, cols)
        assert pivots == piv_cols and len(pivots) == rank
