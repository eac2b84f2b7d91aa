"""Finite-dimensional cocommutative coalgebras and their morphisms.

A coalgebra is stored by structure constants: ``delta`` is the n^2 x n
matrix whose column i is the comultiplication of the i-th basis vector in
the fixed tensor basis, and ``epsilon`` is the 1 x n counit row.  All
defining axioms (coassociativity, counit laws, cocommutativity) are
checked exactly at construction and violations raise ``AxiomError`` naming
the broken law; everything downstream may therefore assume valid data.

The category operations implemented here follow the classical recipe: the
product of cocommutative coalgebras lives on the tensor product with
comultiplication (id (x) swap (x) id)(delta1 (x) delta2); equalizers are
the largest subcoalgebra inside ker(f - g), computed by iterating the
refinement W -> {x in W : delta(x) in W (x) W} to its fixpoint; pullbacks
are equalizers out of products.  Cosemisimplicity is decided through the
dual algebra: in characteristic zero its Jacobson radical is the kernel of
the trace form of left multiplication, so the coalgebra is cosemisimple
exactly when that Gram matrix has full rank.
"""

from __future__ import annotations

from .errors import AxiomError, BaseMismatchError, UnsupportedBaseError
from .exactlin import Matrix, ShapeError, Subspace, swap_matrix
from .fields import Field

__all__ = [
    "Coalgebra", "CoalgebraMorphism", "trivial_coalgebra",
    "grouplike_coalgebra", "grouplike_morphism", "direct_sum", "product",
    "pairing", "counit_morphism", "largest_subcoalgebra_in", "equalizer",
    "equalizer_factor", "pullback", "pullback_mediate", "is_cosemisimple",
    "grouplike_labels",
]


def _column_dicts(m: Matrix):
    """Sparse view: one {row: value} dict per column, in one data pass."""
    cols = [dict() for _ in range(m.cols)]
    c = m.cols
    for idx, v in enumerate(m.data):
        if v:
            cols[idx % c][idx // c] = v
    return cols


def _add_into(acc: dict, key, value, p: int):
    """Add a nonzero ``value`` at ``key``, reducing mod ``p`` when ``p`` is
    nonzero and dropping zero sums, so equal maps give equal dicts."""
    cur = acc.get(key)
    if cur is None:
        acc[key] = value
    else:
        cur = cur + value
        if p:
            cur %= p
        if cur:
            acc[key] = cur
        else:
            del acc[key]


class Coalgebra:
    """Cocommutative coalgebra given by exact structure constants.

    The defining axioms are verified sparsely at construction (structure
    matrices of the coalgebras arising here are overwhelmingly zero, and
    the dense triple products would be cubic in the dimension).
    """

    __slots__ = ("field", "dim", "delta", "epsilon", "labels",
                 "cosemisimple_hint", "_delta_cols")

    def __init__(self, field: Field, dim: int, delta: Matrix,
                 epsilon: Matrix, labels=None, cosemisimple_hint=None):
        n = dim
        if delta.rows != n * n or delta.cols != n:
            raise ShapeError(f"delta must be {n * n}x{n}")
        if epsilon.rows != 1 or epsilon.cols != n:
            raise ShapeError(f"epsilon must be 1x{n}")
        if labels is not None and len(labels) != n:
            raise ShapeError("label count must match the dimension")
        dcols = _column_dicts(delta)
        eps = epsilon.data
        p = field.char
        for j in range(n):
            col = dcols[j]
            # cocommutativity: the column is symmetric under (a,b) -> (b,a)
            for idx, v in col.items():
                a, b = divmod(idx, n)
                if col.get(b * n + a) != v:
                    raise AxiomError("cocommutativity",
                                     "tau delta != delta", witness=(idx, j))
            # counit: (eps x id) delta = id = (id x eps) delta
            left = {}
            right = {}
            for idx, v in col.items():
                a, b = divmod(idx, n)
                if eps[a]:
                    _add_into(left, b, field.mul(eps[a], v), p)
                if eps[b]:
                    _add_into(right, a, field.mul(v, eps[b]), p)
            if left != {j: field.one} or right != {j: field.one}:
                raise AxiomError(
                    "counit",
                    "(eps x id) delta != id or (id x eps) delta != id",
                    witness=(j, j))
            # coassociativity: (delta x id) delta = (id x delta) delta
            lhs = {}
            rhs = {}
            for idx, v in col.items():
                a, b = divmod(idx, n)
                for idx2, v2 in dcols[a].items():
                    x, y = divmod(idx2, n)
                    _add_into(lhs, (x, y, b), field.mul(v2, v), p)
                for idx2, v2 in dcols[b].items():
                    x, y = divmod(idx2, n)
                    _add_into(rhs, (a, x, y), field.mul(v, v2), p)
            if lhs != rhs:
                key = min(set(lhs) ^ set(rhs)
                          | {k for k in lhs if rhs.get(k) != lhs[k]})
                raise AxiomError("coassociativity",
                                 "(delta x id) delta != (id x delta) delta",
                                 witness=(key, j))
        self.field = field
        self.dim = n
        self.delta = delta
        self.epsilon = epsilon
        self.labels = tuple(labels) if labels is not None else None
        self.cosemisimple_hint = cosemisimple_hint
        self._delta_cols = dcols

    def is_grouplike(self) -> bool:
        """True when every standard basis vector is group-like."""
        n = self.dim
        for i in range(n):
            if self.epsilon[0, i] != 1:
                return False
            diag = i * n + i
            for r in range(n * n):
                want = 1 if r == diag else 0
                if self.delta[r, i] != want:
                    return False
        return True

    def identity_morphism(self) -> "CoalgebraMorphism":
        return CoalgebraMorphism(self, self, Matrix.identity(self.field,
                                                             self.dim))

    def __eq__(self, other):
        return (isinstance(other, Coalgebra) and other.field == self.field
                and other.dim == self.dim and other.delta == self.delta
                and other.epsilon == self.epsilon)

    def __repr__(self):
        tag = f" on {list(self.labels)}" if self.labels else ""
        return f"Coalgebra(dim {self.dim} over {self.field!r}{tag})"


class CoalgebraMorphism:
    """Linear map preserving comultiplication and counit.

    ``u_coflat`` holds whether U(phi) is coflat: None until
    ``indexed.forall_data`` first decides it, so each morphism object runs
    the splitting solve at most once.
    """

    __slots__ = ("source", "target", "matrix", "u_coflat")

    def __init__(self, source: Coalgebra, target: Coalgebra, matrix: Matrix):
        if source.field != target.field:
            raise BaseMismatchError("source and target over different fields")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ShapeError(
                f"matrix must be {target.dim}x{source.dim}")
        field = source.field
        p = field.char
        nt = target.dim
        fcols = _column_dicts(matrix)
        tcols = target._delta_cols
        scols = source._delta_cols
        for j in range(source.dim):
            lhs = {}
            for r, v in fcols[j].items():
                for idx, v2 in tcols[r].items():
                    _add_into(lhs, idx, field.mul(v2, v), p)
            rhs = {}
            for idx, v in scols[j].items():
                a, b = divmod(idx, source.dim)
                for x, va in fcols[a].items():
                    coef = field.mul(va, v)
                    for y, vb in fcols[b].items():
                        _add_into(rhs, x * nt + y, field.mul(coef, vb), p)
            if lhs != rhs:
                key = min(set(lhs) ^ set(rhs)
                          | {k for k in lhs if rhs.get(k) != lhs[k]})
                raise AxiomError("comultiplication-preservation",
                                 "delta_target f != (f x f) delta_source",
                                 witness=(key, j))
        if target.epsilon @ matrix != source.epsilon:
            raise AxiomError("counit-preservation",
                             "eps_target f != eps_source")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.u_coflat = None

    def __matmul__(self, other: "CoalgebraMorphism") -> "CoalgebraMorphism":
        if other.target != self.source:
            raise BaseMismatchError("morphisms do not compose")
        return CoalgebraMorphism(other.source, self.target,
                                 self.matrix @ other.matrix)

    def is_isomorphism(self) -> bool:
        return self.matrix.is_invertible()

    def __eq__(self, other):
        return (isinstance(other, CoalgebraMorphism)
                and other.source == self.source
                and other.target == self.target
                and other.matrix == self.matrix)

    def __repr__(self):
        return (f"CoalgebraMorphism({self.source.dim} -> {self.target.dim})")


# -- constructors ----------------------------------------------------------

def trivial_coalgebra(field: Field) -> Coalgebra:
    """The one-dimensional coalgebra with delta(1) = 1 x 1, eps = id."""
    one = Matrix.from_rows(field, [[1]])
    return Coalgebra(field, 1, one, one, labels=("*",),
                     cosemisimple_hint=True)


def grouplike_coalgebra(field: Field, labels) -> Coalgebra:
    """Coalgebra with a basis of group-likes indexed by the given labels."""
    labels = tuple(labels)
    if not labels:
        raise ShapeError("label set must be nonempty")
    if len(set(labels)) != len(labels):
        raise ShapeError("duplicate labels")
    n = len(labels)
    delta = Matrix.zeros(field, n * n, n).data
    for i in range(n):
        delta[(i * n + i) * n + i] = 1
    eps = Matrix(field, 1, n, [1] * n)
    return Coalgebra(field, n, Matrix(field, n * n, n, delta), eps,
                     labels=labels, cosemisimple_hint=True)


def grouplike_morphism(source: Coalgebra, target: Coalgebra,
                       mapping) -> CoalgebraMorphism:
    """Morphism of group-like coalgebras induced by a map of label sets."""
    if source.labels is None or target.labels is None:
        raise UnsupportedBaseError("both coalgebras need labels")
    tgt_index = {x: i for i, x in enumerate(target.labels)}
    data = [0] * (target.dim * source.dim)
    for j, x in enumerate(source.labels):
        if x not in mapping:
            raise ShapeError(f"label {x!r} has no image")
        y = mapping[x]
        if y not in tgt_index:
            raise ShapeError(f"image label {y!r} not in target")
        data[tgt_index[y] * source.dim + j] = 1
    return CoalgebraMorphism(source, target,
                             Matrix(source.field, target.dim, source.dim,
                                    data))


def counit_morphism(c: Coalgebra) -> CoalgebraMorphism:
    """The unique morphism into the trivial coalgebra (terminal object)."""
    return CoalgebraMorphism(c, trivial_coalgebra(c.field), c.epsilon)


def _sum_labels(c1: Coalgebra, c2: Coalgebra):
    if c1.labels is None or c2.labels is None:
        return None
    if set(c1.labels) & set(c2.labels):
        return tuple(("L", x) for x in c1.labels) + \
            tuple(("R", x) for x in c2.labels)
    return c1.labels + c2.labels


def direct_sum(c1: Coalgebra, c2: Coalgebra) -> Coalgebra:
    """Block-diagonal coalgebra on the concatenated basis."""
    if c1.field != c2.field:
        raise BaseMismatchError("direct sum needs a common field")
    f = c1.field
    n1, n2, n = c1.dim, c2.dim, c1.dim + c2.dim
    i1 = Matrix(f, n, n1, [1 if r == j else 0
                           for r in range(n) for j in range(n1)])
    i2 = Matrix(f, n, n2, [1 if r == n1 + j else 0
                           for r in range(n) for j in range(n2)])
    delta_cols = (i1.kron(i1) @ c1.delta).hstack(i2.kron(i2) @ c2.delta)
    # reorder columns to the concatenated basis: they already are
    eps = c1.epsilon.hstack(c2.epsilon)
    hint = True if (c1.cosemisimple_hint and c2.cosemisimple_hint) else None
    return Coalgebra(f, n, delta_cols, eps, labels=_sum_labels(c1, c2),
                     cosemisimple_hint=hint)


def product(c1: Coalgebra, c2: Coalgebra):
    """Categorical product: (C1 (x) C2, (id x tau x id)(delta1 x delta2)).

    Returns the product with its two projections id (x) eps2 and
    eps1 (x) id.
    """
    if c1.field != c2.field:
        raise BaseMismatchError("product needs a common field")
    f = c1.field
    n1, n2 = c1.dim, c2.dim
    mid = Matrix.identity(f, n1).kron(
        swap_matrix(f, n1, n2).kron(Matrix.identity(f, n2)))
    delta = mid @ c1.delta.kron(c2.delta)
    eps = c1.epsilon.kron(c2.epsilon)
    labels = None
    if c1.labels is not None and c2.labels is not None:
        labels = tuple((x, y) for x in c1.labels for y in c2.labels)
    hint = True if (c1.cosemisimple_hint and c2.cosemisimple_hint) else None
    prod = Coalgebra(f, n1 * n2, delta, eps, labels=labels,
                     cosemisimple_hint=hint)
    p1 = CoalgebraMorphism(prod, c1,
                           Matrix.identity(f, n1).kron(c2.epsilon))
    p2 = CoalgebraMorphism(prod, c2,
                           c1.epsilon.kron(Matrix.identity(f, n2)))
    return prod, p1, p2


def pairing(f: CoalgebraMorphism, g: CoalgebraMorphism,
            prod: Coalgebra | None = None) -> CoalgebraMorphism:
    """The mediating morphism <f, g> = (f (x) g) delta into the product."""
    if f.source != g.source:
        raise BaseMismatchError("pairing needs a common source")
    if prod is None:
        prod = product(f.target, g.target)[0]
    mat = f.matrix.kron(g.matrix) @ f.source.delta
    return CoalgebraMorphism(f.source, prod, mat)


# -- subcoalgebras, equalizers, pullbacks -----------------------------------

def _sub_labels(parent: Coalgebra, basis: Matrix):
    """Labels for a subcoalgebra whose basis consists of basis vectors."""
    if parent.labels is None:
        return None
    picked = []
    for j in range(basis.cols):
        col = basis.column(j).data
        ones = [i for i, x in enumerate(col) if x == 1]
        if len(ones) != 1 or any(x not in (0, 1) for x in col):
            return None
        picked.append(parent.labels[ones[0]])
    return tuple(picked)


def largest_subcoalgebra_in(c: Coalgebra, w: Subspace):
    """Largest subcoalgebra of c contained in the subspace w.

    Iterates the refinement W -> {x in W : delta(x) in W (x) W}, a kernel
    computation per step using the identity (W x C) cap (C x W) = W x W
    over a field; strictly dimension-decreasing, hence terminating.
    Returns the induced coalgebra with its inclusion.
    """
    if w.ambient != c.dim:
        raise ShapeError("subspace does not live in the coalgebra")
    f = c.field
    ident = Matrix.identity(f, c.dim)
    while True:
        if w.dim == 0:
            break
        # delta(x) in W (x) W == (W (x) C) cap (C (x) W), cut out by the
        # structured annihilators ann(W) (x) id and id (x) ann(W)
        q = w.annihilator()
        cond = q.kron(ident).vstack(ident.kron(q)) @ c.delta @ w.basis
        coords = cond.kernel()
        if coords.dim == w.dim:
            break
        w = Subspace(f, c.dim, w.basis @ coords.basis, _canonical=False)
    basis = w.basis
    k = basis.cols
    if k == 0:
        sub = Coalgebra(f, 0, Matrix.zeros(f, 0, 0), Matrix.zeros(f, 1, 0))
        return sub, CoalgebraMorphism(sub, c, Matrix.zeros(f, c.dim, 0))
    # induced structure constants: (B x B) delta_sub = delta B, eps_sub = eps B
    bb = basis.kron(basis)
    target = c.delta @ basis
    pivot_rows = [p1 * c.dim + p2 for p1 in w.pivots for p2 in w.pivots]
    delta_sub = target.take_rows(pivot_rows)
    if bb @ delta_sub != target:
        raise AxiomError("subcoalgebra-closure",
                         "refinement fixpoint is not delta-closed")
    eps_sub = c.epsilon @ basis
    sub = Coalgebra(f, k, delta_sub, eps_sub, labels=_sub_labels(c, basis))
    return sub, CoalgebraMorphism(sub, c, basis)


def equalizer(f: CoalgebraMorphism, g: CoalgebraMorphism):
    """Equalizer in the coalgebra category of a parallel pair.

    The underlying object is the largest subcoalgebra inside ker(f - g),
    so ``largest_subcoalgebra_in`` certifies it: its refinement stops only
    once delta(W) lies in (W (x) C) cap (C (x) W), and the induced
    structure constants are checked exactly against delta(W) in W (x) W.
    The inclusion is then checked to equalize the pair.
    """
    if f.source != g.source or f.target != g.target:
        raise BaseMismatchError("equalizer needs a parallel pair")
    ker = (f.matrix - g.matrix).kernel()
    sub, incl = largest_subcoalgebra_in(f.source, ker)
    if f.matrix @ incl.matrix != g.matrix @ incl.matrix:
        raise AxiomError("equalizer", "inclusion fails to equalize the pair")
    return sub, incl


def equalizer_factor(incl: CoalgebraMorphism,
                     h: CoalgebraMorphism) -> CoalgebraMorphism:
    """Unique factorization of an equalizing morphism through the inclusion."""
    coords = incl.matrix.solve_right(h.matrix)
    if coords is None:
        raise AxiomError("equalizer-universality",
                         "morphism does not factor through the equalizer")
    return CoalgebraMorphism(h.source, incl.source, coords)


def pullback(phi1: CoalgebraMorphism, phi2: CoalgebraMorphism):
    """Pullback of a cospan, computed as the equalizer of the pair
    (phi1 p1, phi2 p2) out of the product.  That pair need not have a
    common retraction, so the equalizer may be a proper subcoalgebra of
    ker(phi1 p1 - phi2 p2); ``equalizer`` computes it either way.

    Returns (P, u, v) with phi1 u = phi2 v.
    """
    if phi1.target != phi2.target:
        raise BaseMismatchError("pullback needs a common codomain")
    prod, p1, p2 = product(phi1.source, phi2.source)
    sub, incl = equalizer(phi1 @ p1, phi2 @ p2)
    u = p1 @ incl
    v = p2 @ incl
    if phi1.matrix @ u.matrix != phi2.matrix @ v.matrix:
        raise AxiomError("pullback", "square does not commute")
    return sub, u, v


def pullback_mediate(u: CoalgebraMorphism, v: CoalgebraMorphism,
                     q1: CoalgebraMorphism,
                     q2: CoalgebraMorphism) -> CoalgebraMorphism:
    """Mediating morphism into a pullback (P, u, v) from a cone (q1, q2)."""
    if q1.source != q2.source:
        raise BaseMismatchError("cone legs need a common source")
    cone = q1.matrix.kron(q2.matrix) @ q1.source.delta
    # <u,v> delta_P is exactly the subcoalgebra inclusion into D1 (x) D2
    emb = u.matrix.kron(v.matrix) @ u.source.delta
    coords = emb.solve_right(cone)
    if coords is None:
        raise AxiomError("pullback-universality",
                         "cone does not factor through the pullback")
    return CoalgebraMorphism(q1.source, u.source, coords)


# -- cosemisimplicity --------------------------------------------------------

def is_cosemisimple(c: Coalgebra) -> bool:
    """Decide cosemisimplicity.

    Characteristic zero: the dual algebra C* (multiplication delta^T, unit
    eps^T) is semisimple iff the trace form of left multiplication is
    nondegenerate, and its radical is the kernel of that form.
    Characteristic p: decided structurally, for group-like coalgebras and
    sums/products built from them; anything else is out of scope.
    """
    if c.is_grouplike():
        return True
    if c.field.char:
        if c.cosemisimple_hint is not None:
            return bool(c.cosemisimple_hint)
        raise UnsupportedBaseError(
            "cosemisimplicity over F_p is only decided for structures "
            "built from group-likes, sums and products")
    n = c.dim
    if n == 0:
        return True
    mult = c.delta.transpose()  # n x n^2, the dual multiplication
    left = []  # left multiplication operators L_i
    for i in range(n):
        cols = [mult.column(i * n + k) for k in range(n)]
        data = [col[r, 0] for r in range(n) for col in cols]
        left.append(Matrix(c.field, n, n, data))
    gram = Matrix(c.field, n, n,
                  [_trace(left[i] @ left[j]) for i in range(n)
                   for j in range(n)])
    return gram.rank() == n


def _trace(m: Matrix):
    return sum(m[i, i] for i in range(m.rows))


def grouplike_labels(c: Coalgebra):
    """Labels of a group-like coalgebra: stored ones, else positional."""
    if not c.is_grouplike():
        return None
    return c.labels if c.labels is not None else tuple(range(c.dim))
