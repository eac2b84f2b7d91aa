"""Finite-dimensional cocommutative coalgebras and their morphisms.

A coalgebra is stored by structure constants: ``delta`` is the n^2 x n
matrix whose column i is the comultiplication of the i-th basis vector in
the fixed tensor basis, and ``epsilon`` is the 1 x n counit row.  All
defining axioms (coassociativity, counit laws, cocommutativity) are
checked exactly at construction and violations raise ``AxiomError`` naming
the broken law; everything downstream may therefore assume valid data.
Cocommutativity is a permutation test on the nonzeros of delta; the other
laws, and a morphism's, go through ``exactlin._kron_cols``.

The category operations implemented here follow the classical recipe: the
product of cocommutative coalgebras lives on the tensor product with
comultiplication (id (x) swap (x) id)(delta1 (x) delta2), and the pullback
of D1 -> C <- D2 is the cotensor D1 (x)_C D2 inside it, one kernel (dual to
the pushout A1 (x)_B A2 of the commutative dual algebras).  A
coseparability form gamma: C (x) C -> k (``coseparability_form``) is built
directly on a group-like basis and is the inverse of the trace form of C*
on any other; it exists exactly when C is cosemisimple, which decides
cosemisimplicity over Q and lets ``comod.is_injective`` certify
injectivity with an explicit retraction.
"""

from __future__ import annotations

from .errors import AxiomError, BaseMismatchError, UnsupportedBaseError
from .exactlin import (Matrix, ShapeError, Subspace, _column_dicts,
                       _difference, _kron_cols, kron_apply)
from .fields import Field

__all__ = [
    "Coalgebra", "CoalgebraMorphism", "trivial_coalgebra",
    "grouplike_coalgebra", "grouplike_morphism", "direct_sum", "product",
    "pairing", "counit_morphism", "pullback", "pullback_mediate",
    "coseparability_form", "is_cosemisimple", "grouplike_labels",
]

# Value of ``Coalgebra._cosep`` until ``coseparability_form`` decides it.
_UNDECIDED = object()


class Coalgebra:
    """Cocommutative coalgebra given by exact structure constants.

    The defining axioms are verified from nonzeros at construction
    (structure matrices of the coalgebras arising here are overwhelmingly
    zero, and the dense triple products would be cubic in the dimension),
    from ``_delta_cols`` and ``_eps_cols``, which later certificates read.
    ``_cosep`` holds the coseparability form once ``coseparability_form``
    has decided it, so each coalgebra object computes it at most once.
    """

    __slots__ = ("field", "dim", "delta", "epsilon", "labels",
                 "_delta_cols", "_eps_cols", "_cosep")

    def __init__(self, field: Field, dim: int, delta: Matrix,
                 epsilon: Matrix, labels=None):
        n = dim
        if delta.rows != n * n or delta.cols != n:
            raise ShapeError(f"delta must be {n * n}x{n}")
        if epsilon.rows != 1 or epsilon.cols != n:
            raise ShapeError(f"epsilon must be 1x{n}")
        if labels is not None and len(labels) != n:
            raise ShapeError("label count must match the dimension")
        dcols = _column_dicts(delta)
        ecols = _column_dicts(epsilon)
        p = field.char
        # cocommutativity: each column is symmetric under (a,b) -> (b,a)
        for j, col in enumerate(dcols):
            for idx, v in col.items():
                a, b = divmod(idx, n)
                if col.get(b * n + a) != v:
                    raise AxiomError("cocommutativity",
                                     "tau delta != delta", witness=(j, idx))
        ident = [{j: 1} for j in range(n)]
        bad = (_difference(_kron_cols(ecols, n, n, dcols), ident, p)
               or _difference(_kron_cols(n, ecols, 1, dcols), ident, p))
        if bad:
            raise AxiomError(
                "counit", "(eps x id) delta != id or (id x eps) delta != id",
                witness=bad)
        bad = _difference(_kron_cols(dcols, n, n, dcols),
                          _kron_cols(n, dcols, n * n, dcols), p)
        if bad:
            raise AxiomError("coassociativity",
                             "(delta x id) delta != (id x delta) delta",
                             witness=bad)
        self.field = field
        self.dim = n
        self.delta = delta
        self.epsilon = epsilon
        self.labels = tuple(labels) if labels is not None else None
        self._delta_cols = dcols
        self._eps_cols = ecols
        self._cosep = _UNDECIDED

    def is_grouplike(self) -> bool:
        """True when every standard basis vector is group-like, read off
        the nonzeros of delta: column i is e_i (x) e_i, and eps(e_i) = 1."""
        n = self.dim
        return all(self.epsilon.data[i] == 1
                   and self._delta_cols[i] == {i * n + i: 1}
                   for i in range(n))

    def identity_morphism(self) -> "CoalgebraMorphism":
        return CoalgebraMorphism(self, self, Matrix.identity(self.field,
                                                             self.dim))

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, Coalgebra) and other.field == self.field
                and other.dim == self.dim and other.delta == self.delta
                and other.epsilon == self.epsilon)

    def __repr__(self):
        tag = f" on {list(self.labels)}" if self.labels else ""
        return f"Coalgebra(dim {self.dim} over {self.field!r}{tag})"


class CoalgebraMorphism:
    """Linear map preserving comultiplication and counit, verified from
    nonzeros.

    ``u_coflat`` holds whether U(phi) is coflat: None until
    ``indexed.forall`` first decides it, so each morphism object decides
    it at most once.  ``_u`` holds U(phi) once
    ``indexed.coaction_comodule`` has built it.  ``columns`` keeps the
    matrix's column dicts that the preservation checks read.
    """

    __slots__ = ("source", "target", "matrix", "columns", "u_coflat", "_u")

    def __init__(self, source: Coalgebra, target: Coalgebra, matrix: Matrix):
        if source.field != target.field:
            raise BaseMismatchError("source and target over different fields")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ShapeError(
                f"matrix must be {target.dim}x{source.dim}")
        p = source.field.char
        fcols = _column_dicts(matrix)
        bad = _difference(_kron_cols(target._delta_cols, 1, 1, fcols),
                          _kron_cols(fcols, fcols, target.dim,
                                     source._delta_cols), p)
        if bad:
            raise AxiomError("comultiplication-preservation",
                             "delta_target f != (f x f) delta_source",
                             witness=bad)
        bad = _difference(_kron_cols(target._eps_cols, 1, 1, fcols),
                          source._eps_cols, p)
        if bad:
            raise AxiomError("counit-preservation",
                             "eps_target f != eps_source", witness=bad)
        self.source = source
        self.target = target
        self.matrix = matrix
        self.columns = fcols
        self.u_coflat = None
        self._u = None

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
    return Coalgebra(field, 1, one, one, labels=("*",))


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
                     labels=labels)


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
    delta_cols = kron_apply(i1, i1, c1.delta).hstack(
        kron_apply(i2, i2, c2.delta))
    # reorder columns to the concatenated basis: they already are
    eps = c1.epsilon.hstack(c2.epsilon)
    return Coalgebra(f, n, delta_cols, eps, labels=_sum_labels(c1, c2))


def product(c1: Coalgebra, c2: Coalgebra):
    """Categorical product: (C1 (x) C2, (id x tau x id)(delta1 x delta2)).

    Returns the product with its two projections id (x) eps2 and
    eps1 (x) id.
    """
    if c1.field != c2.field:
        raise BaseMismatchError("product needs a common field")
    f = c1.field
    n1, n2 = c1.dim, c2.dim
    # the middle swap as a row reindex: row (i1, i2, j1, j2) of the product
    # is row (i1, j1, i2, j2) of delta1 (x) delta2
    delta = c1.delta.kron(c2.delta).take_rows(
        [((i1 * n1 + j1) * n2 + i2) * n2 + j2 for i1 in range(n1)
         for i2 in range(n2) for j1 in range(n1) for j2 in range(n2)])
    eps = c1.epsilon.kron(c2.epsilon)
    labels = None
    if c1.labels is not None and c2.labels is not None:
        labels = tuple((x, y) for x in c1.labels for y in c2.labels)
    prod = Coalgebra(f, n1 * n2, delta, eps, labels=labels)
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
    mat = kron_apply(f.matrix, g.matrix, f.source.delta)
    return CoalgebraMorphism(f.source, prod, mat)


# -- subcoalgebras and pullbacks --------------------------------------------

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


def _subcoalgebra(c: Coalgebra, w: Subspace):
    """The subcoalgebra of c on the subspace w, with its inclusion.

    The induced structure constants solve (B (x) B) delta_sub = delta B and
    eps_sub = eps B for the canonical basis B of w; they are read off the
    pivot rows and checked exactly, so a w that is not delta-closed raises.
    """
    f = c.field
    basis = w.basis
    k = basis.cols
    if k == 0:
        sub = Coalgebra(f, 0, Matrix.zeros(f, 0, 0), Matrix.zeros(f, 1, 0))
        return sub, CoalgebraMorphism(sub, c, Matrix.zeros(f, c.dim, 0))
    target = c.delta @ basis
    pivot_rows = [p1 * c.dim + p2 for p1 in w.pivots for p2 in w.pivots]
    delta_sub = target.take_rows(pivot_rows)
    if kron_apply(basis, basis, delta_sub) != target:
        raise AxiomError("subcoalgebra-closure",
                         "subspace is not delta-closed")
    eps_sub = c.epsilon @ basis
    sub = Coalgebra(f, k, delta_sub, eps_sub, labels=_sub_labels(c, basis))
    return sub, CoalgebraMorphism(sub, c, basis)


def pullback(phi1: CoalgebraMorphism, phi2: CoalgebraMorphism,
             _kernel: Subspace | None = None):
    """Pullback of a cospan D1 -> C <- D2: the cotensor D1 (x)_C D2.

    Its space is E = ker(rho1 (x) id - id (x) lambda2) inside the product
    D1 (x) D2, where rho1 = (id (x) phi1) delta1 and lambda2 =
    (phi2 (x) id) delta2 are the coactions of U(phi1) and U(phi2).  The
    pullback is the equalizer of (phi1 p1, phi2 p2) out of the product,
    that is, the largest subcoalgebra inside K = ker(phi1 p1 - phi2 p2),
    and E is exactly that subcoalgebra:

    - E lies in K: apply eps1 (x) id (x) eps2 to the defining equation
      (checked below as the square commuting);
    - every subcoalgebra S inside K lies in E, since on the product
      rho1 (x) id - id (x) lambda2 = (p1 (x) (phi1 p1 - phi2 p2) (x) p2)
      delta^(2) and delta^(2) S lies in S (x) S (x) S;
    - E is a subcoalgebra, dual to A1 (x)_B A2 being a quotient algebra of
      A1 (x) A2; ``_subcoalgebra`` checks its closure exactly.

    Returns (P, u, v) with phi1 u = phi2 v.  ``_kernel`` is E when the
    caller has built it (``indexed.PullbackSquare.from_cospan``).
    """
    from .comod import _cotensor_kernel
    from .indexed import coaction_comodule
    if phi1.target != phi2.target:
        raise BaseMismatchError("pullback needs a common codomain")
    prod, p1, p2 = product(phi1.source, phi2.source)
    if _kernel is None:
        _kernel = _cotensor_kernel(coaction_comodule(phi1),
                                   coaction_comodule(phi2))
    sub, incl = _subcoalgebra(prod, _kernel)
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
    cone = kron_apply(q1.matrix, q2.matrix, q1.source.delta)
    # <u,v> delta_P is exactly the subcoalgebra inclusion into D1 (x) D2
    emb = kron_apply(u.matrix, v.matrix, u.source.delta)
    coords = emb.solve_right(cone)
    if coords is None:
        raise AxiomError("pullback-universality",
                         "cone does not factor through the pullback")
    return CoalgebraMorphism(q1.source, u.source, coords)


# -- coseparability and cosemisimplicity ------------------------------------

def coseparability_form(c: Coalgebra):
    """A coseparability form gamma: C (x) C -> k as a 1 x n^2 row, or None
    when C has none.

    gamma satisfies gamma delta = eps and
    (id (x) gamma)(delta (x) id) = (gamma (x) id)(id (x) delta) (Larson,
    "Coseparable Hopf algebras"; Doi, "Homological coalgebra").  It exists
    iff the dual algebra is separable; C is cocommutative and Q and F_p are
    perfect, so iff C is cosemisimple.  A group-like basis has
    gamma(g (x) h) = [g = h]; any other basis takes the inverse of the
    trace form (``_inverse_trace_form``).  The answer is kept on the
    coalgebra object.
    """
    if c._cosep is _UNDECIDED:
        n = c.dim
        if c.is_grouplike():
            data = [0] * (n * n)
            for g in range(n):
                data[g * n + g] = 1
            c._cosep = Matrix(c.field, 1, n * n, data)
        else:
            c._cosep = _inverse_trace_form(c)
    return c._cosep


def _inverse_trace_form(c: Coalgebra):
    """gamma[a*n + b] = (G^-1)[a, b] for the trace form G of C*, or None
    when G is singular.

    C* is commutative (multiplication delta^T, unit eps^T), so over a
    perfect field it is semisimple iff G[i, j] = tr(L_{e_i* e_j*}) is
    nondegenerate.  For a semisimple C* the Casimir element
    sum_i e_i* (x) G^-1 e_i* of G is a separability idempotent: it
    commutes with C* and multiplies out to 1, since on every simple factor
    (a separable field extension) G is the field trace.  As a form on
    C (x) C that element is G^-1.  With t[k] = tr(L_{e_k*}) =
    sum_j delta[k*n + j, j], G read row by row is delta t.
    """
    f, n = c.field, c.dim
    dcols = c._delta_cols
    t = Matrix(f, n, 1, [f.of(sum(dcols[j].get(k * n + j, 0)
                                  for j in range(n))) for k in range(n)])
    inv = Matrix(f, n, n, (c.delta @ t).data).inverse()
    return None if inv is None else Matrix(f, 1, n * n, inv.data)


def is_cosemisimple(c: Coalgebra) -> bool:
    """Decide cosemisimplicity.

    Group-like bases are cosemisimple.  Over Q, C is cosemisimple iff it
    has a coseparability form (see ``coseparability_form``).  Over F_p
    only group-like bases are decided; anything else is out of scope.
    """
    if c.is_grouplike():
        return True
    if c.field.char:
        raise UnsupportedBaseError(
            "cosemisimplicity over F_p is only decided for structures "
            "built from group-likes, sums and products")
    return coseparability_form(c) is not None


def grouplike_labels(c: Coalgebra):
    """Labels of a group-like coalgebra: stored ones, else positional."""
    if not c.is_grouplike():
        return None
    return c.labels if c.labels is not None else tuple(range(c.dim))
