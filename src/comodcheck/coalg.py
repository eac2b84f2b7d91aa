"""Finite-dimensional cocommutative coalgebras and their morphisms.

A coalgebra is stored by the nonzeros of its structure constants:
``_delta_cols`` holds one {row: value} dict per basis vector, its
comultiplication in the fixed tensor basis (column i of the n^2 x n
matrix of delta), and ``_eps_cols`` one {0: value} dict per basis vector
for the counit; every constructor builds these dicts directly.  All
defining axioms (coassociativity, counit laws, cocommutativity) are
checked exactly at construction of every coalgebra and violations raise
``AxiomError`` naming the broken law; everything downstream may therefore
assume valid data.  A declared morphism has its laws checked likewise; a
derived one (identities, composites, the counit map, product projections,
pairings, subcoalgebra inclusions) inherits its certificate through
``CoalgebraMorphism._implied``, which keeps the shape check, and each such
constructor's docstring derives the laws it skips.
Cocommutativity is a permutation test on the nonzeros of delta; the other
laws, and a morphism's, go through ``exactlin._kron_cols``.  A morphism
is stored as the column dicts of its matrix, composed by ``_kron_cols``
and tested for invertibility by one ``rref_rows``, so no coalgebra
operation multiplies two dense matrices.

The category operations implemented here follow the classical recipe: the
product of cocommutative coalgebras lives on the tensor product with
comultiplication (id (x) swap (x) id)(delta1 (x) delta2), and the pullback
of D1 -> C <- D2 is the cotensor D1 (x)_C D2 inside it, one kernel (dual to
the pushout A1 (x)_B A2 of the commutative dual algebras).  A
coseparability form gamma: C (x) C -> k (``coseparability_form``), [g = h]
on a group-like basis and the inverse trace form of C* on any other, is
kept as its rows once its two laws hold exactly.  It exists iff C is
cosemisimple, which decides cosemisimplicity over Q, and it certifies the
injectivity of every comodule over C (``comod.is_injective``).
"""

from __future__ import annotations

from .errors import AxiomError, BaseMismatchError, UnsupportedBaseError
from .exactlin import (Matrix, ShapeError, Subspace, _checked_columns,
                       _dense_columns, _difference, _inverse, _invertible,
                       _kron_cols, _member_coords, _solve, _swapped)
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
    """Cocommutative coalgebra given by the nonzeros of its structure
    constants.

    ``delta_cols`` and ``eps_cols`` are the n columns of delta (rows below
    n^2) and of eps (row 0) as {row: value} dicts whose sums may be
    unreduced; they are reduced once and stored as ``_delta_cols`` and
    ``_eps_cols``, the only form of either map, so equal coalgebras store
    equal dicts.  The defining axioms are verified from those nonzeros
    (structure matrices of the coalgebras arising here are overwhelmingly
    zero, and the dense triple products would be cubic in the dimension).
    ``delta`` and ``epsilon`` are dense views built on each read.
    ``_cosep`` holds the coseparability form once ``coseparability_form``
    has decided and certified it, so each object does so at most once.
    """

    __slots__ = ("field", "dim", "labels", "_delta_cols", "_eps_cols",
                 "_cosep")

    def __init__(self, field: Field, dim: int, delta_cols, eps_cols,
                 labels=None):
        n, p = dim, field.char
        dcols = _checked_columns(delta_cols, n, n * n, p, "delta")
        ecols = _checked_columns(eps_cols, n, 1, p, "epsilon")
        if labels is not None and len(labels) != n:
            raise ShapeError("label count must match the dimension")
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
        self.labels = tuple(labels) if labels is not None else None
        self._delta_cols = dcols
        self._eps_cols = ecols
        self._cosep = _UNDECIDED

    @property
    def delta(self) -> Matrix:
        """The n^2 x n matrix of delta, built on each read."""
        return _dense_columns(self.field, self.dim * self.dim,
                              self._delta_cols)

    @property
    def epsilon(self) -> Matrix:
        """The 1 x n counit row, built on each read."""
        return _dense_columns(self.field, 1, self._eps_cols)

    def is_grouplike(self) -> bool:
        """True when every standard basis vector is group-like, read off
        the nonzeros of delta: column i is e_i (x) e_i, and eps(e_i) = 1."""
        n = self.dim
        return all(self._eps_cols[i] == {0: 1}
                   and self._delta_cols[i] == {i * n + i: 1}
                   for i in range(n))

    def identity_morphism(self) -> "CoalgebraMorphism":
        """id_C, built by ``CoalgebraMorphism._implied``: its laws are
        implied, as each would compare a structure map with itself."""
        return CoalgebraMorphism._implied(self, self,
                                          [{t: 1} for t in range(self.dim)])

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, Coalgebra) and other.field == self.field
                and other.dim == self.dim
                and other._delta_cols == self._delta_cols
                and other._eps_cols == self._eps_cols)

    def __repr__(self):
        tag = f" on {list(self.labels)}" if self.labels else ""
        return f"Coalgebra(dim {self.dim} over {self.field!r}{tag})"


class CoalgebraMorphism:
    """Linear map preserving comultiplication and counit, verified from
    nonzeros.

    ``columns`` are the source.dim columns of its target.dim x source.dim
    matrix as {row: value} dicts (sums may be unreduced); they are reduced
    once and stored, the only form of the map, so equal morphisms store
    equal dicts.  Composition, the isomorphism test and equality read
    them; ``matrix`` is a dense view built on each read.  ``u_coflat``
    holds whether U(phi) is coflat: None until ``indexed.forall`` first
    decides it, so each morphism object decides it at most once.  ``_u``
    holds U(phi) once ``indexed.coaction_comodule`` has built it.
    """

    __slots__ = ("source", "target", "columns", "u_coflat", "_u")

    def __init__(self, source: Coalgebra, target: Coalgebra, columns):
        if source.field != target.field:
            raise BaseMismatchError("source and target over different fields")
        p = source.field.char
        fcols = _checked_columns(columns, source.dim, target.dim, p,
                                 "matrix")
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
        self.columns = fcols
        self.u_coflat = None
        self._u = None

    @classmethod
    def _implied(cls, source: Coalgebra, target: Coalgebra, columns):
        """A morphism whose laws its caller's certificates imply: the
        columns get the shape check of ``_checked_columns`` and neither
        the comultiplication nor the counit equation.  Each caller states
        why they hold."""
        mor = cls.__new__(cls)
        mor.source, mor.target = source, target
        mor.u_coflat = mor._u = None
        mor.columns = _checked_columns(columns, source.dim, target.dim,
                                       source.field.char, "matrix")
        return mor

    @property
    def matrix(self) -> Matrix:
        """The target.dim x source.dim matrix, built on each read."""
        return _dense_columns(self.source.field, self.target.dim,
                              self.columns)

    def __matmul__(self, other: "CoalgebraMorphism") -> "CoalgebraMorphism":
        """The composite, built by ``CoalgebraMorphism._implied``: its laws
        are implied by the factors', delta f g = (f (x) f) delta g =
        (f g (x) f g) delta and eps f g = eps g = eps."""
        if other.target != self.source:
            raise BaseMismatchError("morphisms do not compose")
        return CoalgebraMorphism._implied(other.source, self.target,
                                          _kron_cols(self.columns, 1, 1,
                                                     other.columns))

    def is_isomorphism(self) -> bool:
        return _invertible(self.source.field, self.target.dim, self.columns)

    def __eq__(self, other):
        return (isinstance(other, CoalgebraMorphism)
                and other.source == self.source
                and other.target == self.target
                and other.columns == self.columns)

    def __repr__(self):
        return (f"CoalgebraMorphism({self.source.dim} -> {self.target.dim})")


# -- constructors ----------------------------------------------------------

def trivial_coalgebra(field: Field) -> Coalgebra:
    """The one-dimensional coalgebra with delta(1) = 1 x 1, eps = id."""
    return Coalgebra(field, 1, [{0: 1}], [{0: 1}], labels=("*",))


def grouplike_coalgebra(field: Field, labels) -> Coalgebra:
    """Coalgebra with a basis of group-likes indexed by the given labels."""
    labels = tuple(labels)
    if not labels:
        raise ShapeError("label set must be nonempty")
    if len(set(labels)) != len(labels):
        raise ShapeError("duplicate labels")
    n = len(labels)
    return Coalgebra(field, n, [{i * n + i: 1} for i in range(n)],
                     [{0: 1} for _ in range(n)], labels=labels)


def grouplike_morphism(source: Coalgebra, target: Coalgebra,
                       mapping) -> CoalgebraMorphism:
    """Morphism of group-like coalgebras induced by a map of label sets."""
    if source.labels is None or target.labels is None:
        raise UnsupportedBaseError("both coalgebras need labels")
    tgt_index = {x: i for i, x in enumerate(target.labels)}
    columns = []
    for x in source.labels:
        if x not in mapping:
            raise ShapeError(f"label {x!r} has no image")
        y = mapping[x]
        if y not in tgt_index:
            raise ShapeError(f"image label {y!r} not in target")
        columns.append({tgt_index[y]: 1})
    return CoalgebraMorphism(source, target, columns)


def counit_morphism(c: Coalgebra) -> CoalgebraMorphism:
    """The unique morphism into the trivial coalgebra (terminal object),
    eps itself.  Its laws are implied (``CoalgebraMorphism._implied``):
    (eps (x) eps) delta = eps is C's counit law, and eps_1 eps = eps."""
    return CoalgebraMorphism._implied(c, trivial_coalgebra(c.field),
                                      c._eps_cols)


def _sum_labels(c1: Coalgebra, c2: Coalgebra):
    if c1.labels is None or c2.labels is None:
        return None
    if set(c1.labels) & set(c2.labels):
        return tuple(("L", x) for x in c1.labels) + \
            tuple(("R", x) for x in c2.labels)
    return c1.labels + c2.labels


def direct_sum(c1: Coalgebra, c2: Coalgebra) -> Coalgebra:
    """Block-diagonal coalgebra on the concatenated basis: key a*n2 + b of
    c2's delta moves to (n1 + a)*n + n1 + b, c1's keys a*n1 + b to
    a*n + b."""
    if c1.field != c2.field:
        raise BaseMismatchError("direct sum needs a common field")
    n1, n2, n = c1.dim, c2.dim, c1.dim + c2.dim
    delta = [{(key // k + off) * n + off + key % k: x
              for key, x in col.items()}
             for off, k, cols in ((0, n1, c1._delta_cols),
                                  (n1, n2, c2._delta_cols)) for col in cols]
    return Coalgebra(c1.field, n, delta, c1._eps_cols + c2._eps_cols,
                     labels=_sum_labels(c1, c2))


def product(c1: Coalgebra, c2: Coalgebra):
    """Categorical product: (C1 (x) C2, (id x tau x id)(delta1 x delta2)).

    Returns the product with its two projections id (x) eps2 and
    eps1 (x) id.  The product keeps its full check; the projections' laws
    are implied (``CoalgebraMorphism._implied``): (p1 (x) p1) delta(a (x) b)
    = a_1 eps(b_1) (x) a_2 eps(b_2) = a_1 (x) a_2 eps(b) = delta p1(a (x) b)
    by C2's counit law, and eps1 p1 = eps1 (x) eps2 is the product's
    counit; p2 likewise by C1's counit law.
    """
    if c1.field != c2.field:
        raise BaseMismatchError("product needs a common field")
    f, n1, n2 = c1.field, c1.dim, c2.dim
    e1, e2 = c1._eps_cols, c2._eps_cols
    ident = [{t: 1} for t in range(n1 * n2)]
    # the middle swap on keys: (i1, j1, i2, j2) of delta1 (x) delta2 is
    # (i1, i2, j1, j2) of the product
    delta = _swapped(_kron_cols(c1._delta_cols, c2._delta_cols, n2 * n2,
                                ident), n1, n1, n2, n2)
    labels = None
    if c1.labels is not None and c2.labels is not None:
        labels = tuple((x, y) for x in c1.labels for y in c2.labels)
    prod = Coalgebra(f, n1 * n2, delta, _kron_cols(e1, e2, 1, ident),
                     labels=labels)
    p1 = CoalgebraMorphism._implied(prod, c1, _kron_cols(n1, e2, 1, ident))
    p2 = CoalgebraMorphism._implied(prod, c2, _kron_cols(e1, n2, n2, ident))
    return prod, p1, p2


def pairing(f: CoalgebraMorphism, g: CoalgebraMorphism,
            prod: Coalgebra | None = None) -> CoalgebraMorphism:
    """The mediating morphism <f, g> = (f (x) g) delta into the product
    ``prod``, which is ``product(f.target, g.target)[0]`` when omitted and
    must equal it when given.

    Its laws are implied (``CoalgebraMorphism._implied``): f and g are
    coalgebra maps, so delta_prod <f, g> = (f (x) g (x) f (x) g)
    (id (x) tau (x) id)(delta (x) delta) delta and (<f, g> (x) <f, g>) delta
    = (f (x) g (x) f (x) g)(delta (x) delta) delta, and the two agree as
    delta^(3) of the source D is symmetric, by D's coassociativity and its
    cocommutativity, checked when D was built; (eps (x) eps)(f (x) g) delta
    = (eps (x) eps) delta = eps is D's counit law."""
    if f.source != g.source:
        raise BaseMismatchError("pairing needs a common source")
    if prod is None:
        prod = product(f.target, g.target)[0]
    return CoalgebraMorphism._implied(f.source, prod, _kron_cols(
        f.columns, g.columns, g.target.dim, f.source._delta_cols))


# -- subcoalgebras and pullbacks --------------------------------------------

def _sub_labels(parent: Coalgebra, columns):
    """Labels for a nonzero subcoalgebra whose basis, given by its reduced
    {row: value} columns, consists of basis vectors."""
    if parent.labels is None or not columns:
        return None
    picked = []
    for col in columns:
        if list(col.values()) != [1]:
            return None
        picked.append(parent.labels[next(iter(col))])
    return tuple(picked)


def _subcoalgebra(c: Coalgebra, w: Subspace):
    """The subcoalgebra of c on the subspace w, with its inclusion.

    The induced structure constants solve (B (x) B) delta_sub = delta B and
    eps_sub = eps B for the canonical basis B of w, from nonzeros: delta B
    is read at the pivot rows p1*n + p2 of B (x) B, where it is the
    identity, and (B (x) B) delta_sub = delta B is checked exactly
    (``_member_coords``), so a w that is not delta-closed raises.  The
    subcoalgebra keeps its full check; the inclusion B's laws are implied
    (``CoalgebraMorphism._implied``): its comultiplication law is that
    exact closure equation, and eps B = eps_sub by construction.
    """
    n, b, p = c.dim, w.columns, c.field.char
    pivot_rows = [p1 * n + p2 for p1 in w.pivots for p2 in w.pivots]
    delta_sub = _member_coords(
        n * n, pivot_rows, _kron_cols(c._delta_cols, 1, 1, b),
        lambda x: _kron_cols(b, b, n, x), p)
    if delta_sub is None:
        raise AxiomError("subcoalgebra-closure",
                         "subspace is not delta-closed")
    sub = Coalgebra(c.field, w.dim, delta_sub,
                    _kron_cols(c._eps_cols, 1, 1, b),
                    labels=_sub_labels(c, b))
    return sub, CoalgebraMorphism._implied(sub, c, b)


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
    if _difference(_kron_cols(phi1.columns, 1, 1, u.columns),
                   _kron_cols(phi2.columns, 1, 1, v.columns),
                   sub.field.char) is not None:
        raise AxiomError("pullback", "square does not commute")
    return sub, u, v


def pullback_mediate(u: CoalgebraMorphism, v: CoalgebraMorphism,
                     q1: CoalgebraMorphism,
                     q2: CoalgebraMorphism) -> CoalgebraMorphism:
    """Mediating morphism into a pullback (P, u, v) from a cone (q1, q2)."""
    if q1.source != q2.source:
        raise BaseMismatchError("cone legs need a common source")
    rows, rb = u.target.dim * v.target.dim, v.target.dim
    cone = _kron_cols(q1.columns, q2.columns, rb, q1.source._delta_cols)
    # <u,v> delta_P is exactly the subcoalgebra inclusion into D1 (x) D2
    emb = _kron_cols(u.columns, v.columns, rb, u.source._delta_cols)
    coords = _solve(u.source.field.char, rows, emb, cone)
    if coords is None:
        raise AxiomError("pullback-universality",
                         "cone does not factor through the pullback")
    return CoalgebraMorphism(q1.source, u.source, coords)


# -- coseparability and cosemisimplicity ------------------------------------

def coseparability_form(c: Coalgebra):
    """A coseparability form gamma: C (x) C -> k as its n rows
    {c: gamma(e_d (x) e_c)} for d < n, reduced, or None when C has none.

    gamma delta = eps and gamma is bicolinear (Larson, "Coseparable Hopf
    algebras"; Doi, "Homological coalgebra").  It exists iff the dual
    algebra is separable, so (C cocommutative, Q and F_p perfect) iff C is
    cosemisimple.  A group-like basis has gamma(g (x) h) = [g = h], whose
    laws the exact ``is_grouplike`` test gives; any other takes the inverse
    trace form, certified by ``_certified_form`` once per object.
    """
    if c._cosep is _UNDECIDED:
        c._cosep = ([{d: 1} for d in range(c.dim)] if c.is_grouplike()
                    else _certified_form(c, _inverse_trace_form(c)))
    return c._cosep


def _certified_form(c: Coalgebra, gamma):
    """gamma's rows, or None, once gamma delta = eps and bicolinearity hold
    exactly on the n^2 columns of C (x) C (``_kron_cols``, ``_difference``);
    else ``AxiomError("coseparability-form")``."""
    if gamma is None:
        return None
    n, p, dcols = c.dim, c.field.char, c._delta_cols
    # gamma as the n^2 columns of a 1 x n^2 row
    g = [{0: row[e]} if e in row else {} for row in gamma for e in range(n)]
    ident = [{t: 1} for t in range(n * n)]
    bad = (_difference(_kron_cols(g, 1, 1, dcols), c._eps_cols, p)
           or _difference(_kron_cols(n, g, 1, _kron_cols(dcols, n, n, ident)),
                          _kron_cols(g, n, n, _kron_cols(n, dcols, n * n,
                                                         ident)), p))
    if bad:
        raise AxiomError("coseparability-form", "gamma delta != eps or "
                         "gamma is not bicolinear", witness=bad)
    return gamma


def _inverse_trace_form(c: Coalgebra):
    """The rows of gamma(e_a (x) e_b) = (G^-1)[a, b] for the trace form G
    of C*, or None when G is singular.

    C* is commutative (multiplication delta^T, unit eps^T), so over a
    perfect field it is semisimple iff G[i, j] = tr(L_{e_i* e_j*}) is
    nondegenerate, and then G^-1 is the Casimir element of G, a
    separability idempotent (on each simple factor G is the field trace).
    With t[k] = tr(L_{e_k*}) = sum_j delta[k*n + j, j], G read row by row
    is delta t; G is symmetric, so ``_inverse`` of its columns gives the
    rows of gamma.
    """
    n, dcols = c.dim, c._delta_cols
    t = {k: x for k in range(n)
         if (x := sum(dcols[j].get(k * n + j, 0) for j in range(n)))}
    g = [{} for _ in range(n)]
    for key, x in _kron_cols(dcols, 1, 1, [t])[0].items():
        a, b = divmod(key, n)
        g[b][a] = x
    return _inverse(c.field, n, g)


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
