"""Independent combinatorial model for group-like bases.

Over a group-like coalgebra, a comodule is nothing but a vector space
graded by the label set, and every functor in the package has a closed
fiberwise form: cotensor multiplies dimensions componentwise, pushforward
sums dimensions over fibers, pullback regrades along the map, and the
universal quantifier takes fiberwise products (which in finite dimensions
also sum dimensions).  These forms are computed here from scratch, with no
shared functor logic with the matrix implementations, so agreement between
the two paths is evidence rather than tautology.
"""

from __future__ import annotations

from .coalg import Coalgebra, grouplike_labels
from .comod import Comodule
from .errors import AxiomError, UnsupportedBaseError
from .exactlin import Matrix, ShapeError

__all__ = [
    "GradedVectorSpace", "SetMap", "to_graded", "from_graded",
    "graded_cotensor", "graded_hom_dim", "graded_pullback", "graded_sigma",
    "graded_forall", "set_fiber_product", "setmap_of_morphism",
]


class GradedVectorSpace:
    """Finite label set with a nonnegative dimension per label."""

    __slots__ = ("labels", "dims")

    def __init__(self, labels, dims):
        labels = tuple(labels)
        if isinstance(dims, dict):
            dims = {x: int(d) for x, d in dims.items()}
            missing = [x for x in labels if x not in dims]
            if missing:
                raise ShapeError(f"no dimension for labels {missing}")
            dims = [dims[x] for x in labels]
        else:
            dims = [int(d) for d in dims]
        if len(dims) != len(labels):
            raise ShapeError("one dimension per label required")
        if any(d < 0 for d in dims):
            raise ShapeError("dimensions must be nonnegative")
        self.labels = labels
        self.dims = tuple(dims)

    @property
    def total(self) -> int:
        return sum(self.dims)

    def dim_of(self, label) -> int:
        return self.dims[self.labels.index(label)]

    def __eq__(self, other):
        return (isinstance(other, GradedVectorSpace)
                and other.labels == self.labels and other.dims == self.dims)

    def __repr__(self):
        body = ", ".join(f"{x!r}: {d}" for x, d in zip(self.labels,
                                                       self.dims))
        return f"GradedVectorSpace({body})"


class SetMap:
    """Total function between finite label sets."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source, target, mapping):
        source, target = tuple(source), tuple(target)
        mapping = dict(mapping)
        for x in source:
            if x not in mapping:
                raise ShapeError(f"label {x!r} has no image")
            if mapping[x] not in target:
                raise ShapeError(f"image of {x!r} is not a target label")
        self.source = source
        self.target = target
        self.mapping = {x: mapping[x] for x in source}

    def __call__(self, x):
        return self.mapping[x]

    def fiber(self, y):
        return tuple(x for x in self.source if self.mapping[x] == y)

    def __eq__(self, other):
        return (isinstance(other, SetMap) and other.source == self.source
                and other.target == self.target
                and other.mapping == self.mapping)

    def __repr__(self):
        return f"SetMap({self.mapping})"


# -- translation between the two models --------------------------------------

def to_graded(v: Comodule) -> GradedVectorSpace:
    """Grading of a comodule over a group-like base.

    The component at label x is the simultaneous eigenspace
    {v : rho(v) = v (x) x}; a valid comodule is the direct sum of these,
    anything else is an internal error.
    """
    labels = grouplike_labels(v.base)
    if labels is None:
        raise UnsupportedBaseError("to_graded needs a group-like base")
    f, n, m = v.field, v.base.dim, v.dim
    rho = v.rho
    dims = []
    for x in range(n):
        sx = [0] * (m * n * m)
        for i in range(m):
            sx[(i * n + x) * m + i] = 1
        dims.append((rho - Matrix(f, m * n, m, sx)).kernel().dim)
    if sum(dims) != m:
        raise AxiomError("grading",
                         "coaction is not diagonalizable over the labels")
    return GradedVectorSpace(labels, dims)


def from_graded(c: Coalgebra, g: GradedVectorSpace) -> Comodule:
    """Canonical comodule realizing a grading over a group-like base."""
    labels = grouplike_labels(c)
    if labels is None:
        raise UnsupportedBaseError("from_graded needs a group-like base")
    if labels != g.labels:
        raise ShapeError("label sets differ")
    n = c.dim
    grades = [x for x, d in enumerate(g.dims) for _ in range(d)]
    return Comodule(c, g.total, [{k * n + x: 1}
                                 for k, x in enumerate(grades)])


def setmap_of_morphism(phi) -> SetMap:
    """The label map underlying a morphism of group-like coalgebras."""
    src = grouplike_labels(phi.source)
    tgt = grouplike_labels(phi.target)
    if src is None or tgt is None:
        raise UnsupportedBaseError("both coalgebras must be group-like")
    mapping = {}
    for x, col in zip(src, phi.columns):
        if list(col.values()) != [1]:
            raise UnsupportedBaseError("morphism is not induced by a map "
                                       "of labels")
        mapping[x] = tgt[next(iter(col))]
    return SetMap(src, tgt, mapping)


# -- fiberwise functors -------------------------------------------------------

def graded_cotensor(v: GradedVectorSpace,
                    w: GradedVectorSpace) -> GradedVectorSpace:
    """(V (x)_C W)_x = V_x (x) W_x: dimensions multiply componentwise."""
    if v.labels != w.labels:
        raise ShapeError("label sets differ")
    return GradedVectorSpace(v.labels,
                             [a * b for a, b in zip(v.dims, w.dims)])


def graded_hom_dim(v: GradedVectorSpace, w: GradedVectorSpace) -> int:
    """dim Hom = sum of componentwise products (one block per label)."""
    if v.labels != w.labels:
        raise ShapeError("label sets differ")
    return sum(a * b for a, b in zip(v.dims, w.dims))


def graded_pullback(f: SetMap, w: GradedVectorSpace) -> GradedVectorSpace:
    """(f*W)_x = W_{f(x)}."""
    if f.target != w.labels:
        raise ShapeError("map target does not match the grading")
    return GradedVectorSpace(f.source,
                             [w.dim_of(f(x)) for x in f.source])


def graded_sigma(f: SetMap, v: GradedVectorSpace) -> GradedVectorSpace:
    """(Sigma_f V)_y = direct sum of V_x over the fiber of y."""
    if f.source != v.labels:
        raise ShapeError("map source does not match the grading")
    return GradedVectorSpace(f.target,
                             [sum(v.dim_of(x) for x in f.fiber(y))
                              for y in f.target])


def graded_forall(f: SetMap, v: GradedVectorSpace) -> GradedVectorSpace:
    """(Forall_f V)_y = product of V_x over the fiber of y.

    Finite products and coproducts of vector spaces coincide, so the
    dimensions sum exactly as for the pushforward; the empty fiber gives
    the zero space (the terminal object of Vec).
    """
    if f.source != v.labels:
        raise ShapeError("map source does not match the grading")
    return GradedVectorSpace(f.target,
                             [sum(v.dim_of(x) for x in f.fiber(y))
                              for y in f.target])


def set_fiber_product(f: SetMap, g: SetMap):
    """{(a, b) : f(a) = g(b)} with its two projections."""
    if f.target != g.target:
        raise ShapeError("fiber product needs a common target")
    pairs = tuple((a, b) for a in f.source for b in g.source
                  if f(a) == g(b))
    p1 = SetMap(pairs, f.source, {ab: ab[0] for ab in pairs})
    p2 = SetMap(pairs, g.source, {ab: ab[1] for ab in pairs})
    return pairs, p1, p2
