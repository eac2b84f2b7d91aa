"""Comodules over a fixed cocommutative coalgebra.

A comodule is a coaction rho: V -> V (x) C, stored as the nonzeros of
its columns (``_rho_cols``, one {row: value} dict per basis vector of V),
satisfying the counit and coassociativity laws, both checked at
construction; every constructor builds those dicts directly.  A morphism
intertwines two coactions, checked likewise, and is stored as the column
dicts of its matrix.  The monoidal product is the cotensor V (x)_C W:
the kernel of the two natural maps
V (x) W -> V (x) C (x) W, carrying the coaction induced by restricting
id_V (x) rho_W.  ``coherence`` computes its structural isomorphisms
(associators, unitors, braiding) on explicit bases and verifies the
coherence diagrams (pentagon, triangle, symmetry hexagon) as exact matrix
identities, building each cotensor presentation once per call.  The
structure maps multiply no matrices: each is read as coordinate columns
by ``Chart.coords`` or ``Subspace.coords`` from column dicts (a chart's
``columns``, a cotensor basis's ``columns`` with its keys permuted for
the transposition, ``_kron_cols`` of f and g for ``tensor_morphism``, and
``_rho_cols`` for the unitor inverses), and the diagrams and the unitors'
inverse pairs compose those columns with ``_kron_cols`` (``_composite``)
and compare them with ``_difference``.

Hom spaces are cotensors too: the base is cocommutative, so the dual V*
is a comodule V^vee (``dual_comodule``) and Hom^C(V, W) = W (x)_C V^vee
inside W (x) V*.  Every kernel-defined object (cotensor, pullback, hom)
is read off ``_cotensor_kernel``: the image of an idempotent built from
the retraction r_V over a base with a coseparability form gamma, else the
kernel of one matrix A, read off its sparse rows; A B = 0 certifies the
basis B on both paths (for a hom space, the intertwining equation of every
basis map).  Injectivity is decided by a splitting: rho_V embeds V into the
cofree comodule V (x) C, which is injective, so V is injective iff that
embedding splits.  Over a base with gamma the splitting is r_V, checked by
two exact equations; otherwise a splitting is solved for in
Hom^C(V (x) C, V).  Coflatness agrees with injectivity at finite dimension.

Every certificate here (the comodule and morphism laws, A B = 0, the
restriction equation (B (x) I_n) rho = (id (x) rho_W) B of a cotensor's
coaction, r rho = id and the splitting equation of ``is_injective``) is
evaluated by ``exactlin._kron_cols`` from the column dicts of its factors
(``_rho_cols``, ``_delta_cols``, ``Subspace.columns``), in the
sparse-column style of Gustavson (1978), and compared by
``exactlin._difference``; none multiplies two matrices.

The internal hom is that cotensor on every base: [V, W] = W (x)_C V^vee,
whose underlying space is Hom^C(V, W).
"""

from __future__ import annotations

from .coalg import Coalgebra, coseparability_form, grouplike_labels
from .errors import AxiomError, BaseMismatchError, UnsupportedBaseError
from .exactlin import (Chart, Matrix, ShapeError, Subspace, _checked_columns,
                       _dense_columns, _difference, _inverse, _inverse_pair,
                       _invertible, _is_identity, _kron_cols, _null_space,
                       _reduced, _solve, _swapped, _transposed)

__all__ = [
    "Comodule", "ComoduleMorphism", "regular_comodule", "cofree_comodule",
    "zero_comodule", "graded_comodule", "dual_comodule", "hom_space",
    "cotensor", "tensor_morphism", "left_unitor", "right_unitor",
    "braiding", "coherence", "internal_hom", "coseparability_retraction",
    "is_injective", "is_coflat", "direct_sum", "conjugate",
]


class Comodule:
    """Finite-dimensional comodule (V, rho) over a fixed base coalgebra.

    ``rho_cols`` are the m columns of rho (rows below m*n) as {row: value}
    dicts whose sums may be unreduced; they are reduced once and stored as
    ``_rho_cols``, the only form of rho, so equal comodules store equal
    dicts.  Both coaction axioms are verified from those nonzeros, and
    ``rho`` is a dense view built on each read.  ``_retraction`` holds the
    column dicts of r_V once ``coseparability_retraction`` has built and
    certified it, so each comodule object builds it at most once.
    """

    __slots__ = ("base", "dim", "_rho_cols", "_retraction")

    def __init__(self, base: Coalgebra, dim: int, rho_cols):
        m, n = dim, base.dim
        p = base.field.char
        rcols = _checked_columns(rho_cols, m, m * n, p, "rho")
        bad = _difference(_kron_cols(m, base._eps_cols, 1, rcols),
                          [{j: 1} for j in range(m)], p)
        if bad:
            raise AxiomError("comodule-counit", "(id x eps) rho != id",
                             witness=bad)
        bad = _difference(_kron_cols(m, base._delta_cols, n * n, rcols),
                          _kron_cols(rcols, n, n, rcols), p)
        if bad:
            raise AxiomError("comodule-coassociativity",
                             "(id x delta) rho != (rho x id) rho",
                             witness=bad)
        self.base = base
        self.dim = m
        self._rho_cols = rcols
        self._retraction = None

    @property
    def field(self):
        return self.base.field

    @property
    def rho(self) -> Matrix:
        """The (m*n) x m coaction matrix, built on each read."""
        return _dense_columns(self.field, self.dim * self.base.dim,
                              self._rho_cols)

    def identity_morphism(self) -> "ComoduleMorphism":
        return ComoduleMorphism(self, self,
                                [{t: 1} for t in range(self.dim)])

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, Comodule) and other.base == self.base
                and other.dim == self.dim
                and other._rho_cols == self._rho_cols)

    def __repr__(self):
        return f"Comodule(dim {self.dim} over base dim {self.base.dim})"


class ComoduleMorphism:
    """Linear map intertwining the coactions, verified from nonzeros.

    ``columns`` are the source.dim columns of its target.dim x source.dim
    matrix as {row: value} dicts (sums may be unreduced), reduced once and
    stored as the only form of the map; composition, the isomorphism test
    and equality read them, and ``matrix`` is a dense view built on each
    read."""

    __slots__ = ("source", "target", "columns")

    def __init__(self, source: Comodule, target: Comodule, columns):
        if source.base != target.base:
            raise BaseMismatchError("morphism needs a common base coalgebra")
        n, p = source.base.dim, source.field.char
        fcols = _checked_columns(columns, source.dim, target.dim, p,
                                 "matrix")
        bad = _difference(_kron_cols(fcols, n, n, source._rho_cols),
                          _kron_cols(target._rho_cols, 1, 1, fcols), p)
        if bad:
            raise AxiomError("comodule-morphism", "(f x id) rho_V != rho_W f",
                             witness=bad)
        self.source = source
        self.target = target
        self.columns = fcols

    @property
    def matrix(self) -> Matrix:
        """The target.dim x source.dim matrix, built on each read."""
        return _dense_columns(self.source.field, self.target.dim,
                              self.columns)

    def __matmul__(self, other: "ComoduleMorphism") -> "ComoduleMorphism":
        if other.target != self.source:
            raise BaseMismatchError("morphisms do not compose")
        return ComoduleMorphism(other.source, self.target, _kron_cols(
            self.columns, 1, 1, other.columns))

    def is_isomorphism(self) -> bool:
        return _invertible(self.source.field, self.target.dim, self.columns)

    def __eq__(self, other):
        return (isinstance(other, ComoduleMorphism)
                and other.source == self.source
                and other.target == self.target
                and other.columns == self.columns)

    def __repr__(self):
        return f"ComoduleMorphism({self.source.dim} -> {self.target.dim})"


# -- constructors ------------------------------------------------------------

def regular_comodule(c: Coalgebra) -> Comodule:
    """C over itself, coaction = comultiplication."""
    return Comodule(c, c.dim, c._delta_cols)


def cofree_comodule(c: Coalgebra, d: int) -> Comodule:
    """V0 (x) C with coaction id (x) delta; injective for every d: column
    i*n + j is delta(e_j) with its keys moved up by i*n^2."""
    if d < 0:
        raise ShapeError("dimension must be nonnegative")
    nn = c.dim * c.dim
    return Comodule(c, d * c.dim, [{i * nn + k: x for k, x in col.items()}
                                   for i in range(d)
                                   for col in c._delta_cols])


def zero_comodule(c: Coalgebra) -> Comodule:
    return Comodule(c, 0, [])


def graded_comodule(c: Coalgebra, dims) -> Comodule:
    """Canonical comodule over a group-like base with the given grading."""
    labels = grouplike_labels(c)
    if labels is None:
        raise UnsupportedBaseError("graded comodules need a group-like base")
    dims = list(dims)
    if len(dims) != c.dim:
        raise ShapeError("one dimension per label required")
    n = c.dim
    grades = [x for x, d in enumerate(dims) for _ in range(d)]
    return Comodule(c, len(grades), [{k * n + x: 1}
                                     for k, x in enumerate(grades)])


def direct_sum(v: Comodule, w: Comodule) -> Comodule:
    """Block coaction on the concatenated space: key a*n + c of rho_W
    moves to (m_V + a)*n + c."""
    if v.base != w.base:
        raise BaseMismatchError("direct sum needs a common base")
    off = v.dim * v.base.dim
    return Comodule(v.base, v.dim + w.dim, v._rho_cols + [
        {k + off: x for k, x in col.items()} for col in w._rho_cols])


def conjugate(v: Comodule, s) -> Comodule:
    """Transport the coaction along an invertible change of basis S, given
    by its {row: value} columns: (S (x) I_n) rho S^-1, applied to the
    columns of S^-1 (``exactlin._inverse``)."""
    m, n = v.dim, v.base.dim
    s = _checked_columns(s, m, m, v.field.char, "change of basis")
    s_inv = _inverse(v.field, m, s)
    if s_inv is None:
        raise ShapeError("change of basis must be invertible")
    return Comodule(v.base, m, _kron_cols(
        s, n, n, _kron_cols(v._rho_cols, 1, 1, s_inv)))


# -- cotensor product and hom spaces ------------------------------------------

def _cotensor_columns(v: Comodule, w: Comodule):
    """The columns of A = (rho_V (x) id_W) - (id_V (x) tau rho_W):
    V (x) W -> V (x) C (x) W, whose kernel is V (x)_C W, as {row: value}
    dicts whose sums may be unreduced, from the two ``_cotensor_halves``."""
    lhs, rhs = _cotensor_halves(v, w, [{t: 1}
                                       for t in range(v.dim * w.dim)])
    for col, sub in zip(lhs, rhs):
        for k, x in sub.items():
            col[k] = col.get(k, 0) - x
    return lhs


def _cotensor_kernel(v: Comodule, w: Comodule) -> Subspace:
    """V (x)_C W = ker A for A = rho_V (x) id_W - id_V (x) lambda_W, where
    lambda_W = tau rho_W (``_cotensor_columns``), as a canonical subspace.

    Over a base with a coseparability form it is read off as the image of
    the idempotent e = (r_V (x) id_W)(id_V (x) lambda_W), for the retraction
    r_V of ``coseparability_retraction``: ``Subspace`` reduces the columns
    of e, which are n times fewer entries than A's rows.  Two exact
    equations prove ker A = im e:

    - ker A in im e: r_V rho_V = id (checked when r_V is built), so for
      x in ker A, e x = (r_V (x) id)(rho_V (x) id) x = x;
    - im e in ker A: A B = 0 on the canonical basis B of im e
      (``_annihilated``), evaluated column by column from the nonzeros of
      B, rho_V and rho_W, with no product of matrices.

    A failure of either raises ``AxiomError("coseparability")``.  Without
    a coseparability form (N, for one) ker A is read off the rows of A,
    its columns transposed (``_null_space``), and A B = 0 certifies its
    basis all the same (else "cotensor-kernel").  B's columns serve the
    restriction equation of ``_restricted_coaction`` too.
    """
    r, size = coseparability_retraction(v), v.dim * w.dim
    if r is None:
        sub, axiom = _null_space(v.field, _transposed(
            _cotensor_columns(v, w), v.dim * v.base.dim * w.dim),
            size), "cotensor-kernel"
    else:
        sub, axiom = Subspace(v.field, size, _cotensor_idempotent(
            r, v, w), _canonical=False), "coseparability"
    if not _annihilated(v, w, sub.columns):
        raise AxiomError(axiom, "A e != 0: a basis vector e of the kernel "
                         "maps outside the cotensor")
    return sub


def _cotensor_idempotent(rcols, v: Comodule, w: Comodule):
    """The columns of e = (r_V (x) id_W)(id_V (x) lambda_W) on V (x) W as
    unreduced {row: sum} dicts, from the nonzeros of r_V (its columns
    ``rcols``) and rho_W, never building e or either Kronecker product."""
    n, mv, mw = v.base.dim, v.dim, w.dim
    lam = _swapped(w._rho_cols, 1, mw, n, 1)
    return _kron_cols(rcols, mw, mw, _kron_cols(
        mv, lam, n * mw, [{t: 1} for t in range(mv * mw)]))


def _cotensor_halves(v: Comodule, w: Comodule, columns):
    """The two halves of A (``_cotensor_columns``), rho_V (x) I_{m_W} and
    I_{m_V} (x) lambda_W, applied to the {row: value} columns x, from the
    nonzeros of rho_V and rho_W; lambda_W = tau rho_W has rows c*m_W + k."""
    n, mv, mw = v.base.dim, v.dim, w.dim
    lam = _swapped(w._rho_cols, 1, mw, n, 1)
    return (_kron_cols(v._rho_cols, mw, mw, columns),
            _kron_cols(mv, lam, n * mw, columns))


def _annihilated(v: Comodule, w: Comodule, columns) -> bool:
    """A B = 0 for A of ``_cotensor_columns``, from the nonzeros of B
    (``columns``), never building A: the two halves of A agree on B."""
    return _difference(*_cotensor_halves(v, w, columns),
                       v.field.char) is None


def dual_comodule(v: Comodule) -> Comodule:
    """V^vee: the dual space V* with coaction components rho_c^T, where
    rho_V(e_j) = sum_c rho_c e_j (x) c.  It is a comodule because the base
    is cocommutative; the constructor certifies the axioms."""
    m, n = v.dim, v.base.dim
    cols = [{} for _ in range(m)]
    for i, col in enumerate(v._rho_cols):
        for idx, x in col.items():
            j, c = divmod(idx, n)
            cols[j][i * n + c] = x
    return Comodule(v.base, m, cols)


def hom_space(v: Comodule, w: Comodule) -> Subspace:
    """Hom^C(V, W) = W (x)_C V^vee, the canonical subspace of W (x) V*.

    The flat index a*dim V + j of W (x) V* is the row-major vec of a
    w.dim x v.dim matrix, so each basis column is a map f.  The kernel
    certificate A B = 0 reads (f (x) id) rho_V = rho_W f on every column,
    so no map is checked again.  Over a base with a coseparability form,
    the idempotent of ``_cotensor_kernel`` is the Reynolds operator
    f -> r_W (f (x) id_C) rho_V = sum_c R_c f rho_c, for
    r_W(w (x) c) = R_c w: a projection of Hom_k(V, W) onto Hom^C(V, W).
    """
    if v.base != w.base:
        raise BaseMismatchError("hom needs a common base")
    return _cotensor_kernel(w, dual_comodule(v))


def _restricted_coaction(base: Coalgebra, right_cols, sub: Subspace,
                         name: str) -> Comodule:
    """The comodule on ``sub`` whose coaction restricts id_L (x) right, for
    ``sub`` inside an L (x) M ambient and right: M -> M (x) base given by
    its column dicts (``w._rho_cols`` for a cotensor with W,
    ``d._delta_cols`` for a pullback to D).

    It is evaluated from the nonzeros of the canonical basis B
    (``sub.columns``, read once with the kernel's A B = 0).  The image
    (id (x) right) B_t is a {row: value} dict; its entries at the pivot
    rows p*n + c of B, moved to the slots s*n + c of the s-th pivot, are
    the coordinates rho_t, and (B (x) I_n) rho = image is checked exactly
    (else ``AxiomError(name)``).  As B is injective and
    id (x) right is a coaction, that equation implies counit and
    coassociativity of rho, so the result is built without the
    ``Comodule`` axiom checks, and the checked columns rho_t are its
    ``_rho_cols``.
    """
    n, mm, p = base.dim, len(right_cols), base.field.char
    columns = sub.columns
    slots = {piv * n + c: s * n + c for s, piv in enumerate(sub.pivots)
             for c in range(n)}
    left = sub.ambient // mm if mm else 0
    img = _kron_cols(left, right_cols, mm * n, columns)
    rho_cols = [{slots[k]: r for k, y in col.items()
                 if k in slots and (r := y % p if p else y)} for col in img]
    if _difference(_kron_cols(columns, n, n, rho_cols), img, p) is not None:
        raise AxiomError(name, "induced coaction does not restrict")
    mod = Comodule.__new__(Comodule)
    mod.base, mod.dim = base, sub.dim
    mod._rho_cols, mod._retraction = rho_cols, None
    return mod


def cotensor(v: Comodule, w: Comodule):
    """The comodule V (x)_C W with its subspace of V (x) W.

    Underlying space: kernel of (rho_V x id_W) - (id_V x tau rho_W), as a
    canonical subspace; the coaction is the restriction of id_V x rho_W.
    Returns (comodule, subspace), the shape of ``pullback_functor``.
    """
    if v.base != w.base:
        raise BaseMismatchError("cotensor needs a common base")
    sub = _cotensor_kernel(v, w)
    return _restricted_coaction(v.base, w._rho_cols, sub,
                                "cotensor-coaction"), sub


def internal_hom(v: Comodule, w: Comodule):
    """[V, W] = W (x)_C V^vee on any base, the kernel ``hom_space`` reads
    as a comodule: returns (comodule, subspace of W (x) V*)."""
    return cotensor(w, dual_comodule(v))


class _Obj:
    """A comodule presented inside a flat tensor product of atoms.

    ``parts`` is None for atoms and pullbacks and (left, right,
    pair_subspace) for cotensor objects, where the subspace lives in the
    tensor product of the two factor modules (not the flat ambient).  A
    check builds each presentation once and reads its structure maps off it.
    """

    __slots__ = ("module", "chart", "parts")

    def __init__(self, module: Comodule, chart: Chart, parts=None):
        self.module = module
        self.chart = chart
        self.parts = parts


def atom(v: Comodule) -> _Obj:
    return _Obj(v, Chart.identity(v.field, v.dim))


def ct(a: _Obj, b: _Obj) -> _Obj:
    """Cotensor of two presented comodules, presented in the joint ambient."""
    module, sub = cotensor(a.module, b.module)
    return _Obj(module, Chart.restrict(Chart.kron(a.chart, b.chart), sub),
                parts=(a, b, sub))


def _structure_map(src: _Obj, tgt: _Obj, name: str) -> ComoduleMorphism:
    """The canonical identification of two presentations of one subspace."""
    cols = tgt.chart.coords(src.chart.columns)
    if cols is None:
        raise AxiomError(name, "presentations span different subspaces")
    return ComoduleMorphism(src.module, tgt.module, cols)


def _transposition(src: _Obj, tgt: _Obj) -> ComoduleMorphism:
    """sigma: A (x) B -> B (x) A from src = ct(a, b) to tgt = ct(b, a);
    tau moves key i*m_B + j of a source basis column to j*m_A + i."""
    a, b, ssub = src.parts
    _, _, tsub = tgt.parts
    cols = tsub.coords(_swapped(ssub.columns, 1, a.module.dim,
                                b.module.dim, 1))
    if cols is None:
        raise AxiomError("braiding", "tau does not map between equalizers")
    return ComoduleMorphism(src.module, tgt.module, cols)


def tensor_morphism(f: ComoduleMorphism, g: ComoduleMorphism,
                    src: _Obj, tgt: _Obj) -> ComoduleMorphism:
    """f (x) g restricted to the cotensor subobjects src -> tgt."""
    if src.parts is None or tgt.parts is None:
        raise ShapeError("tensor_morphism needs cotensor objects")
    sa, sb, ssub = src.parts
    ta, tb, tsub = tgt.parts
    if f.source != sa.module or f.target != ta.module \
            or g.source != sb.module or g.target != tb.module:
        raise BaseMismatchError("factor morphisms do not match the objects")
    cols = tsub.coords(_kron_cols(f.columns, g.columns, g.target.dim,
                                  ssub.columns))
    if cols is None:
        raise AxiomError("tensor-morphism",
                         "f (x) g does not map into the target equalizer")
    return ComoduleMorphism(src.module, tgt.module, cols)


def _composite(*maps):
    """The columns of the composite maps[0] ... maps[-1] of morphisms, the
    last applied first, as unreduced {row: sum} dicts: each factor is
    applied to the columns so far by ``_kron_cols``, from nonzeros."""
    cols = maps[-1].columns
    for mor in reversed(maps[:-1]):
        cols = _kron_cols(mor.columns, 1, 1, cols)
    return cols


def braiding(a: _Obj, b: _Obj):
    """sigma: A (x) B -> B (x) A induced by the transposition."""
    src = ct(a, b)
    tgt = ct(b, a)
    return _transposition(src, tgt), src, tgt


def _right_unitor(vc: _Obj):
    """rho: V (x)_C C -> V on the presentation vc = ct(V, C), with inverse
    the coaction."""
    av, _, sub = vc.parts
    v = av.module
    mor = ComoduleMorphism(vc.module, v, _kron_cols(
        v.dim, v.base._eps_cols, 1, sub.columns))
    back = sub.coords(v._rho_cols)
    if back is None or not _inverse_pair(mor.columns, back, v.field.char):
        raise AxiomError("right-unitor", "coaction fails to invert id x eps")
    return mor, ComoduleMorphism(v, vc.module, back)


def _left_unitor(cv: _Obj):
    """lambda: C (x)_C V -> V on the presentation cv = ct(C, V), with
    inverse the swapped coaction: key a*n + c of rho_V's columns moves to
    c*m + a."""
    _, av, sub = cv.parts
    v = av.module
    m, n = v.dim, v.base.dim
    mor = ComoduleMorphism(cv.module, v, _kron_cols(
        v.base._eps_cols, m, m, sub.columns))
    back = sub.coords(_swapped(v._rho_cols, 1, m, n, 1))
    if back is None or not _inverse_pair(mor.columns, back, v.field.char):
        raise AxiomError("left-unitor", "coaction fails to invert eps x id")
    return mor, ComoduleMorphism(v, cv.module, back)


def right_unitor(v: Comodule):
    """rho: V (x)_C C -> V, x (x) c -> x eps(c), with inverse the coaction."""
    return _right_unitor(ct(atom(v), atom(regular_comodule(v.base))))


def left_unitor(v: Comodule):
    """lambda: C (x)_C V -> V with inverse the swapped coaction."""
    return _left_unitor(ct(atom(regular_comodule(v.base)), atom(v)))


def coherence(u: Comodule, v: Comodule, w: Comodule, x: Comodule):
    """The structural isomorphisms and coherence diagrams of the cotensor.

    Certifies, in this order: the associator, unitors and braiding for
    (u, v, w) are invertible; the pentagon on (u, v, w, x); the triangle
    on (u, v); the braiding involution, rho = lambda sigma and the hexagon
    on (u, v, w).  The associator and the braiding are eliminated once
    each; a unitor is invertible because ``_left_unitor`` and
    ``_right_unitor`` check its exact inverse pair, fwd back = id and
    back fwd = id, so it is not eliminated again.  A table
    local to the call makes one atom per distinct comodule object and one
    ``ct`` per distinct (left, right) pair, which every map on that
    presentation shares.  Returns (isomorphisms, failing) where failing
    names the first diagram that does not commute ("pentagon", "triangle"
    or "symmetry"), or is None; the braiding's source is u (x)_C v.
    """
    atoms = {}
    table = {}

    def obj(m):
        if id(m) not in atoms:
            atoms[id(m)] = atom(m)
        return atoms[id(m)]

    def t(left, right):
        if (left, right) not in table:
            table[left, right] = ct(left, right)
        return table[left, right]

    def alpha(p, q, r):
        """P (x) (Q (x) R) -> (P (x) Q) (x) R."""
        return _structure_map(t(p, t(q, r)), t(t(p, q), r), "associator")

    def sigma(p, q):
        return _transposition(t(p, q), t(q, p))

    def commutes(lhs, rhs):
        return _difference(lhs, rhs, u.field.char) is None

    a, b, c, d = obj(u), obj(v), obj(w), obj(x)
    i = obj(regular_comodule(u.base))
    alpha_abc, sigma_ab = alpha(a, b, c), sigma(a, b)
    lam, lam_inv = _left_unitor(t(i, a))
    rho, rho_inv = _right_unitor(t(a, i))
    for name, mor in (("associator", alpha_abc), ("braiding", sigma_ab)):
        if not mor.is_isomorphism():
            raise AxiomError(name, "structural morphism is not invertible")
    isos = {"associator": alpha_abc, "left_unitor": lam,
            "right_unitor": rho, "braiding": sigma_ab,
            "left_unitor_inv": lam_inv, "right_unitor_inv": rho_inv}
    # pentagon: (alpha x 1) alpha (1 x alpha) = alpha alpha
    bc, ab = t(b, c), t(a, b)
    e1 = tensor_morphism(u.identity_morphism(), alpha(b, c, d),
                         t(a, t(b, t(c, d))), t(a, t(bc, d)))
    e3 = tensor_morphism(alpha_abc, x.identity_morphism(),
                         t(t(a, bc), d), t(t(ab, c), d))
    if not commutes(_composite(e3, alpha(a, bc, d), e1),
                    _composite(alpha(ab, c, d), alpha(a, b, t(c, d)))):
        return isos, "pentagon"
    # triangle: (rho_u x 1) alpha = 1 x lambda_v on u (x) (C (x) v)
    left = tensor_morphism(rho, v.identity_morphism(), t(t(a, i), b), ab)
    right = tensor_morphism(u.identity_morphism(), _left_unitor(t(i, b))[0],
                            t(a, t(i, b)), ab)
    if not commutes(_composite(left, alpha(a, i, b)), right.columns):
        return isos, "triangle"
    # symmetry: the braiding is an involution, rho = lambda sigma on
    # u (x) C, and the hexagon
    if not _is_identity(_composite(sigma(b, a), sigma_ab), u.field.char):
        return isos, "symmetry"
    if not commutes(_composite(lam, sigma(a, i)), rho.columns):
        return isos, "symmetry"
    lhs = _composite(alpha(c, a, b), sigma(ab, c), alpha_abc)
    e1 = tensor_morphism(u.identity_morphism(), sigma(b, c), t(a, bc),
                         t(a, t(c, b)))
    e2 = tensor_morphism(sigma(a, c), v.identity_morphism(), t(t(a, c), b),
                         t(t(c, a), b))
    if not commutes(lhs, _composite(e2, alpha(a, c, b), e1)):
        return isos, "symmetry"
    return isos, None


# -- injectivity --------------------------------------------------------------

def coseparability_retraction(v: Comodule):
    """r = (id_V (x) gamma)(rho_V (x) id_C): V (x) C -> V for the
    coseparability form gamma of the base (``coalg.coseparability_form``),
    or None when the base has none.  Over a group-like base
    r(v (x) x) = pi_x v, the projection onto the component of x.

    r_V is returned as its m*n reduced {row: value} columns, built from
    the nonzeros of rho_V and of gamma's rows,
    r[a2, a*n + c] = sum_d rho[a2*n + d, a] gamma(e_d (x) e_c), kept on v
    once r rho_V = id is checked from nonzeros; a failure raises
    ``AxiomError``.
    """
    gamma = coseparability_form(v.base)
    if gamma is None:
        return None
    if v._retraction is None:
        p, n, m = v.field.char, v.base.dim, v.dim
        rcols = [{} for _ in range(m * n)]
        for a, col in enumerate(v._rho_cols):
            for idx, x in col.items():
                a2, d = divmod(idx, n)
                for c, y in gamma[d].items():
                    out = rcols[a * n + c]
                    out[a2] = out.get(a2, 0) + x * y
        rcols = _reduced(rcols, p)
        if _difference(_kron_cols(rcols, 1, 1, v._rho_cols),
                       [{j: 1} for j in range(m)], p) is not None:
            raise AxiomError("coseparability",
                             "r rho != id for r = (id x gamma)(rho x id)")
        v._retraction = rcols
    return v._retraction


def is_injective(v: Comodule) -> bool:
    """Decide injectivity: rho_V embeds V into the cofree comodule V (x) C,
    which is injective, so V is injective iff that embedding splits.

    When the base has a coseparability form, the retraction r of
    ``coseparability_retraction`` is a splitting, certified by two exact
    equations: r rho_V = id (checked when r is built) and
    (r (x) id)(id_V (x) delta) = rho_V r.  The second is compared from
    the nonzeros of r, delta and rho_V, the left side as r (x) I_n applied
    to the columns of I_m (x) delta; neither side is built as an
    (m*n) x (m*n) matrix.
    Either failing is an internal fault and raises ``AxiomError``.
    Without a coseparability form (N, for one) a splitting s is solved for
    exactly, by one ``_solve`` on columns: the cotensor equations of
    Hom^C(V (x) C, V) (``_cotensor_columns``) with the rows of
    s rho_V = id stacked below them.
    """
    r = coseparability_retraction(v)
    if r is None:
        # s in Hom^C(V (x) C, V) = V (x)_C (V (x) C)^vee with s rho_V = id;
        # the rows of vec(s rho_V) are id_V (x) rho_V^T, stacked below
        # the top = (m*n)^2 cotensor rows
        m, mn = v.dim, v.dim * v.base.dim
        dual = dual_comodule(cofree_comodule(v.base, m))
        top = mn * mn
        system = _cotensor_columns(v, dual)
        lower = _kron_cols(m, _transposed(v._rho_cols, mn), m,
                           [{t: 1} for t in range(m * mn)])
        for col, low in zip(system, lower):
            col.update({top + k: x for k, x in low.items()})
        return _solve(v.field.char, top + m * m, system,
                      [{top + i * m + i: 1 for i in range(m)}]) is not None
    m, n = v.dim, v.base.dim
    ident = [{t: 1} for t in range(m * n)]
    lhs = _kron_cols(r, n, n, _kron_cols(m, v.base._delta_cols, n * n,
                                         ident))
    if _difference(lhs, _kron_cols(v._rho_cols, 1, 1, r),
                   v.field.char) is not None:
        raise AxiomError("coseparability", "(r x id)(id x delta) != rho r: "
                         "r is not a comodule map")
    return True


def is_coflat(v: Comodule) -> bool:
    """Coflat iff injective at finite dimension."""
    return is_injective(v)

