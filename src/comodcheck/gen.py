"""Seeded random instance generation for law checks.

All generators draw from a ``random.Random`` owned by the caller, so a
fixed seed reproduces the same corpus byte for byte.  Dimensions are kept
at desk scale: the default cap is 4 per graded component and composite
spaces stay small enough for exact elimination to be instant.
"""

from __future__ import annotations

import random
import string

from .coalg import (Coalgebra, CoalgebraMorphism, direct_sum,
                    grouplike_coalgebra, grouplike_labels,
                    grouplike_morphism, product)
from .comod import Comodule, conjugate, graded_comodule
from .errors import UnsupportedBaseError
from .exactlin import _invertible
from .fields import Field


def rng_for(seed: int, *tags) -> random.Random:
    """Deterministic generator derived from a seed and string tags."""
    return random.Random(":".join([str(seed), *map(str, tags)]))


def random_labels(rng: random.Random, max_labels: int,
                  min_labels: int = 1) -> tuple:
    n = rng.randint(min_labels, max_labels)
    return tuple(string.ascii_lowercase[i] for i in range(n))


def random_grouplike(rng: random.Random, field: Field,
                     max_labels: int = 3) -> Coalgebra:
    return grouplike_coalgebra(field, random_labels(rng, max_labels))


def random_coalgebra(rng: random.Random, field: Field,
                     max_labels: int = 5) -> Coalgebra:
    """A random cosemisimple coalgebra built from the constructors."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_grouplike(rng, field, max_labels)
    a = random_grouplike(rng, field, max(1, max_labels // 2))
    b = random_grouplike(rng, field, max(1, max_labels // 2))
    return direct_sum(a, b) if kind == 1 else product(a, b)[0]


def random_setmap_morphism(rng: random.Random, src: Coalgebra,
                           tgt: Coalgebra) -> CoalgebraMorphism:
    """A morphism of group-like coalgebras from a random label map."""
    src_labels = grouplike_labels(src)
    tgt_labels = grouplike_labels(tgt)
    mapping = {x: rng.choice(tgt_labels) for x in src_labels}
    return grouplike_morphism(src, tgt, mapping)


def random_graded_dims(rng: random.Random, n: int, max_dim: int,
                       max_total: int | None = None) -> list[int]:
    """n random dimensions in [0, max_dim].  If they sum past max_total,
    the largest are lowered to a common level (water filling): every
    entry is capped at the least level that still leaves a sum past
    max_total, and the excess left comes off the entries at that level,
    one unit each, in label order, as lowering the first largest entry
    one unit at a time would."""
    dims = [rng.randint(0, max_dim) for _ in range(n)]
    if max_total is None or sum(dims) <= max_total:
        return dims
    level = max(dims)
    while sum(min(d, level - 1) for d in dims) > max_total:
        level -= 1
    dims = [min(d, level) for d in dims]
    excess = sum(dims) - max_total
    for i, d in enumerate(dims):
        if d == level and excess:
            dims[i], excess = level - 1, excess - 1
    return dims


def random_invertible(rng: random.Random, field: Field, n: int):
    """A random invertible n x n matrix with small entries, drawn row by
    row, as its {row: value} column dicts."""
    while True:
        rows = [[field.of(rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(n)]
        cols = [{i: row[j] for i, row in enumerate(rows) if row[j]}
                for j in range(n)]
        if _invertible(field, n, cols):
            return cols


def random_comodule(rng: random.Random, base: Coalgebra, max_dim: int = 4,
                    max_total: int | None = None,
                    conjugated: bool = False) -> Comodule:
    """A random comodule over a group-like base, optionally in a basis
    that scrambles the grading."""
    labels = grouplike_labels(base)
    if labels is None:
        raise UnsupportedBaseError(
            "instance generation needs a group-like base")
    dims = random_graded_dims(rng, len(labels), max_dim, max_total)
    v = graded_comodule(base, dims)
    if conjugated and v.dim:
        v = conjugate(v, random_invertible(rng, base.field, v.dim))
    return v


def corrupt_coalgebra(rng: random.Random, c: Coalgebra):
    """Structure constants obtained by corrupting a valid coalgebra.

    Returns (delta, epsilon) as column dicts, guaranteed to violate at
    least one axiom (corruptions are retried until the constructor rejects
    them).  The corrupted entry is drawn at a row-major index of the
    n^2 x n delta or the 1 x n epsilon.
    """
    n = c.dim
    f = c.field
    while True:
        delta = [dict(col) for col in c._delta_cols]
        eps = [dict(col) for col in c._eps_cols]
        which = rng.randrange(2)
        if which == 0 and n > 0:
            row, j = divmod(rng.randrange(n * n * n), n)
            delta[j][row] = f.of(delta[j].get(row, 0)
                                 + rng.choice([1, 2, -1]))
        elif n > 0:
            j = rng.randrange(n)
            eps[j][0] = f.of(eps[j].get(0, 0) + rng.choice([1, -1]))
        try:
            Coalgebra(f, n, delta, eps)
        except Exception:
            return delta, eps
