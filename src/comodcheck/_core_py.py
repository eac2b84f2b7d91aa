"""The elimination kernel of ``exactlin``, and the flat adapters.

The eliminations run on sparse rows, one ``{column: value}`` dict per
nonzero row (the systems of this domain are mostly zero), and
``rref_rows`` reduces them over Q or F_p: it is the one elimination of
the package.  ``bareiss_echelon`` and ``rref_mod`` wrap the row kernels
for flat row-major lists, and ``mul_obj`` and ``mul_mod`` are flat dense
products.  No module of the package calls these four: the test suite's
dense references do, and the benchmark tracer (``perfbench/spans.py``)
looks them up by name.
"""

from fractions import Fraction
from math import gcd, lcm


def mul_obj(a, b, m, k, n):
    """Product of an m*k and a k*n matrix with exact (int/Fraction) entries."""
    out = [0] * (m * n)
    for i in range(m):
        ai = i * k
        oi = i * n
        for t in range(k):
            x = a[ai + t]
            if x:
                bt = t * n
                for j in range(n):
                    y = b[bt + j]
                    if y:
                        out[oi + j] += x * y
    return out


def mul_mod(a, b, m, k, n, p):
    """Product of an m*k and a k*n matrix over F_p (entries in range(p))."""
    out = [0] * (m * n)
    for i in range(m):
        ai = i * k
        oi = i * n
        for t in range(k):
            x = a[ai + t]
            if x:
                bt = t * n
                for j in range(n):
                    y = b[bt + j]
                    if y:
                        out[oi + j] = (out[oi + j] + x * y) % p
    return out


def _sparse_rows(data, rows, cols):
    """The nonzero rows of a flat matrix as {column: value} dicts, each
    with its columns in increasing order."""
    out = []
    for s in range(0, rows * cols, cols or 1):
        row = data[s:s + cols]
        if any(row):
            out.append({j: x for j, x in enumerate(row) if x})
    return out


def _dense(echelon, rows, cols):
    """A flat rows x cols list with the given sparse rows on top."""
    out = [0] * (rows * cols)
    for r, row in enumerate(echelon):
        s = r * cols
        for j, x in row.items():
            out[s + j] = x
    return out


def _take_pivot(bucket, key):
    """Remove and return the row of ``bucket`` with the least ``key``."""
    if len(bucket) == 1:
        return bucket.pop()
    return bucket.pop(min(range(len(bucket)), key=lambda i: key(bucket[i])))


def bareiss_echelon(data, rows, cols):
    """``_bareiss_rows`` of a flat matrix, as a new flat list of ints."""
    echelon, pivots = _bareiss_rows(_sparse_rows(data, rows, cols), cols)
    return _dense(echelon, rows, cols), pivots


def rref_mod(data, rows, cols, p):
    """``rref_rows`` of a flat matrix over F_p, as a new flat list."""
    echelon, pivots = rref_rows(_sparse_rows(data, rows, cols), cols, p)
    return _dense(echelon, rows, cols), pivots


def _bareiss_rows(rows, cols):
    """Fraction-free row echelon form over Q of {column: value} rows.

    Returns ``(echelon, pivots)``: new integer rows, one per pivot column
    in ``pivots``.  Each row is scaled to integers as it is read, which
    changes neither its row space nor the pivot columns.  The rows wait in
    buckets keyed by their least column.  At pivot column c only the rows
    of bucket c change: each, with x in column c, becomes
    (piv/g)*row - (x/g)*pivot_row, g = gcd(piv, x), divided by its
    content.  That is the primitive integer row in the direction of the
    rational Gauss step, so it is never longer than Bareiss's row of
    minors for the same sequence of pivot rows.
    """
    lead = {}
    for row in rows:
        row = {j: x for j, x in row.items() if x}
        if not row:
            continue
        if set(map(type, row.values())) != {int}:
            l = lcm(*[x.denominator for x in row.values()])
            row = {j: x.numerator * (l // x.denominator)
                   for j, x in row.items()}
        lead.setdefault(min(row), []).append(row)
    echelon, pivots = [], []
    for c in range(cols):
        bucket = lead.pop(c, None)
        if bucket is None:
            continue
        # the shortest row fills in least, a small pivot scales least
        prow = _take_pivot(bucket, lambda row: (len(row), abs(row[c])))
        echelon.append(prow)
        pivots.append(c)
        if not bucket:
            continue
        if prow[c] < 0:
            prow = echelon[-1] = {j: -x for j, x in prow.items()}
        piv = prow[c]
        rest = [(j, y) for j, y in prow.items() if j != c]
        for row in bucket:
            x = row.pop(c)
            g = gcd(piv, x)
            a, b = piv // g, x // g
            if a != 1:
                row = {j: a * v for j, v in row.items()}
            for j, y in rest:
                v = row.get(j, 0) - b * y
                if v:
                    row[j] = v
                else:
                    del row[j]
            if row:
                g = gcd(*row.values())
                if g != 1:
                    row = {j: v // g for j, v in row.items()}
                lead.setdefault(min(row), []).append(row)
    return echelon, pivots


def _forward_mod(rows, cols, p):
    """Row echelon form over F_p of {column: value} rows (values may be
    unreduced), each pivot scaled to 1; only the rows with a nonzero in
    the pivot column are updated, as in ``_bareiss_rows``."""
    lead = {}
    for row in rows:
        row = {j: r for j, x in row.items() if (r := x % p)}
        if row:
            lead.setdefault(min(row), []).append(row)
    echelon, pivots = [], []
    for c in range(cols):
        bucket = lead.pop(c, None)
        if bucket is None:
            continue
        prow = _take_pivot(bucket, len)
        inv = pow(prow[c], -1, p)
        if inv != 1:
            prow = {j: x * inv % p for j, x in prow.items()}
        echelon.append(prow)
        pivots.append(c)
        if not bucket:
            continue
        rest = [(j, y) for j, y in prow.items() if j != c]
        for row in bucket:
            _subtract(row, row.pop(c), rest, p)
            if row:
                lead.setdefault(min(row), []).append(row)
    return echelon, pivots


def rref_rows(rows, cols, p):
    """Reduced row echelon form ``(rref, pivots)`` of {column: value} rows
    (keys in any order, sums unreduced) over Q (p = 0) or F_p: one row
    per pivot column, with no zero entry.  After the forward pass of the
    field, one backward pass takes the rows last first.  A reduced row
    holds no pivot column but its own, so the pivot columns a row holds
    are fixed before its reduction starts: it subtracts, for each, that
    multiple of the reduced row of the column, and is then scaled to 1
    at its pivot (over Q ``x // piv`` when exact, else a ``Fraction``).
    So the pass touches only the nonzeros it reaches.
    """
    echelon, pivots = (_forward_mod(rows, cols, p) if p
                       else _bareiss_rows(rows, cols))
    at = {c: r for r, c in enumerate(pivots)}
    for r in range(len(echelon) - 1, -1, -1):
        c, row = pivots[r], echelon[r]
        for s, x in [(at[j], x) for j, x in row.items()
                     if j != c and j in at]:
            _subtract(row, x, echelon[s].items(), p)
        piv = row[c]
        if piv != 1:
            echelon[r] = {j: x // piv if x % piv == 0 else Fraction(x, piv)
                          for j, x in row.items()}
    return echelon, pivots


def _subtract(row, x, rest, p):
    """row -= x * rest in place over Q (p = 0) or F_p, dropping the
    zeros."""
    for j, y in rest:
        v = row.get(j, 0) - x * y
        if p:
            v %= p
        if v:
            row[j] = v
        else:
            del row[j]
