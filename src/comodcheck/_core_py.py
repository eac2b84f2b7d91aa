"""Hot elimination/multiplication kernels of ``exactlin``.

All matrices are flat row-major Python lists of exact scalars.
"""


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


def bareiss_echelon(data, rows, cols):
    """Fraction-free row echelon form of an integer matrix.

    Returns ``(echelon, pivots)`` where ``echelon`` is a new flat list and
    ``pivots`` the list of pivot column indices (one per nonzero row, in
    order).  Every division is exact (Sylvester identity), so intermediate
    entries stay minor-sized instead of blowing up.
    """
    a = list(data)
    pivots = []
    r = 0
    prev = 1
    for c in range(cols):
        if r >= rows:
            break
        pr = -1
        for i in range(r, rows):
            if a[i * cols + c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rc, pc = r * cols, pr * cols
            for j in range(cols):
                a[rc + j], a[pc + j] = a[pc + j], a[rc + j]
        rc = r * cols
        piv = a[rc + c]
        for i in range(r + 1, rows):
            ic = i * cols
            x = a[ic + c]
            if x == 0:
                if prev == 1 and piv == 1:
                    continue
                for j in range(c + 1, cols):
                    v = a[ic + j]
                    if v:
                        a[ic + j] = piv * v // prev
            else:
                for j in range(c + 1, cols):
                    a[ic + j] = (piv * a[ic + j] - x * a[rc + j]) // prev
                a[ic + c] = 0
        pivots.append(c)
        prev = piv
        r += 1
    return a, pivots


def rref_mod(data, rows, cols, p):
    """Reduced row echelon form over F_p.  Returns ``(rref, pivots)``."""
    a = [x % p for x in data]
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = -1
        for i in range(r, rows):
            if a[i * cols + c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rc, pc = r * cols, pr * cols
            for j in range(cols):
                a[rc + j], a[pc + j] = a[pc + j], a[rc + j]
        rc = r * cols
        inv = pow(a[rc + c], -1, p)
        if inv != 1:
            for j in range(c, cols):
                if a[rc + j]:
                    a[rc + j] = a[rc + j] * inv % p
        for i in range(rows):
            if i == r:
                continue
            ic = i * cols
            x = a[ic + c]
            if x:
                for j in range(c, cols):
                    if a[rc + j]:
                        a[ic + j] = (a[ic + j] - x * a[rc + j]) % p
        pivots.append(c)
        r += 1
    return a, pivots
