"""Dense linear algebra over generic scalars (Fraction, float, complex).

One implementation per routine serves both arithmetic modes: pivoting is by
magnitude, which is a legal (if unnecessary) choice in exact arithmetic and
the right one in binary64; exact pivots divide exactly.  Verification runs
``unitarity_defect`` at every circle order the pipeline reaches, so it
multiplies only rows that share a nonzero column: on banded matrices that is
O(n) row pairs, after one O(n^2) pass over the dense rows.
"""

from __future__ import annotations

import math

from .scalars import plain_sum

__all__ = [
    "mat_vec",
    "rref_nullspace",
    "det_lu",
    "unitarity_defect",
]


def mat_vec(rows, v):
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in rows)


def rref_nullspace(rows, ncols, tol=0.0):
    """Nullspace basis by row reduction with magnitude partial pivoting.

    ``tol`` is a relative threshold below which a pivot candidate counts as
    zero; ``tol == 0`` means exact comparison (rational mode).  Returns a list
    of length-``ncols`` tuples, one per free column.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    scale = max((abs(e) for r in work for e in r), default=0)
    thresh = tol * scale if tol else 0

    pivot_cols = []
    piv_r = 0
    for col in range(ncols):
        if piv_r >= nrows:
            break
        best, best_row = None, None
        for i in range(piv_r, nrows):
            a = abs(work[i][col])
            if best is None or a > best:
                best, best_row = a, i
        if best is None or best <= thresh or (not tol and work[best_row][col] == 0):
            continue
        work[piv_r], work[best_row] = work[best_row], work[piv_r]
        piv = work[piv_r][col]
        work[piv_r] = [e / piv for e in work[piv_r]]
        for i in range(nrows):
            if i == piv_r:
                continue
            f = work[i][col]
            if f == 0:
                continue
            work[i] = [e - f * p for e, p in zip(work[i], work[piv_r])]
        pivot_cols.append(col)
        piv_r += 1

    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        vec = [0] * ncols
        vec[f] = 1
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -work[i][f]
        basis.append(tuple(vec))
    return basis


def det_lu(rows):
    """Determinant by LU with partial pivoting; zero for an exactly
    singular matrix."""
    n = len(rows)
    a = [list(r) for r in rows]
    det = 1
    for k in range(n):
        best_row = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[best_row][k] == 0:
            return a[0][0] * 0
        if best_row != k:
            a[k], a[best_row] = a[best_row], a[k]
            det = -det
        piv = a[k][k]
        det = det * piv
        for i in range(k + 1, n):
            f = a[i][k] / piv
            if f == 0:
                continue
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return det


def unitarity_defect(rows):
    """Frobenius norm of C C* - I.  Only rows that share a nonzero column
    have a nonzero product, so row i meets those rows and itself, in
    ascending order; the others would add zero.  The sum is the one over all
    row pairs, bit for bit, and banded matrices take O(n) row pairs."""
    nonzero = [{k: v for k, v in enumerate(r) if v != 0} for r in rows]
    rows_at = {}  # column -> the rows nonzero there, ascending
    for i, ri in enumerate(nonzero):
        for k in ri:
            rows_at.setdefault(k, []).append(i)
    acc = 0.0
    for i, ri in enumerate(nonzero):
        for j in sorted({i}.union(*(rows_at[k] for k in ri))):
            rj = nonzero[j]
            s = plain_sum(v * rj[k].conjugate() for k, v in ri.items() if k in rj)
            if i == j:
                s = s - 1
            acc += abs(s) ** 2
    return math.sqrt(acc)
