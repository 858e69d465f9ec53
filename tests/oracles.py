"""Reference implementations the tests check the library against.

No library path runs these: the library certifies a reconstruction by its
verification residuals, and the tests cross-check them here with dense
linear algebra over generic scalars (Fraction, float, complex), cofactor
expansions, the recurrence run at a point, the Szego recurrence kept step by
step, the CMV matrix from its two dense factors, the dense rows of band
matrices and of the Jacobi matrix, the all-pairs scan for coincident circle
points, and a generator of problems that violate interlacing.  Pivoting is by
magnitude, which is a legal (if unnecessary) choice in exact arithmetic and
the right one in binary64; exact pivots divide exactly.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from twospec.errors import DegenerateAngleError, SharedPointError, TwospecError
from twospec.fuzz import random_circle_instance, random_real_instance
from twospec.interlacing import POINT_TOL, TWO_PI
from twospec.oprl import JacobiData
from twospec.poly import poly_scale
from twospec.scalars import is_exact_scalar

# Cofactor-expansion oracles refuse orders above this.
EXPANSION_LIMIT = 8


class RankDeficientError(TwospecError):
    code = "RANK_DEFICIENT"


class DimensionTooLargeError(TwospecError):
    code = "DIMENSION_TOO_LARGE"


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


def poly_eval(coeffs, x):
    """Value at ``x`` of an ascending coefficient sequence by Horner's
    scheme; an empty sequence is 0."""
    acc = None
    for c in reversed(coeffs):
        acc = c if acc is None else acc * x + c
    return 0 if acc is None else acc


def poly_mul(a, b):
    """Product of two coefficient lists by the generic double loop."""
    if not a or not b:
        return []
    out = [a[0] * 0 * b[0]] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ]


def dense(circuit, n) -> tuple:
    """The dense length-n vector of a ``(support, entries)`` circuit, with
    zeros of the entries' field."""
    support, entries = circuit
    vec = [Fraction(0) if is_exact_scalar(entries[0]) else 0.0] * n
    for j, e in zip(support, entries):
        vec[j - 1] = e
    return tuple(vec)


def brute_nullspace(rows, cols):
    """Nullspace basis of a system given as its rows (possibly none) and
    ``cols`` columns, by generic row reduction: exact pivots for exact
    entries, a 1e-12 relative pivot threshold for floating ones.

    The dimension must come out as cols - rows (n - m on the line,
    n - m + 1 on the circle); a larger kernel means duplicated nodes or
    shared points upstream and raises RankDeficientError.
    """
    exact = all(is_exact_scalar(e) for row in rows for e in row)
    basis = rref_nullspace(rows, cols, tol=0.0 if exact else 1e-12)
    if len(basis) != cols - len(rows):
        raise RankDeficientError(f"rank {cols - len(basis)} below row count {len(rows)}")
    return basis


def brute_charpoly(rows, k: int) -> tuple:
    """Characteristic polynomial of the order-k leading block of a matrix
    given as rows, by direct cofactor expansion (k <= EXPANSION_LIMIT)."""
    if k > EXPANSION_LIMIT:
        raise DimensionTooLargeError(
            f"expansion oracle limited to order {EXPANSION_LIMIT}"
        )
    block = [
        [[-rows[i][j], 1] if i == j else [-rows[i][j]] for j in range(k)]
        for i in range(k)
    ]
    return tuple(_poly_det(block))


def _poly_det(cells):
    n = len(cells)
    if n == 0:
        return [1]
    if n == 1:
        return list(cells[0][0])
    acc = None
    for i in range(n):
        minor = [row[1:] for r, row in enumerate(cells) if r != i]
        term = poly_mul(cells[i][0], _poly_det(minor))
        if i % 2:
            term = poly_scale(term, -1)
        acc = term if acc is None else poly_add(acc, term)
    return acc


def brute_det(rows, point):
    """det(point * I - M) for a matrix given as rows, by LU with partial
    pivoting, in the scalar field of the entries (exact pivots divide
    exactly)."""
    n = len(rows)
    return det_lu(
        [[(point if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
    )


def eval_charpoly(data: JacobiData, k: int, x):
    """P_k(x) by running the recurrence at the point (never by determinant
    expansion); P_k is the characteristic polynomial of the order-k leading
    block of the Jacobi matrix."""
    if not 0 <= k <= data.n:
        raise ValueError(f"order {k} outside 0..{data.n}")
    p_prev, p = 0, 1
    for j in range(k):
        nxt = (x - data.beta[j]) * p
        if j > 0:
            nxt -= data.gamma[j - 1] * p_prev
        p_prev, p = p, nxt
    return p


def szego_phis(alpha) -> list:
    """[Phi_0, .., Phi_k] for k = len(alpha), as ascending coefficient
    lists, by the Szego recurrence Phi_{j+1} = z Phi_j - conj(alpha_j)
    Phi*_j and Phi*_{j+1} = Phi*_j - alpha_j z Phi_j."""
    phi, phi_star = [1 + 0j], [1 + 0j]
    phis = [phi]
    for a in map(complex, alpha):
        z_phi = [0j] + phi
        phi, phi_star = (
            [p - a.conjugate() * q for p, q in zip(z_phi, phi_star + [0j])],
            [q - a * p for p, q in zip(z_phi, phi_star + [0j])],
        )
        phis.append(phi)
    return phis


def dense_cmv(alpha, b) -> tuple:
    """C(alpha, b) as the product L * M of its two dense n x n factors (see
    popuc.cmv_matrix): entry (i, j) sums lf[i][t] * mf[t][j] from 0j over t
    within one of i and of j, in increasing t."""
    params = [complex(a) for a in alpha] + [complex(b)]
    n = len(params)
    rhos = [math.sqrt(1.0 - abs(a) ** 2) for a in params[:-1]] + [0.0]

    def factor(start):
        rows = [[0.0 + 0.0j] * n for _ in range(n)]
        for d in range(start):
            rows[d][d] = 1.0 + 0.0j
        for k in range(start, n, 2):
            if k + 1 < n:
                a, r = params[k], rhos[k]
                rows[k][k] = a.conjugate()
                rows[k][k + 1] = complex(r)
                rows[k + 1][k] = complex(r)
                rows[k + 1][k + 1] = -a
            else:
                rows[k][k] = params[-1].conjugate()
        return rows

    lf, mf = factor(0), factor(1)
    prod = []
    for i in range(n):
        row = [0j] * n
        for t in range(max(i - 1, 0), min(i + 2, n)):
            for j in range(max(t - 1, 0), min(t + 2, n)):
                row[j] += lf[i][t] * mf[t][j]
        prod.append(tuple(row))
    return tuple(prod)


def dense_rows(bands, zero=0j) -> tuple:
    """The dense rows of an n-by-n matrix held as band rows of 2h + 1 cells
    (popuc.cmv_matrix, files.BandMatrix): entry (i, j) is bands[i][j - i + h]
    within h of the diagonal and ``zero`` off the band."""
    n, h = len(bands), len(bands[0]) // 2
    return tuple(
        tuple(bands[i][j - i + h] if abs(j - i) <= h else zero for j in range(n))
        for i in range(n)
    )


def dense_jacobi(data: JacobiData) -> tuple:
    """The dense n-by-n Jacobi matrix of the monic recurrence: beta on the
    diagonal, ones above it, gamma below it, with zero and one from the
    scalar field of beta (Fractions, or 0.0 and 1.0 in binary64: beta[0] * 0
    would be -0.0 for a negative beta[0])."""
    n = data.n
    zero, one = (Fraction(0), Fraction(1)) if is_exact_scalar(data.beta[0]) else (0.0, 1.0)
    rows = []
    for i in range(n):
        row = [zero] * n
        row[i] = data.beta[i]
        if i + 1 < n:
            row[i + 1] = one
        if i > 0:
            row[i - 1] = data.gamma[i - 1]
        rows.append(tuple(row))
    return tuple(rows)


def collision_scan(zetas, xis):
    """Every pair of circle points, in index order: DegenerateAngleError for
    the first pair of zn, then of zm, within POINT_TOL of each other, then
    SharedPointError for the first zn-zm pair."""
    for tag, points in (("zn", zetas), ("zm", xis)):
        for i, z in enumerate(points):
            for j in range(i + 1, len(points)):
                if abs(z - points[j]) <= POINT_TOL:
                    raise DegenerateAngleError(f"{tag}[{i}] and {tag}[{j}] coincide")
    for i, z in enumerate(zetas):
        for j, w in enumerate(xis):
            if abs(z - w) <= POINT_TOL:
                raise SharedPointError(f"zn[{i}] equals zm[{j}]")


def random_rejected_problem(rng: random.Random, kind: str) -> dict:
    """A ProblemFile document violating interlacing in one named way."""
    if kind == "gap_overfull":
        n = rng.randint(4, 9)
        pair = random_real_instance(rng, n, 1)
        g = rng.randrange(n - 1)
        x0, x1 = pair.xs[g], pair.xs[g + 1]
        ys = sorted([x0 + (x1 - x0) * 0.3, x0 + (x1 - x0) * 0.7])
        return {
            "schema": "v1",
            "setting": "real",
            "arithmetic": "float64",
            "zn": list(pair.xs),
            "zm": ys,
        }
    if kind == "out_of_range":
        n = rng.randint(3, 9)
        pair = random_real_instance(rng, n, 1)
        side = rng.choice([-1.0, 1.0])
        stray = pair.xs[0] - 1.0 if side < 0 else pair.xs[-1] + 1.0
        return {
            "schema": "v1",
            "setting": "real",
            "arithmetic": "float64",
            "zn": list(pair.xs),
            "zm": [stray],
        }
    if kind == "empty_band":
        n = rng.randint(4, 9)
        m = rng.randint(2, min(3, n - 1))
        pair = random_circle_instance(rng, n, m)
        # Drop both phis into one theta-arc: the band between them is empty.
        a = rng.randrange(n)
        start = pair.thetas[a]
        width = (pair.thetas[(a + 1) % n] - start) % TWO_PI or TWO_PI
        phis = [
            (start + width * 0.3) % TWO_PI,
            (start + width * 0.7) % TWO_PI,
        ] + [
            (start + width * 0.5 + TWO_PI * (k + 1) / (m + 1)) % TWO_PI
            for k in range(m - 2)
        ]
        return {
            "schema": "v1",
            "setting": "circle",
            "arithmetic": "float64",
            "zn": list(pair.thetas),
            "zm": phis,
        }
    raise ValueError(f"unknown violation kind {kind!r}")
