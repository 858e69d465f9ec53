"""Independent acceptance oracle for solution documents.

It reads the canonical solution text with ``json`` alone and checks it
against the points the generator prescribed, never through
``twospec.verify``.  Everything runs in binary64 in O(n^2), except the
cover weight, which sums n circuits in O(n m^2):

* line -- the Jacobi matrix in the document is tridiag(gamma, beta, 1);
  every gamma is positive; Sturm counts of the monic recurrence at
  x_j -+ delta_j differ by one for every node, and at y_k -+ delta_k on the
  order-m block; the Gauss weights of the Jacobi matrix at the nodes
  equal the normalized omega.
* circle -- both matrices in the document are the CMV products of
  (alpha, b); every |alpha| < 1 and |b| = 1; the phase of the Blaschke
  quotient z Phi_{l-1} / Phi*_{l-1}, which increases monotonically around
  the circle, crosses arg(conj(b)) inside theta_j -+ delta_j for every
  prescribed point of both orders; the Christoffel numbers of the alphas at
  the n nodes equal the normalized omega.
* both -- omega is the kernel vector the problem's weight strategy asks
  for, recomputed from the prescribed points in product form (see
  ``strategy_omega``), so a different positive kernel vector, which the
  spectral checks alone would accept when m < n - 1, is rejected.

delta is POINT_REL times the point's local gap (distance to the nearest
other prescribed point of either set).  Disjoint windows, one per point,
each holding an eigenvalue, certify the whole spectrum.
"""

from __future__ import annotations

import cmath
import json
import math
from bisect import bisect_left
from fractions import Fraction

POINT_REL = 1e-8
# Tolerance on each Gauss weight against omega_j / sum(omega):
# WEIGHT_REL relative plus WEIGHT_ABS absolute, since a binary64 recurrence
# fixes the weights of a unit-mass measure to an absolute accuracy only
# (shares far below 1e-10 are not determined by it).
WEIGHT_REL = 1e-6
WEIGHT_ABS = 1e-10
# Absolute tolerances on matrix entries recomputed from the recurrence data
# and on |b| - 1.
MATRIX_ABS = 1e-12
UNIT_ABS = 1e-12
# Relative tolerance on each normalized omega entry against the strategy's
# weight; every term of either sum is positive, so nothing cancels.
OMEGA_REL = 1e-9


class Reject(Exception):
    """The document is not a correct solution; the message says why."""


class WindowMiss(Reject):
    """An eigenvalue lies outside its point's delta window, though the rest
    of the document may be right: the solution is not accurate enough."""


def _real(v) -> float:
    if isinstance(v, str):
        return float(Fraction(v))
    return float(v)


def _cplx(v) -> complex:
    return complex(float(v["re"]), float(v["im"]))


def _local_gaps(points, circle=False):
    """Distance from each point to its nearest neighbour in ``points``
    (angular distance on the circle)."""
    order = sorted(range(len(points)), key=lambda i: points[i])
    vals = [points[i] for i in order]
    n = len(vals)
    gaps = [math.inf] * n
    for r in range(n - 1):
        d = vals[r + 1] - vals[r]
        gaps[r] = min(gaps[r], d)
        gaps[r + 1] = min(gaps[r + 1], d)
    if circle and n > 1:
        d = vals[0] + 2.0 * math.pi - vals[-1]
        gaps[0] = min(gaps[0], d)
        gaps[-1] = min(gaps[-1], d)
    out = [0.0] * n
    for r, i in enumerate(order):
        out[i] = gaps[r]
    return out


def _windows(points_n, points_m, circle=False):
    """delta for every point of both sets, from gaps in their union."""
    union = list(points_n) + list(points_m)
    if circle:
        union = [p % (2.0 * math.pi) for p in union]
    gaps = _local_gaps(union, circle)
    deltas = [POINT_REL * g for g in gaps]
    return deltas[: len(points_n)], deltas[len(points_n):]


def _check_weights(lam, omega):
    total = sum(omega)
    if not all(w > 0 for w in omega) or not total > 0:
        raise Reject("omega is not strictly positive")
    for j, (l, w) in enumerate(zip(lam, omega)):
        target = w / total
        if not abs(l - target) <= WEIGHT_REL * target + WEIGHT_ABS:
            raise Reject(f"Gauss weight {j}: {l!r} vs omega share {target!r}")


# --------------------------------------------------------------------------
# omega


def _bands(nodes, cuts):
    """0-based indices of the sorted ``nodes`` between consecutive sorted
    ``cuts``; entry 0 holds the nodes below the first cut."""
    bands = [[] for _ in range(len(cuts) + 1)]
    for j, x in enumerate(nodes):
        bands[bisect_left(cuts, x)].append(j)
    return bands


def _support_at(bands, k):
    """The k-th (0-based) one-per-band support in enumeration order:
    lexicographic by band, i.e. mixed radix with the last band least
    significant."""
    out = []
    for b in reversed(bands):
        k, d = divmod(k, len(b))
        out.append(b[d])
    return out[::-1]


def strategy_omega(nodes, points_m, bands, dist, strategy, coefficients):
    """The weight a strategy asks for, from the points alone.

    The circuit on a one-per-band support S has, at j in S, the entry
    1 / (|P_m(x_j)| prod_{i in S, i != j} dist(x_j, x_i)) once its sign is
    fixed (all its entries share one sign), with dist = |x - y| on the line
    and |sin((x - y) / 2)| on the circle, where |P_m| is the product of
    dist to the m-set.  So

    * sum_all: omega_j = (1 / |P_m(x_j)|) prod_{r != band(j)}
      sum_{i in I_r} 1 / dist(x_j, x_i), in O(n^2);
    * cover: the sum over j of the circuit through j and the first index
      of every other band;
    * coefficients: the first circuit plus s_k times the k-th.
    """
    pm = [math.prod(dist(x, y) for y in points_m) for x in nodes]
    band_of = {j: r for r, b in enumerate(bands) for j in b}
    omega = [0.0] * len(nodes)
    if strategy == "sum_all":
        for j, x in enumerate(nodes):
            prod = 1.0
            for r, b in enumerate(bands):
                if r != band_of[j]:
                    prod *= math.fsum(1.0 / dist(x, nodes[i]) for i in b)
            omega[j] = prod / pm[j]
        return omega
    firsts = [b[0] for b in bands]
    if strategy == "cover":
        chosen = []
        for j in range(len(nodes)):
            support = list(firsts)
            support[band_of[j]] = j
            chosen.append((1.0, support))
    elif strategy == "coefficients":
        chosen = [(1.0, firsts)] + [
            (c, _support_at(bands, k)) for k, c in sorted(coefficients.items()) if c > 0
        ]
    else:
        raise Reject(f"unknown strategy {strategy!r}")
    for c, support in chosen:
        for j in support:
            x = nodes[j]
            rest = math.prod(dist(x, nodes[i]) for i in support if i != j)
            omega[j] += c / (pm[j] * rest)
    return omega


def _check_strategy(omega, want):
    total, want_total = sum(omega), sum(want)
    for j, (w, v) in enumerate(zip(omega, want)):
        target = v / want_total
        if not abs(w / total - target) <= OMEGA_REL * target:
            raise Reject(f"omega {j}: {w / total!r} vs the strategy's {target!r}")


def _line_dist(x, y):
    return abs(x - y)


def _circle_dist(x, y):
    return abs(math.sin((x - y) / 2.0))


# --------------------------------------------------------------------------
# line


def sturm_below(beta, gamma, k, t) -> int:
    """Eigenvalues below t of the order-k leading block of the monic Jacobi
    matrix (beta diagonal, gamma_1.. subdiagonal, ones superdiagonal): the
    negative pivots of the LDL^T factorization of J_k - t I."""
    count = 0
    d = beta[0] - t
    for i in range(k):
        if i:
            d = (beta[i] - t) - gamma[i - 1] / d
        if d == 0.0:
            d = -1e-300
        if d < 0.0:
            count += 1
    return count


def gauss_weights(beta, gamma, points):
    """Squared first components of the unit eigenvectors of the Jacobi
    matrix (its Gauss weights) at approximate eigenvalues ``points``.

    Each eigenvector comes from a twisted factorization of the symmetric
    form (off-diagonals sqrt(gamma)) shifted by the point: the top-down
    LDL^T pivots and bottom-up UDU^T pivots meet at the index whose twist
    element is smallest, and the vector is propagated outwards from there.
    Unlike the Christoffel function summed along the three-term recurrence,
    this stays accurate when the weights span many orders of magnitude.
    """
    n = len(beta)
    tiny = 1e-300
    out = []
    for x in points:
        top = [0.0] * n
        bot = [0.0] * n
        d = beta[0] - x
        top[0] = d if d != 0.0 else tiny
        for k in range(1, n):
            d = (beta[k] - x) - gamma[k - 1] / top[k - 1]
            top[k] = d if d != 0.0 else tiny
        d = beta[n - 1] - x
        bot[n - 1] = d if d != 0.0 else tiny
        for k in range(n - 2, -1, -1):
            d = (beta[k] - x) - gamma[k] / bot[k + 1]
            bot[k] = d if d != 0.0 else tiny
        twist = min(range(n), key=lambda k: abs(top[k] + bot[k] - (beta[k] - x)))
        z = [0.0] * n
        z[twist] = 1.0
        for k in range(twist - 1, -1, -1):
            z[k] = -math.sqrt(gamma[k]) * z[k + 1] / top[k]
        for k in range(twist + 1, n):
            z[k] = -math.sqrt(gamma[k - 1]) * z[k - 1] / bot[k]
        out.append(z[0] * z[0] / math.fsum(v * v for v in z))
    return out


def check_line(doc, xs, ys, strategy, coefficients) -> None:
    n, m = len(xs), len(ys)
    rec = doc["recurrence"]
    beta_raw, gamma_raw = rec["beta"], rec["gamma"]
    if len(beta_raw) != n or len(gamma_raw) != n - 1:
        raise Reject("recurrence has the wrong length")
    beta = [_real(v) for v in beta_raw]
    gamma = [_real(v) for v in gamma_raw]
    if not all(g > 0 and math.isfinite(g) for g in gamma):
        raise Reject("a gamma is not positive and finite")
    if not all(math.isfinite(b) for b in beta):
        raise Reject("a beta is not finite")

    matrix = doc["matrices"]["jacobi"]
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise Reject("Jacobi matrix has the wrong shape")
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if j == i:
                want = beta_raw[i]
            elif j == i + 1:
                want = 1
            elif j == i - 1:
                want = gamma_raw[i - 1]
            else:
                want = 0
            if _exact_or_float(v) != _exact_or_float(want):
                raise Reject(f"Jacobi matrix entry ({i}, {j}) does not match")

    xf = [float(x) for x in xs]
    yf = [float(y) for y in ys]
    omega = [_real(v) for v in doc["omega"]]
    _check_weights(gauss_weights(beta, gamma, xf), omega)
    bands = _bands(list(xs), sorted(ys))
    _check_strategy(omega, strategy_omega(xf, yf, bands, _line_dist, strategy, coefficients))

    # Last, so that a WindowMiss means every other check passed.
    dn, dm = _windows(xf, yf)
    for order, points, deltas in ((n, xf, dn), (m, yf, dm)):
        for j, (x, d) in enumerate(zip(points, deltas)):
            lo = sturm_below(beta, gamma, order, x - d)
            hi = sturm_below(beta, gamma, order, x + d)
            if hi - lo != 1:
                raise WindowMiss(f"order {order}: no eigenvalue within {d:.3g} of point {j}")


def _exact_or_float(v):
    """Matrix entries compare exactly: strings as rationals, numbers as is."""
    return Fraction(v) if isinstance(v, str) else v


# --------------------------------------------------------------------------
# circle


def _szego_at(alpha, z, count):
    """(Phi_count(z), Phi*_count(z)) rescaled together, which keeps their
    ratio (all the phase test needs) and cannot overflow."""
    phi, phi_star = 1.0 + 0.0j, 1.0 + 0.0j
    for k in range(count):
        a = alpha[k]
        phi, phi_star = z * phi - a.conjugate() * phi_star, phi_star - a * z * phi
        scale = abs(phi_star)
        if scale > 0.0:
            phi, phi_star = phi / scale, phi_star / scale
    return phi, phi_star


def blaschke_phase(alpha, b, ell, theta) -> float:
    """Principal arg of b * z Phi_{l-1}(z) / Phi*_{l-1}(z) at z = e^{i theta};
    zero exactly at the zeros of Psi_l = z Phi_{l-1} - conj(b) Phi*_{l-1}."""
    z = cmath.rect(1.0, theta)
    phi, phi_star = _szego_at(alpha, z, ell - 1)
    return cmath.phase(b * z * phi / phi_star)


def christoffel_circle(alpha, zeta) -> float:
    """1 / sum_{k<n} |phi_k(zeta)|^2 with phi_k = Phi_k / ||Phi_k||,
    ||Phi_k||^2 = prod_{i<k} (1 - |alpha_i|^2) for a unit-mass measure."""
    phi, phi_star = 1.0 + 0.0j, 1.0 + 0.0j
    norm2 = 1.0
    total = 1.0
    for a in alpha:
        phi, phi_star = zeta * phi - a.conjugate() * phi_star, phi_star - a * zeta * phi
        norm2 *= 1.0 - abs(a) ** 2
        total += abs(phi) ** 2 / norm2
    return 1.0 / total


def cmv_entries(alpha, b):
    """Dense L*M for parameters (alpha_0, .., alpha_{l-2}, b): 2x2 blocks
    [[conj(a), rho], [rho, -a]] at (k, k+1), even k in L and odd k in M
    (M starts with a 1), and conj(b) in the leftover 1x1 slot."""
    params = list(alpha) + [b]
    n = len(params)

    def factor(start):
        f = {}
        for d in range(start):
            f[(d, d)] = 1.0 + 0.0j
        for k in range(start, n, 2):
            if k + 1 < n:
                a = params[k]
                r = complex(math.sqrt(1.0 - abs(a) ** 2))
                f[(k, k)] = a.conjugate()
                f[(k, k + 1)] = r
                f[(k + 1, k)] = r
                f[(k + 1, k + 1)] = -a
            else:
                f[(k, k)] = params[-1].conjugate()
        return f

    lf, mf = factor(0), factor(1)
    out = [[0.0 + 0.0j] * n for _ in range(n)]
    for (i, t), lv in lf.items():
        for j in (t - 1, t, t + 1):
            mv = mf.get((t, j))
            if mv is not None:
                out[i][j] += lv * mv
    return out


def check_circle(doc, thetas, phis, strategy, coefficients) -> None:
    n, m = len(thetas), len(phis)
    rec = doc["recurrence"]
    alpha = [_cplx(a) for a in rec["alpha"]]
    b_n, b_m = _cplx(rec["b_n"]), _cplx(rec["b_m"])
    if len(alpha) != n - 1:
        raise Reject("alpha has the wrong length")
    if not all(abs(a) < 1.0 for a in alpha):
        raise Reject("an alpha is not inside the unit disk")
    if abs(abs(b_n) - 1.0) > UNIT_ABS or abs(abs(b_m) - 1.0) > UNIT_ABS:
        raise Reject("a boundary parameter is not unimodular")

    for key, params, b in (("c_n", alpha, b_n), ("c_m", alpha[: m - 1], b_m)):
        want = cmv_entries(params, b)
        got = doc["matrices"][key]
        if len(got) != len(want) or any(len(r) != len(want) for r in got):
            raise Reject(f"{key} has the wrong shape")
        for i, row in enumerate(got):
            for j, v in enumerate(row):
                if abs(_cplx(v) - want[i][j]) > MATRIX_ABS:
                    raise Reject(f"{key} entry ({i}, {j}) is not the CMV product")

    # Solution vectors follow the normalized node order: increasing argument
    # counterclockwise from the m-set point of smallest argument in [0, 2pi).
    two_pi = 2.0 * math.pi
    base = min(p % two_pi for p in phis)
    key = lambda th: (th % two_pi - base) % two_pi
    ordered = sorted(thetas, key=key)
    omega = [_real(v) for v in doc["omega"]]
    lam = [christoffel_circle(alpha, cmath.rect(1.0, th)) for th in ordered]
    _check_weights(lam, omega)
    # Arguments measured from the first m-set point: band r lies between
    # the r-th and (r+1)-th of them, and no node precedes the first.
    nodes = [key(th) for th in ordered]
    cuts = sorted(key(ph) for ph in phis)
    bands = _bands(nodes, cuts)[1:]
    _check_strategy(omega, strategy_omega(nodes, cuts, bands, _circle_dist, strategy, coefficients))

    # Last, so that a WindowMiss means every other check passed.
    dn, dm = _windows(thetas, phis, circle=True)
    for ell, b, points, deltas in ((n, b_n, thetas, dn), (m, b_m, phis, dm)):
        for j, (th, d) in enumerate(zip(points, deltas)):
            lo = blaschke_phase(alpha, b, ell, th - d)
            hi = blaschke_phase(alpha, b, ell, th + d)
            if not (lo < 0.0 < hi):
                raise WindowMiss(f"order {ell}: phase does not cross within {d:.3g} of point {j}")


def check(text, instance) -> None:
    """Raise Reject unless ``text`` is a correct solution of ``instance``."""
    doc = json.loads(text)
    if doc.get("setting") != instance.setting:
        raise Reject("setting does not match the problem")
    weights = json.loads(instance.text).get("weights") or {}
    strategy = weights.get("strategy", "sum_all")
    coefficients = {
        int(key[1:]): _real(v) for key, v in (weights.get("coefficients") or {}).items()
    }
    check_setting = check_line if instance.setting == "real" else check_circle
    check_setting(doc, instance.points_n, instance.points_m, strategy, coefficients)
