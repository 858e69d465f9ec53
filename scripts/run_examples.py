#!/usr/bin/env python3
"""Reconstruct the two small showcase instances and print the results.

Real line: nodes {1,2,3,4} against zeros {3/2, 7/2}, exact arithmetic, both
the default weight choice and the shifted one.  Circle: three points against
{1, -1} in binary64.
"""

import math
from fractions import Fraction as F

import twospec
from twospec.kernel import COEFFICIENTS, WeightSelection


def poly_text(coeffs):
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append(f"{c}*t" if c != 1 else "t")
        else:
            terms.append(f"{c}*t^{k}" if c != 1 else f"t^{k}")
    return " + ".join(terms).replace("+ -", "- ")


def real_demo():
    pair = twospec.RealSpectrumPair(xs=(1, 2, 3, 4), ys=(F(3, 2), F(7, 2)))
    for label, selection in (
        ("default (sum of all admissible circuits)", WeightSelection()),
        ("s1 = 3", WeightSelection(strategy=COEFFICIENTS, coefficients={1: 3})),
    ):
        sol = twospec.reconstruct_real(pair, selection)
        print(f"--- real, {label}")
        print(f"bands       {sol.bands}")
        print(f"admissible  {sol.family}")
        print(f"omega       {sol.weight.omega}")
        for k, p in enumerate(sol.jacobi.polys[1:], start=1):
            print(f"P_{k}(t) = {poly_text(p)}")
        print(f"beta        {sol.jacobi.beta}")
        print(f"gamma       {sol.jacobi.gamma}")
        print(f"verified    {sol.report.verdict} ({sol.report.mode})")
        print()


def circle_demo():
    pair = twospec.circle_pair_from_angles(
        (math.pi / 2, 4 * math.pi / 3, 5 * math.pi / 3), (0.0, math.pi)
    )
    sol = twospec.reconstruct_circle(pair, profile=twospec.STRICT)
    print("--- circle, default weights")
    print(f"bands       {sol.bands}")
    print(f"omega       {tuple(round(w, 12) for w in sol.weight.omega)}")
    print(f"alpha       {sol.verblunsky.alpha}")
    print(f"rho         {sol.verblunsky.rho}")
    print(f"b_n, b_m    {sol.verblunsky.b}, {sol.b_m}")
    for name, mat in (("C_n", sol.c_n), ("C_m", sol.c_m)):
        print(f"{name} =")
        for i, band in enumerate(mat):  # band rows: entry (i, j) at [i][j - i + 2]
            row = [band[j - i + 2] if abs(j - i) <= 2 else 0j for j in range(len(mat))]
            print("   ", "  ".join(f"{e.real:+.6f}{e.imag:+.6f}j" for e in row))
    r = sol.report
    print(
        f"verified    {r.verdict}  (unitarity {r.unitarity_defect:.2e}, "
        f"spectrum {max(r.spectrum_residual_n, r.spectrum_residual_m):.2e})"
    )


if __name__ == "__main__":
    real_demo()
    circle_demo()
