"""Recompute the planar-dominance reference in ``references.json``.

    python3 perfbench/make_references.py

For centres X_1..X_3 uniform on the unit square S and disks of radius
R = 3, E[area of the intersection] = integral over x of p(x)^3, where
p(x) = area(S ∩ B(x, R)) is the chance that one disk covers x. Both
integrals are done by composite Gauss-Legendre quadrature, independently
of the arc decomposition the benchmark checks. The script prints the
value at two resolutions; their difference is the stated error.
"""

from __future__ import annotations

import numpy as np

R = 3.0
HALF = 0.5  # the square is [-1/2, 1/2]^2


def gauss_legendre(a: float, b: float, panels: int, order: int = 6):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def cover_area(x1: np.ndarray, x2: np.ndarray, inner_panels: int) -> np.ndarray:
    """area(S ∩ B(x, R)): integrate, over the square's first coordinate,
    the length of the disk's chord that falls inside the square."""
    y, wy = gauss_legendre(-HALF, HALF, inner_panels)
    out = np.empty(x1.size)
    for lo in range(0, x1.size, 4096):
        a, b = x1[lo:lo + 4096, None], x2[lo:lo + 4096, None]
        w = np.sqrt(np.maximum(R * R - (y - a) ** 2, 0.0))
        chord = np.minimum(HALF, b + w) - np.maximum(-HALF, b - w)
        out[lo:lo + 4096] = np.clip(chord, 0.0, None) @ wy
    return out


def mean_area(panels: int, inner_panels: int) -> float:
    # p(x) vanishes beyond R + 1/2 in each coordinate; the square's
    # symmetry lets one quadrant stand for all four.
    x, w = gauss_legendre(0.0, R + HALF, panels)
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    p = cover_area(x1.ravel(), x2.ravel(), inner_panels)
    return float(4.0 * np.sum(np.outer(w, w).ravel() * p**3))


if __name__ == "__main__":
    coarse = mean_area(60, 64)
    fine = mean_area(120, 128)
    print(f"planar-dominance mean_v2 {fine!r}  (coarse {coarse!r}, difference {abs(fine - coarse):.2e})")
