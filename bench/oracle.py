"""Independent checks of the artifacts an ``antifk`` run writes.

Nothing here imports ``antifk``: the potentials, couplings, anchors and the
contraction threshold are rewritten from their closed forms in plain numpy,
so agreement with the library is evidence rather than tautology.
"""

from __future__ import annotations

import csv
import math

import numpy as np

EPS = np.finfo(float).eps
SCAN_CHUNK = 8192


class TrigSum:
    """V(x) = sum_j A_j cos(<w_j, x>); all three benchmark potentials
    (cosine, cos x + cos y, truncated almost-periodic) are of this form."""

    def __init__(self, amplitudes, frequencies):
        self.amplitudes = np.asarray(amplitudes, dtype=float)
        self.frequencies = np.atleast_2d(np.asarray(frequencies, dtype=float))

    def gradient(self, x):
        """grad V at the rows of x, shape (n, d)."""
        th = x @ self.frequencies.T
        return -(self.amplitudes * np.sin(th)) @ self.frequencies

    def curvature(self, x):
        """V'' at the points of an array x (d = 1)."""
        w = self.frequencies[:, 0]
        th = np.multiply.outer(x, w)
        return -(self.amplitudes * w * w * np.cos(th)).sum(axis=-1)

    def gradient_sup(self):
        return float(np.abs(self.amplitudes)
                     @ np.linalg.norm(self.frequencies, axis=1))


def cosine():
    return TrigSum([1.0], [[1.0]])


def cosine_2d():
    return TrigSum([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])


def almost_periodic(term_count, amplitude_ratio, frequency_ratio):
    n = np.arange(term_count)
    return TrigSum(amplitude_ratio ** n, (frequency_ratio ** n)[:, None])


def quadratic_force(x):
    return x


def perturbed_quadratic_force(amplitude):
    def force(x):
        s = (x * x).sum(axis=-1, keepdims=True)
        return x * (1.0 + amplitude / np.sqrt(1.0 + s))
    return force


def lattice_anchor(x, spacing=math.pi):
    """Nearest point of spacing * Z^d (ties have measure zero for the
    drawn rotation vectors)."""
    return spacing * np.round(np.asarray(x, dtype=float) / spacing)


def read_table(path):
    """(header, float array) of a CSV artifact."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


def equilibrium_residual(u, left, right, lam, potential, force):
    """sup_i |Delta(u)_i + lam grad V(u_i)| with Delta(u)_i =
    force(u_i - u_{i+1}) - force(u_{i-1} - u_i), plus a float-evaluation
    slack for the recomputation.

    left and right are the tail values one site beyond each window end.
    """
    ext = np.concatenate([left[None], u, right[None]])
    fwd = ext[1:-1] - ext[2:]
    bwd = ext[:-2] - ext[1:-1]
    res = force(fwd) - force(bwd) + lam * potential.gradient(u)
    gaps = float(np.abs(fwd).max())
    slack = 64 * EPS * (lam * potential.gradient_sup() + 4 * gaps + 1.0)
    return float(np.linalg.norm(res, axis=1).max()), slack


def check_chain(u, rho, lam, tol, potential, force, ball_radius):
    """Residual below tol and every site inside the certified ball around
    its anchor. Returns a failure reason or None."""
    n = (u.shape[0] - 1) // 2
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    left = lattice_anchor(-(n + 1) * rho)
    right = lattice_anchor((n + 1) * rho)
    res, slack = equilibrium_residual(u, left, right, lam, potential, force)
    if not res <= tol + slack:
        return f"residual {res:.3e} exceeds tol {tol:.1e}"
    anchors = lattice_anchor(np.multiply.outer(np.arange(-n, n + 1), rho))
    drift = float(np.linalg.norm(u - anchors, axis=1).max())
    if not drift <= ball_radius * (1 + 1e-9):
        return f"site left its anchor ball: {drift:.6g} > r = {ball_radius:.6g}"
    return None


def contraction_threshold(potential, search_window, grid_points=400_001,
                          samples=1001, degeneracy_fraction=0.1):
    """lambda_threshold = K (r + R) / (r m) for a one-dimensional potential
    and the unit quadratic coupling (K = 4, no homomorphism force).

    Zeros of V' are the grid points where it vanishes plus the sign
    changes of a dense scan, refined by bisection. Zeros with curvature
    below degeneracy_fraction of the largest are dropped; m is 2^-1/2
    times the weakest remaining curvature, R half the largest gap between
    zeros, and r the largest radius (at most 0.49 of the smallest gap) on
    which |V''| stays >= m around every zero. Both scans run in chunks of
    about SCAN_CHUNK points, so the oracle's memory stays small.
    """
    lo, hi = search_window
    step = (hi - lo) / (grid_points - 1)
    exact, lows, highs, g_lows = [], [], [], []
    prev = None
    for start in range(0, grid_points, SCAN_CHUNK):
        xs = lo + step * np.arange(start, min(start + SCAN_CHUNK, grid_points))
        g = potential.gradient(xs[:, None])[:, 0]
        exact.append(xs[g == 0.0])
        if prev is not None:
            xs, g = np.concatenate([prev[0], xs]), np.concatenate([prev[1], g])
        idx = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
        lows.append(xs[idx])
        highs.append(xs[idx + 1])
        g_lows.append(g[idx])
        prev = xs[-1:], g[-1:]
    a, b, ga = (np.concatenate(v) for v in (lows, highs, g_lows))
    for _ in range(60):
        mid = 0.5 * (a + b)
        gm = potential.gradient(mid[:, None])[:, 0]
        left = np.sign(gm) == np.sign(ga)
        a, ga = np.where(left, mid, a), np.where(left, gm, ga)
        b = np.where(left, b, mid)
    zeros = np.sort(np.concatenate(exact + [0.5 * (a + b)]))
    curv = np.abs(potential.curvature(zeros))
    keep = curv >= degeneracy_fraction * curv.max()
    zeros, curv = zeros[keep], curv[keep]
    m = curv.min() / math.sqrt(2.0)
    gaps = np.diff(zeros)
    R = gaps.max() / 2.0
    offsets = np.linspace(0.0, 0.49 * gaps.min(), samples)
    r = offsets[-1]
    rows = max(1, SCAN_CHUNK // samples)
    for block in range(0, zeros.size, rows):
        centres = zeros[block:block + rows, None]
        for sign in (1.0, -1.0):
            weak = np.abs(potential.curvature(centres + sign * offsets[None])) < m
            first = np.where(weak.any(axis=1), weak.argmax(axis=1), samples)
            r = min(r, offsets[max(int(first.min()) - 1, 0)])
    return 4.0 * (r + R) / (r * m)
