"""On-site potentials, expansion certificates, and the local inverse.

A potential V: R^d -> R enters the equilibrium equation through its
gradient psi = grad V. Solvability in the strong-coupling regime rests on
a certificate (O, R, r, m) for psi: a set O of nondegenerate zeros meeting
every closed R-ball, such that psi expands distances by at least m on the
closed r-ball around each zero. The certificate also licenses a local
inverse of psi on each ball, which is the elementary step of the
fixed-point solver. A potential answers value, gradient and hessian on
(rows, d) batches, and derivatives, the last two from one evaluation in
blocks of rows of a fixed size, so that their temporaries fit in cache.

estimate_aubry proves every constant from bounds on the operator-norm
Lipschitz constant of the hessian and on the rounding of gradient and
hessian: the ball radius by bisecting boxes in every d; in d = 1 the zeros
and the covering radius from one scan, in d > 1 the covering radius by
bisecting boxes and the zeros by a Kantorovich test at each. Nothing on its
path is drawn at random.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import math

import numpy as np

from .errors import (CertificateError, CertificationError, ConfigError, ConvergenceError,
                     DomainError, _check_block, _read_block, _write_block)
from .hyperbolicity import _solve, _sv
from .lattice import _nearest_anchors, _norms

__all__ = [
    "TrigSumPotential",
    "DeloneBumpPotential",
    "cosine_potential",
    "truncated_almost_periodic",
    "PeriodicZeroSet",
    "FiniteZeroSet",
    "AubryCertificate",
    "cosine_certificate",
    "estimate_aubry",
    "local_inverse",
    "local_inverse_batch",
    "potential_from_dict",
    "sampler_from_dict",
]


# --------------------------------------------------------------------------
# potential families


# Most elements of a kernel block's largest float64 temporary (64 KB): on a
# sweep's stacked solves 2^12 to 2^14 tie and 2^15, 2^16 are slower (BENCH_21.json)
_BLOCK = 2**13


def _evaluate(V, x, grad: bool, hess: bool) -> tuple:
    """(grad V(x) if grad, hess V(x) if hess, else None) at the points x
    (..., d), by V._kernel on equal blocks of at most V._block_rows rows,
    written into preallocated outputs: no row depends on its block."""
    x = np.asarray(x, dtype=float)
    if x.size <= V._block_rows * V.dimension:
        return V._kernel(x, grad, hess)
    rows = x.reshape(-1, V.dimension)
    n, d = rows.shape
    step = -(-n // -(-n // V._block_rows))  # n / blocks, rounded up: equal blocks
    out = (np.empty((n, d)) if grad else None, np.empty((n, d, d)) if hess else None)
    for i in range(0, n, step):
        for whole, part in zip(out, V._kernel(rows[i:i + step], grad, hess)):
            if whole is not None:
                whole[i:i + step] = part
    return tuple(a if a is None else a.reshape(x.shape + a.shape[2:]) for a in out)


class TrigSumPotential:
    """V(x) = sum_j A_j cos(<w_j, x> + phi_j)."""

    family = "trig-sum"

    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ValueError("trig-sum potential needs at least one term")
        amps, freqs, phases = [], [], []
        for amplitude, frequency, phase in terms:
            amps.append(float(amplitude))
            freqs.append(np.atleast_1d(np.asarray(frequency, dtype=float)))
            phases.append(float(phase))
        dims = {f.shape[0] for f in freqs}
        if len(dims) != 1:
            raise ValueError("all frequency vectors must share a dimension")
        self.amplitudes = np.array(amps)
        self.frequencies = np.stack(freqs)
        self.phases = np.array(phases)
        self.dimension = self.frequencies.shape[1]
        self._block_rows = max(1, _BLOCK // len(self.amplitudes))  # angles (rows, M)

    def _angles(self, x):  # <w_j, x> + phi_j; in d = 1 a product, not a matmul
        x = np.asarray(x, dtype=float)
        if self.dimension == 1:
            th = x * self.frequencies[:, 0]
        else:  # a one-row matmul rounds otherwise, so one row runs as two
            rows = x.reshape(-1, self.dimension)
            th = (rows[[0, 0]] if len(rows) == 1 else rows) @ self.frequencies.T
            th = th[:len(rows)].reshape(x.shape[:-1] + self.phases.shape)
        return th + self.phases  # also when 0: it turns -0.0 into +0.0

    def value(self, x):
        return (self.amplitudes * np.cos(self._angles(x))).sum(axis=-1)

    def gradient(self, x):
        return _evaluate(self, x, True, False)[0]

    def hessian(self, x):
        return _evaluate(self, x, False, True)[1]

    def derivatives(self, x):
        """(gradient(x), hessian(x)), bit for bit, from one evaluation."""
        return _evaluate(self, x, True, True)

    def _kernel(self, x, grad, hess):  # einsum, not matmul: a row's sum is its own
        th, a, w = self._angles(x), self.amplitudes, self.frequencies
        return (-np.einsum("...m,mi->...i", a * np.sin(th), w) if grad else None,
                -np.einsum("...m,mi,mj->...ij", a * np.cos(th), w, w) if hess else None)

    def hessian_sup_bound(self) -> float:
        norms2 = (self.frequencies**2).sum(axis=1)
        return float(np.abs(self.amplitudes) @ norms2)

    def hessian_lipschitz_bound(self, reach: float) -> tuple:
        """(L, e): L = sum |A_j| |w_j|^3 bounds the hessian's Lipschitz
        constant in operator norm (|V'''| in d = 1), and e the rounding
        errors of gradient and hessian (in norm) at every float |x| <=
        reach: twice eps sum |A_j| max(|w_j|, |w_j|^2) (d |w_j| reach +
        |phi_j| + M + 7) over the M terms, the first-order sum of the angle's
        roundings (a d-term dot product, then + phi_j), sin and cos within 4
        ulp, and the einsum's products and sum."""
        a, w, d = np.abs(self.amplitudes), _norms(self.frequencies), self.dimension
        e = a * np.maximum(w, w**2) * (d * w * reach + np.abs(self.phases) + len(a) + 7)
        return float(a @ w**3) * (1 + 1e-12), 2 * np.finfo(float).eps * float(e.sum())

    def period(self):
        """Common period for d = 1 when all frequencies are commensurable,
        else None."""
        if self.dimension != 1:
            return None
        freqs = np.abs(self.frequencies[:, 0])
        freqs = freqs[freqs > 0]
        if freqs.size == 0:
            return None
        ref = freqs.max()
        denominators = []
        for f in freqs:
            ratio = f / ref
            frac = Fraction(ratio).limit_denominator(4096)
            if abs(ratio - float(frac)) > 1e-9 * max(1.0, ratio):
                return None
            denominators.append(frac.denominator)
        n = math.lcm(*denominators)
        return 2.0 * math.pi * n / ref

    def to_dict(self):
        return {"family": self.family, "terms": [
            dict(zip(_TERM, (float(a), f.tolist(), float(p))))
            for a, f, p in zip(self.amplitudes, self.frequencies, self.phases)]}


class _TruncatedAlmostPeriodic(TrigSumPotential):
    family = "almost-periodic-truncated"

    def __init__(self, term_count, amplitude_ratio, frequency_ratio):
        self.term_count = int(term_count)
        self.amplitude_ratio = float(amplitude_ratio)
        self.frequency_ratio = float(frequency_ratio)
        terms = [
            (amplitude_ratio**n, [frequency_ratio**n], 0.0)
            for n in range(self.term_count)
        ]
        super().__init__(terms)

    def to_dict(self):
        return _write_block(self, "family", _POTENTIALS)


def cosine_potential() -> TrigSumPotential:
    return TrigSumPotential([(1.0, [1.0], 0.0)])


def truncated_almost_periodic(term_count: int = 8, amplitude_ratio: float = 0.5,
                              frequency_ratio: float = 1.0 / math.pi):
    """Truncation of sum_n a^n cos(b^n x); the defaults give incommensurable
    frequencies, so the truncated potential has no period."""
    if term_count < 1:
        raise ValueError(f"term_count must be at least 1, got {term_count}")
    if not 0 < abs(amplitude_ratio) < 1:
        raise ValueError("amplitude_ratio must lie in (0, 1)")
    return _TruncatedAlmostPeriodic(term_count, amplitude_ratio, frequency_ratio)


class DeloneBumpPotential:
    """V(x) = -depth * sum_{p in points} exp(-|x - p|^2 / width^2)."""

    family = "delone-bump"
    gradient, hessian, derivatives = (TrigSumPotential.gradient, TrigSumPotential.hessian,
                                      TrigSumPotential.derivatives)

    def __init__(self, points, width: float, depth: float = 1.0):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[0] == 0:
            raise ValueError("delone-bump potential needs at least one point")
        self.points = pts
        self.width = float(width)
        self.depth = float(depth)
        self.dimension = pts.shape[1]
        self._block_rows = max(1, _BLOCK // (pts.size * self.dimension))  # (rows, P, d, d)
        if self.width <= 0:
            raise ValueError("width must be positive")

    def _bumps(self, x):
        """x - p (..., P, d) and exp(-|x - p|^2 / width^2) (..., P), per point p."""
        diffs = np.asarray(x, dtype=float)[..., None, :] - self.points
        return diffs, np.exp(-((diffs**2).sum(axis=-1) / self.width**2))

    def value(self, x):
        return -self.depth * self._bumps(x)[1].sum(axis=-1)

    def _kernel(self, x, grad, hess):  # a block of _evaluate
        diffs, e = self._bumps(x)
        w = e * (2.0 * self.depth / self.width**2)
        g = (w[..., None] * diffs).sum(axis=-2) if grad else None
        if not hess:
            return g, None
        outer = np.einsum("...pi,...pj->...pij", diffs, diffs)
        return g, (w[..., None, None] * np.eye(self.dimension) - (
            4.0 * self.depth / self.width**4) * e[..., None, None] * outer).sum(axis=-3)

    def hessian_sup_bound(self) -> float:
        """Sampled bound (x1.05) over the padded bounding box of the points."""
        lo = self.points.min(axis=0) - 3 * self.width
        hi = self.points.max(axis=0) + 3 * self.width
        rng = np.random.default_rng(0)
        xs = rng.uniform(lo, hi, size=(2048, self.dimension))
        return float(_sv(self.hessian(xs)).max() * 1.05)

    def hessian_lipschitz_bound(self, reach: float) -> tuple:
        """(L, e) as for TrigSumPotential. L sums over the P bumps the sup
        of a Gaussian's third derivative, 4 sqrt(6) |depth| t exp(-t^2) /
        width^3 at t^2 = (3 - sqrt(6)) / 2, along any line in any d. The
        first-order rounding bounds of the P terms' sums (exp within 4 ulp)
        are (2 |depth| / width^2) P (1.22 P + 26.3) eps / 2 for the hessian
        and (2 |depth| / width) P (0.43 P + 7.2) eps / 2 for the gradient
        in d = 1; e is over twice both, times d for the d squares in |x -
        p|^2. It does not grow with reach, as x - p rounds relative to itself."""
        t2, n, scale = (3 - math.sqrt(6)) / 2, len(self.points), abs(self.depth) / self.width**2
        lip = 4 * math.sqrt(6 * t2) * math.exp(-t2) * scale / self.width
        e = (4 * scale * max(1.0, self.width) * n * (2 * n + 20) * np.finfo(float).eps
             * self.dimension)
        return n * lip * (1 + 1e-12), e

    def period(self):
        return None

    def to_dict(self):
        return _write_block(self, "family", _POTENTIALS)


# family -> (builder, key -> kind of each JSON key but "family"); the
# cosine is read as a family but written as the trig sum it builds
_POTENTIALS = {"cosine": (cosine_potential, {}), "trig-sum": (TrigSumPotential, {"terms": "list"}),
               "almost-periodic-truncated": (truncated_almost_periodic, {
                   "term_count": "int", "amplitude_ratio": "number", "frequency_ratio": "number"}),
               "delone-bump": (DeloneBumpPotential,
                               {"points": "list", "width": "number", "depth": "number"})}
_TERM = {"amplitude": "number", "frequency": "vector", "phase": "number"}  # one trig-sum term


def potential_from_dict(d: dict):
    """The potential that to_dict wrote as d, or {"family": "cosine"};
    ConfigError names a bad key."""
    return _read_block(d, "family", _POTENTIALS, "potential", {"terms": _read_terms})


def _read_terms(terms):
    """(amplitude, frequency, phase) of each JSON term of a trig sum."""
    for i, term in enumerate(terms):
        _check_block(term, _TERM, f"potential.terms[{i}]", _TERM)
    return [[term[k] for k in _TERM] for term in terms]


# --------------------------------------------------------------------------
# zero-set samplers


def _require_finite(obj, *names):
    """ValueError naming the first of the fields names of obj that is not finite."""
    for name in names:
        if not np.isfinite(getattr(obj, name)).all():
            raise ValueError(f"{type(obj).__name__}.{name} must be finite")


@dataclass(frozen=True)
class PeriodicZeroSet:
    """Zero set generated by base points repeated with a scalar period
    (one-dimensional)."""

    kind = "periodic"
    base_points: np.ndarray
    period: float

    def __post_init__(self):
        pts = np.sort(np.ravel(np.asarray(self.base_points, dtype=float)))
        object.__setattr__(self, "base_points", pts)
        object.__setattr__(self, "period", float(self.period))
        _require_finite(self, "base_points", "period")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def dimension(self) -> int:
        return 1

    def points_near(self, x, radius: float) -> np.ndarray:
        x = float(np.atleast_1d(x)[0])
        out = []
        for z in self.base_points:
            k_lo = math.ceil((x - radius - z) / self.period)
            k_hi = math.floor((x + radius - z) / self.period)
            for k in range(k_lo, k_hi + 1):
                out.append(z + k * self.period)
        if not out:
            return np.empty((0, 1))
        return np.sort(np.array(out))[:, None]

    def nearest(self, xs, radius: float) -> np.ndarray:
        """Closest zero to each row of xs (shape (n, 1)), ties (1e-12
        relative) to the lowest: the closest point of z + period * Z lies
        at k = floor((x - z) / period) or k + 1. CertificateError if a row
        has no zero within radius."""
        x = np.reshape(np.asarray(xs, dtype=float), (-1, 1))
        k = np.floor((x - self.base_points) / self.period)
        cand = np.concatenate([self.base_points + k * self.period,
                               self.base_points + (k + 1) * self.period], axis=1)
        dist = np.abs(cand - x)
        best = dist.min(axis=1, keepdims=True)
        if (best > radius).any():
            j = int(np.argmax(best[:, 0] > radius))
            raise CertificateError(f"no zero within radius {radius} of {x[j, 0]}", row=j)
        tie = (dist <= best + 1e-12 * (1.0 + best)) & (dist <= radius)
        return np.where(tie, cand, np.inf).min(axis=1)[:, None]

    def to_dict(self):
        return _write_block(self, "kind", _ZERO_SETS)


@dataclass(frozen=True)
class FiniteZeroSet:
    """Explicit zero list, valid for query centers inside [lo, hi]."""

    kind = "finite"
    points: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        object.__setattr__(self, "points", pts)
        n, d = pts.shape
        lo = np.broadcast_to(np.atleast_1d(np.asarray(self.lo, dtype=float)), (d,))
        hi = np.broadcast_to(np.atleast_1d(np.asarray(self.hi, dtype=float)), (d,))
        object.__setattr__(self, "lo", lo.copy())
        object.__setattr__(self, "hi", hi.copy())
        _require_finite(self, "points", "lo", "hi")
        # stable lexicographic order, ties to the first
        cols = np.ascontiguousarray(pts[np.lexsort(pts.T[::-1])].T)
        object.__setattr__(self, "_columns", cols)
        if d == 1:  # the points between two sentinels at infinite distance
            object.__setattr__(self, "_keys", cols[0])
            object.__setattr__(self, "_padded", np.concatenate([[-np.inf], cols[0], [np.inf]]))
            return
        # the cell grid: cubes of side h from the points' lowest corner,
        # about one point a cell; points by cell, each cell's in the order
        # above, held as their positions in it
        corner, span = (cols.min(axis=1), np.ptp(cols, axis=1)) if n else np.zeros((2, d))
        h = float(span.max()) / max(1, math.ceil(n ** (1 / d))) or 1.0
        shape = (span / h).astype(np.intp) + 1
        cell = np.ravel_multi_index(((cols - corner[:, None]) / h).astype(np.intp), shape)
        by_cell = np.argsort(cell, kind="stable")
        starts = cell[by_cell].searchsorted(np.arange(shape.prod() + 1))
        object.__setattr__(self, "_grid", (corner, h, shape, starts, by_cell))
        object.__setattr__(self, "_reach", float(np.abs(pts).max(initial=0.0)))

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def _check_box(self, xs):
        if not ((self.lo <= xs) & (xs <= self.hi)).all():  # inside: no slack needed
            tol = 1e-9 * (1.0 + np.abs(xs).max(axis=1, keepdims=True))
            bad = ((xs < self.lo - tol) | (xs > self.hi + tol)).any(axis=1)
            if bad.any():  # lists print faster than numpy's arrayprint
                j, box = int(bad.argmax()), [self.lo.tolist(), self.hi.tolist()]
                raise CertificateError(f"query {xs[j].tolist()} outside the validity box "
                                       f"{box} of a finite zero set", row=j)

    def points_near(self, x, radius: float) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        self._check_box(x[None])
        return self.points[_norms(self.points - x) <= radius]

    def nearest(self, xs, radius: float) -> np.ndarray:
        """Closest zero to each row of xs, ties (1e-12 relative) to the
        lexicographically smallest. In d = 1 one searchsorted finds each
        row's neighbours; in d > 1 each row sees the points of the grid
        cells within radius of it, all rows in one pass. CertificateError
        names the first row outside the box, else the first with no zero
        (also as its row)."""
        xs = np.asarray(xs, dtype=float).reshape(-1, self.dimension)
        self._check_box(xs)
        if self.dimension == 1:
            return self._nearest_1d(xs, radius)
        corner, h, shape, starts, by_cell = self._grid
        # cell ranges padded against rounding, NaN rows in the last cell;
        # the distance mask decides
        pad = radius * (1.0 + 1e-9) + 1e-9 * (1.0 + self._reach)
        first, last = (np.fmax(np.fmin(np.floor((xs + s - corner) / h), shape - 1), 0)
                       .astype(np.intp) for s in (-pad, pad))
        offsets = np.indices(tuple((last - first).max(axis=0, initial=0) + 1)).reshape(
            len(shape), -1).T
        cells = first[:, None] + offsets  # (rows, cells, d)
        visit = (cells <= last[:, None]).all(axis=-1)
        ids = np.ravel_multi_index(tuple(np.minimum(cells, shape - 1).T), shape).T
        count = np.where(visit, starts[ids + 1] - starts[ids], 0)
        per_row, count, begin = count.sum(axis=1), count.ravel(), starts[ids].ravel()
        # the points of every visited cell, row by row, as positions in by_cell
        pos = by_cell[np.arange(count.sum()) + np.repeat(begin - (count.cumsum() - count), count)]
        row = np.repeat(np.arange(len(xs)), per_row)
        # squared distance by columns, in last-axis reduction order
        dist = np.sqrt(sum((col[pos] - xk[row]) ** 2 for col, xk in zip(self._columns, xs.T)))
        dist = np.where(dist <= radius, dist, np.inf)
        heads, best = (per_row.cumsum() - per_row)[per_row > 0], np.full(len(xs), np.inf)
        best[per_row > 0] = np.minimum.reduceat(dist, heads)
        if np.isinf(best).any():
            missing = int(np.isinf(best).argmax())
            raise CertificateError(f"no zero within radius {radius} of {xs[missing]}",
                                   row=missing)
        keep = dist <= best[row] + 1e-12 * (1.0 + best[row])
        return self._columns[:, np.minimum.reduceat(np.where(keep, pos, len(by_cell)), heads)].T

    def _nearest_1d(self, xs, radius: float) -> np.ndarray:
        """nearest for d = 1. The computed distance to a sorted point does
        not grow towards the row on either side, so the closest points are
        the row's two neighbours keys[i - 1] < x <= keys[i]; a near tie on
        the left walks down to the lowest point within the tie margin."""
        keys, x = self._padded, xs[:, 0]  # keys[i] is the i-th point, 1-based

        def dist(j):  # the row norm of one column, as _norms takes it; inf outside radius
            d = np.abs(keys[j] - x)
            return np.where(d <= radius, d, np.inf)

        i = self._keys.searchsorted(x)
        left, right = dist(i), dist(i + 1)
        best = np.minimum(left, right)
        if np.isinf(best).any():
            missing = int(np.isinf(best).argmax())
            raise CertificateError(f"no zero within radius {radius} of {xs[missing]}",
                                   row=missing)
        margin = best + 1e-12 * (1.0 + best)
        walk = left <= margin
        j = i + ~walk
        while walk.any():
            walk &= dist(j - 1) <= margin
            j -= walk
        return keys[j][:, None]

    def to_dict(self):
        return _write_block(self, "kind", _ZERO_SETS)


# kind -> (class, key -> kind of each JSON key but "kind"); the point
# arrays are checked as lists only, never walked
_ZERO_SETS = {"periodic": (PeriodicZeroSet, {"base_points": "list", "period": "number"}),
              "finite": (FiniteZeroSet, {"points": "list", "lo": "vector", "hi": "vector"})}


def sampler_from_dict(d: dict):
    """The zero set that to_dict wrote as d; ConfigError names a bad key."""
    return _read_block(d, "kind", _ZERO_SETS, "zero_set")


# --------------------------------------------------------------------------
# certificates


# key -> kind of each JSON key of a certificate, whose numbers are its fields
_CERTIFICATE = {"zero_set": "object", "metadata": "object", "covering_radius": "number",
                "ball_radius": "number", "expansion": "number", "safety": "number",
                "zero_tol": "number"}


@dataclass
class AubryCertificate:
    """Expansion certificate (O, R, r, m) for psi = grad V.

    covering_radius R: every closed R-ball around an admissible center
    meets the zero set. ball_radius r and expansion m: psi expands
    distances by at least m on the closed r-ball around each zero.
    safety multiplied R during estimation; zero_tol bounds |psi| at the
    reported zeros. metadata["provenance"] says how each number was
    obtained ("bounded" for an estimated one).
    """

    sampler: object
    covering_radius: float
    ball_radius: float
    expansion: float
    safety: float = 1.0
    zero_tol: float = 1e-9
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        _require_finite(self, "covering_radius", "ball_radius", "expansion", "safety", "zero_tol")
        if self.covering_radius <= 0 or self.ball_radius <= 0 or self.expansion <= 0:
            raise ValueError("certificate radii and expansion must be positive")

    @property
    def admissible_radius(self) -> float:
        """Radius r*m of admissible local-inverse targets, rounded down: the
        one limit of the solver's and local_inverse's domain checks."""
        rm = self.ball_radius * self.expansion
        exact = Fraction(self.ball_radius) * Fraction(self.expansion)
        return rm if Fraction(rm) <= exact else math.nextafter(rm, 0.0)

    def to_json_dict(self) -> dict:
        return {"zero_set": self.sampler.to_dict(), "metadata": self.metadata,
                **{k: float(getattr(self, k)) for k, kind in _CERTIFICATE.items()
                   if kind == "number"}}

    @classmethod
    def from_json_dict(cls, d: dict) -> "AubryCertificate":
        """The certificate that to_json_dict wrote as d; ConfigError names a bad key."""
        _check_block(d, _CERTIFICATE, "certificate",
                     ("zero_set", "covering_radius", "ball_radius", "expansion"))
        return cls(sampler_from_dict(d["zero_set"]),
                   **{k: v for k, v in d.items() if k != "zero_set"})

    def representative_zeros(self) -> np.ndarray:
        if isinstance(self.sampler, PeriodicZeroSet):
            return self.sampler.base_points[:, None]
        return self.sampler.points

    def verify(self, V) -> dict:
        """Check what is left to check of a proved certificate, |psi| <=
        zero_tol at each of its n representative zeros, and return
        {"zeros_checked": n}; CertificationError if a zero fails."""
        zeros = self.representative_zeros()
        worst_zero = float(_norms(np.atleast_2d(V.gradient(zeros))).max())
        if worst_zero > self.zero_tol:
            raise CertificationError(
                f"|psi| = {worst_zero:.3e} at a reported zero exceeds "
                f"zero_tol = {self.zero_tol:.3e}"
            )
        return {"zeros_checked": int(zeros.shape[0])}


def cosine_certificate() -> AubryCertificate:
    """Closed-form certificate for V = cos: zeros pi*Z, R = pi/2,
    r = pi/4, m = cos(pi/4)."""
    return AubryCertificate(
        sampler=PeriodicZeroSet([0.0], math.pi),
        covering_radius=math.pi / 2,
        ball_radius=math.pi / 4,
        expansion=math.sqrt(2) / 2,
        safety=1.0,
        zero_tol=1e-12,
        metadata={"provenance": {"all": "closed form for the cosine potential"}},
    )


# --------------------------------------------------------------------------
# certificate estimation


def _polish_zeros_1d(V, a: np.ndarray, b: np.ndarray, iters: int = 200) -> np.ndarray:
    """Bisection on psi over the sign-change brackets [a_k, b_k], all
    together: one V.gradient call per step over the rows still open. Per
    row, an endpoint where psi is exactly zero wins (a first), a row stops
    at adjacent floats or where psi(mid) == 0, and an open row returns its
    midpoint after iters steps. ValueError if a row is not a bracket."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    f = V.gradient(np.concatenate([a, b])[:, None])[:, 0]
    fa, fb = f[:a.size], f[a.size:]
    if (fa * fb > 0).any():
        raise ValueError("not a bracket")
    out = np.where(fa == 0.0, a, b)
    rows = np.nonzero((fa != 0.0) & (fb != 0.0))[0]  # rows still open
    for _ in range(iters):
        mid = 0.5 * (a[rows] + b[rows])
        out[rows] = mid  # final unless the row bisects on
        split = (mid != a[rows]) & (mid != b[rows])
        rows, mid = rows[split], mid[split]
        if rows.size == 0:
            break
        fm = V.gradient(mid[:, None])[:, 0]
        left = fa[rows] * fm < 0
        b[rows] = np.where(left, mid, b[rows])
        a[rows] = np.where(left, a[rows], mid)
        fa[rows] = np.where(left, fa[rows], fm)
        rows = rows[fm != 0.0]
    out[rows] = 0.5 * (a[rows] + b[rows])
    return out


def _scan_zeros_1d(V, lo: float, hi: float, grid_points: int) -> np.ndarray:
    xs = np.linspace(lo, hi, grid_points)
    g = V.gradient(xs[:, None])[:, 0]
    sign_change = np.nonzero(g[:-1] * g[1:] < 0)[0]
    zeros = np.concatenate([xs[g == 0.0],
                            _polish_zeros_1d(V, xs[sign_change], xs[sign_change + 1])])
    zeros = np.sort(zeros)
    if zeros.size == 0:
        return zeros
    # dedupe polished roots that collapsed to the same point
    keep = [zeros[0]]
    spacing = (hi - lo) / (grid_points - 1)
    for z in zeros[1:]:
        if z - keep[-1] > 1e-7 * max(1.0, spacing):
            keep.append(z)
    return np.array(keep)


def _cluster_mod_period(zeros: np.ndarray, period: float, tol: float):
    """Reduce zeros mod the period and cluster them into base points.
    Returns (base points in [0, period), the largest spread of a cluster)."""
    reduced = np.sort(np.mod(zeros, period))
    groups = [[reduced[0]]]
    for z in reduced[1:]:
        if z - groups[-1][-1] <= tol:
            groups[-1].append(z)
        else:
            groups.append([z])
    # wrap-around: a cluster hugging `period` is the same as one at 0
    if len(groups) > 1 and (period - groups[-1][-1]) + groups[0][0] <= tol:
        groups[0] = [g - period for g in groups.pop()] + groups[0]
    return (np.array([float(np.mean(g)) % period for g in groups]),
            max(g[-1] - g[0] for g in groups))


_NEAR_ZERO_FAILURE = ("expansion fails arbitrarily close to a zero; "
                      "degeneracy filter too permissive")


# Most rounds and boxes a round of box bisection, and where a ball radius and
# a covering radius (d > 1) stop it, relative to their bounds: in d > 1 a ball
# radius's rounds cost more. A d = 1 round splits only the boxes at a ball's two
# crossings, about 2 per zero, so there a tight stop, and rounds enough to
# reach it, cost almost nothing
_CELL_ROUNDS, _CELL_BOXES, _BALL_TOL, _COVER_TOL = 24, 2**20, 2.0**-9, 2.0**-12
_CELL_ROUNDS_1D, _BALL_TOL_1D = 36, 2.0**-23


def _refine_cells(centres, tags, side, undecided):
    """Halve boxes of sides side (d,) at centres (N, d), tagged by integers
    that their parts inherit, while undecided(centres, tags, delta) marks
    them, delta the half-diagonal plus the roundings of a centre and of a
    distance, for _CELL_ROUNDS rounds (_CELL_ROUNDS_1D in d = 1): the last
    call's marks are the boxes left. CertificationError before a round of
    more than _CELL_BOXES."""
    d = centres.shape[1]
    rounds = _CELL_ROUNDS_1D if d == 1 else _CELL_ROUNDS
    parts = np.stack(np.meshgrid(*[(-0.25, 0.25) if s > 0 else (0.0,) for s in side],
                                 indexing="ij"), axis=-1).reshape(-1, d)
    slack = (rounds + 2) * d * np.finfo(float).eps * float(
        _norms(centres).max() + _norms(side))
    for k in range(rounds + 1):
        keep = undecided(centres, tags, 0.5 * float(_norms(side)) + slack)
        centres, tags = centres[keep], tags[keep]
        if k == rounds or not len(tags):
            return
        if len(tags) * len(parts) > _CELL_BOXES:
            raise CertificationError(f"a proof by box bisection needs over {_CELL_BOXES} boxes")
        centres = (centres[:, None] + parts * side).reshape(-1, d)
        tags, side = np.repeat(tags, len(parts)), side / 2


def _ball_expansion_radius(V, zeros: np.ndarray, m: float, r_cap: float) -> float:
    """Largest radius r <= r_cap such that sigma_min(hessian) >= m on the
    r-ball around every zero, proved in every d: _refine_cells halves the
    cube of side 2 r_cap around each zero, proving a box where sigma_min(H)
    - 2 d eps sigma_max(H) >= m + e + L delta, H the computed hessian at its
    centre (Weyl), which lies within r_cap + delta <= (1 + sqrt(d)) r_cap of
    its zero, and (L, e) = V.hessian_lipschitz_bound of that reach. A centre
    below m + e bounds r by its distance, and boxes left bound it by their
    inner ones. A box is split until it is proved or lies beyond 1 - tol
    times that bound, tol = _BALL_TOL_1D (2^-23) in d = 1 and _BALL_TOL
    (2^-9) in d > 1."""
    d = zeros.shape[1]
    tol = _BALL_TOL_1D if d == 1 else _BALL_TOL
    reach = float(_norms(zeros).max()) + (1 + math.sqrt(d)) * r_cap
    lip, e = V.hessian_lipschitz_bound(reach)
    bound, left = r_cap, np.inf  # left: the least inner distance of a box left

    def undecided(centres, tags, delta):
        nonlocal bound, left
        dist = _norms(centres - zeros[tags])
        near = dist - delta < bound * (1 - tol)
        sv = _sv(V.hessian(centres[near]))
        low = sv[:, -1] - 2 * d * np.finfo(float).eps * sv[:, 0]
        bound = min(bound, float(dist[near][~(low >= m + e)].min(initial=bound)))
        near[near] = ~(low >= m + e + lip * delta)
        left = float((dist - delta)[near].min(initial=np.inf))
        return near

    _refine_cells(zeros, np.arange(len(zeros)), np.full(d, 2.0 * r_cap), undecided)
    radius = min(bound * (1 - tol), left)
    if radius < 1e-6 * r_cap:
        raise CertificationError(_NEAR_ZERO_FAILURE)
    return float(radius)


def _covering_radius(sampler: FiniteZeroSet) -> float:
    """Bound on the distance from a point of the box [lo, hi] of sampler (d
    > 1) to its nearest zero: a box whose centre lies D from one gives D +
    delta, and is halved while that exceeds 1 + _COVER_TOL times every D."""
    lo, hi = sampler.lo, sampler.hi
    deepest, radius = 0.0, float(_norms(hi - lo))

    def undecided(centres, tags, delta):
        nonlocal deepest, radius
        dist = _norms(centres - _nearest_anchors(centres, sampler, radius))
        deepest = max(deepest, float(dist.max()))
        keep = dist + delta > deepest * (1 + _COVER_TOL)
        radius = float((dist + delta)[keep].max(initial=0.0))
        return keep

    _refine_cells(((lo + hi) / 2)[None], np.zeros(1, int), hi - lo, undecided)
    return max(deepest * (1 + _COVER_TOL), radius)


def _zero_error(V, zeros: np.ndarray) -> float:
    """w with a zero of grad V within w of each of zeros (d > 1): Kantorovich's
    h = beta L eta <= 1/4, beta = 1 / (sigma_min(H) - e - 2 d eps sigma_max(H))
    >= |H^-1| (Weyl) and eta = beta (|g| + e) at z, puts one within 1.18 eta."""
    lip, e = V.hessian_lipschitz_bound(float(_norms(zeros).max()))
    g, H = V.derivatives(zeros)
    sv = _sv(H)
    beta = 1.0 / (sv[:, -1] - e - 2 * zeros.shape[1] * np.finfo(float).eps * sv[:, 0])
    eta = beta * (_norms(g) + e)
    if not ((beta > 0) & (beta * lip * eta <= 0.25)).all():
        raise CertificationError("a zero fails the Kantorovich test")
    return 2.0 * float(eta.max())


def estimate_aubry(V, search_window, *, grid_points: int = 4001,
                   zero_tol: float = 1e-9, degeneracy_fraction: float = 0.1,
                   safety: float = 1.0,
                   expansion_fraction: float = 2**-0.5) -> AubryCertificate:
    """Estimate a certificate for psi = grad V over a search window, with
    every constant proved. search_window is (lo, hi), each a number, which
    spans that interval on every axis, or a point of V's dimension (a box);
    ConfigError naming the argument if it, or grid_points, is malformed.

    Zeros come from a grid scan with root polishing: in d = 1 every
    sign-change bracket of the grid is bisected, all brackets together
    with one V.gradient call per step, to adjacent floats (the zeros are
    those of one-bracket bisection, as a gradient row does not depend on
    its batch); in d > 1 Newton runs from the grid points. Zeros whose
    hessian smallest singular value falls below degeneracy_fraction of
    the best are discarded. m is expansion_fraction times the weakest
    retained curvature, and r the largest radius, up to 0.49 times the
    least separation of the zeros, on which it stays >= m, which proves
    the expansion: one proof by box bisection around every zero in every
    d, stopping within 2^-23 of r in d = 1 and 2^-9 in d > 1
    (_ball_expansion_radius; at a saddle in d > 1, that the local inverse
    on the (r m)-ball, the solver's use, is 1/m-Lipschitz).

    A listed zero lies within w of a zero of psi: in d = 1 w is the float
    spacing at the largest |zero| (an adjacent-float bracket) plus e / m,
    e the rounding error of psi (V.hessian_lipschitz_bound), plus for a
    periodic sampler the largest spread of a cluster merged into a base
    point; in d > 1 w comes from a Kantorovich test (_zero_error). R is
    the covering radius of the listed zeros (_covering_radius in d > 1)
    plus w, times safety, rounded up; r is less w, rounded down. Only
    |psi| <= zero_tol at the zeros is checked after (verify).
    """
    if grid_points < 2:
        raise ConfigError(f"grid_points must be >= 2, got {grid_points}")
    d = V.dimension
    try:  # a number pair spans the same interval on every axis
        lo, hi = (np.broadcast_to(np.asarray(x, dtype=float), (d,)) for x in search_window)
    except ValueError:
        raise ConfigError(f"search_window must be a number pair or a box of dimension {d}, "
                          f"got {search_window}") from None
    if not (lo < hi).all():
        raise ConfigError(f"search_window must have lo < hi, got {lo.tolist()}, {hi.tolist()}")

    if d == 1:
        zeros = _scan_zeros_1d(V, float(lo[0]), float(hi[0]), grid_points)[:, None]
    else:
        zeros = _scan_zeros_nd(V, lo, hi, grid_points, zero_tol)
    if zeros.shape[0] == 0:
        raise CertificationError("no zeros of grad V found in the search window")

    sig = _sv(V.hessian(zeros))[:, -1]
    sig_max = sig.max()
    if sig_max <= 0:
        raise CertificationError("all zeros of grad V are degenerate")
    retained = zeros[sig >= degeneracy_fraction * sig_max]
    sig_kept = sig[sig >= degeneracy_fraction * sig_max]
    if retained.shape[0] == 0:
        raise CertificationError("every zero failed the degeneracy filter")

    m = expansion_fraction * float(sig_kept.min())

    period = V.period() if hasattr(V, "period") else None
    reach = float(np.abs(zeros).max())  # zero error w, in d = 1 the bracket widened by rounding
    w = (float(np.spacing(reach)) + V.hessian_lipschitz_bound(reach)[1] / m if d == 1
         else _zero_error(V, retained))
    if d == 1 and period is not None:
        base, spread = _cluster_mod_period(retained[:, 0], period, tol=1e-6)
        sampler, w = PeriodicZeroSet(base, period), w + spread
        ball_zeros = sampler.base_points[:, None]  # sorted
        gaps = np.diff(np.append(sampler.base_points, sampler.base_points[0] + period))
    else:
        if retained.shape[0] < 2:
            raise CertificationError(
                "need at least two nondegenerate zeros for a covering radius"
            )
        sampler = FiniteZeroSet(retained, retained.min(axis=0), retained.max(axis=0))
        gaps = np.diff(np.sort(retained[:, 0])) if d == 1 else None
        ball_zeros = retained
    if d == 1:
        half_gap, separation = float(gaps.max()) / 2.0, float(gaps.min())
    else:  # separation: the least distance between two zeros, 256 rows at a time
        half_gap = _covering_radius(sampler)
        separation = min(float(np.partition(_norms(retained[i:i + 256, None] - retained), 1,
                                            axis=1)[:, 1].min())
                         for i in range(0, len(retained), 256))
    covering_radius = (half_gap + w) * safety
    r_cap = 0.49 * separation if separation > 0 else covering_radius
    ball_radius = _ball_expansion_radius(V, ball_zeros, m, r_cap)
    covering_radius = math.nextafter(covering_radius, math.inf)
    ball_radius = math.nextafter(ball_radius - w, 0.0)
    if ball_radius <= 0:
        raise CertificationError("no positive radius sustains the expansion bound")

    cert = AubryCertificate(sampler, covering_radius, ball_radius, m, safety, zero_tol, {
        "provenance": dict.fromkeys(("zeros", "covering_radius", "ball_radius", "expansion"),
                                    "bounded"),
        "parameters": {"grid_points": grid_points,
                       "degeneracy_fraction": degeneracy_fraction,
                       "expansion_fraction": expansion_fraction},
        "search_window": [lo.tolist(), hi.tolist()],
        "zero_error": w,
        "zeros_found": int(zeros.shape[0]),
        "zeros_retained": int(ball_zeros.shape[0]),
    })
    cert.metadata["verification"] = cert.verify(V)
    return cert


def _scan_zeros_nd(V, lo, hi, grid_points, zero_tol):
    """Newton polish from a coarse box grid; dedupe converged roots."""
    d = lo.shape[0]
    per_dim = max(8, int(round(grid_points ** (1.0 / d))))
    axes = [np.linspace(lo[j], hi[j], per_dim) for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    y = np.stack([m.ravel() for m in mesh], axis=1)
    for _ in range(60):
        g, H = V.derivatives(y)
        if _norms(g).max() <= zero_tol * 1e-3:
            break
        ok = _sv(H).prod(axis=-1) > 1e-12  # |det H|
        step = np.zeros_like(y)
        step[ok] = _solve(H[ok], g[ok])
        y = np.clip(y - step, lo, hi)
    inside = ((y > lo + 1e-9) & (y < hi - 1e-9)).all(axis=1)
    roots = y[(_norms(V.gradient(y)) <= zero_tol) & inside]
    # each root is kept unless within a tolerance scaled to the box of one kept before it
    tol = max(1e-8 * float(_norms(hi - lo)), 1e-10)
    kept = []
    while len(roots):
        kept.append(roots[0])
        roots = roots[_norms(roots - roots[0]) > tol]
    return np.array(kept).reshape(-1, d)


# --------------------------------------------------------------------------
# local inverse


def local_inverse(V, z, target, cert: AubryCertificate,
                  tol: float = 1e-12) -> np.ndarray:
    """Solve psi(y) = target for y in the closed r-ball around the zero z:
    one row of local_inverse_batch, behind the domain check."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    target = np.atleast_1d(np.asarray(target, dtype=float))
    tnorm = float(_norms(target))
    limit = cert.admissible_radius
    if tnorm > limit:
        raise DomainError(
            f"target norm {tnorm:.6e} exceeds admissible radius r*m = {limit:.6e}",
            norm=tnorm, limit=limit,
        )
    return local_inverse_batch(V, z[None], target[None], cert, tol=tol)[0]


# Newton steps after which local_inverse_batch gives up on a row
INVERSE_MAX_ITER = 100


def _at_runs(V, y, chains: int) -> tuple:
    """V.derivatives(y) from V at the first of each run of bit-equal rows
    along each of the chains the rows interleave (row = site * chains + j)."""
    bits = y.view(np.uint64).reshape(-1, max(chains, 1), y.shape[1])
    first = np.ones(bits.shape[:2], bool)
    first[1:] = (bits[1:] != bits[:-1]).any(axis=-1)
    if first.all():  # no row repeats the one before it
        return V.derivatives(y)
    # the position in y[first] of each row's run, site-major like y
    run = np.maximum.accumulate(np.where(first, np.cumsum(first).reshape(first.shape) - 1, 0))
    return tuple(a[run.ravel()] for a in V.derivatives(y[first.ravel()]))


def local_inverse_batch(V, centers: np.ndarray, targets: np.ndarray,
                        cert: AubryCertificate, tol: float = 1e-12,
                        start: np.ndarray | None = None, *,
                        derivatives: bool = False, at_start=None):
    """Solve psi(y_k) = targets_k for y_k in the closed r-ball around each
    zero centers_k by safeguarded Newton, vectorised over rows.

    Newton starts at the centres, or at ``start`` projected onto each
    row's ball (clipped into [z - r, z + r] for d = 1): a start near the
    root, such as the previous tube-map iterate, saves most of the steps.
    ``tol`` is a scalar or one tolerance per row.
    A row stops once |psi(y) - t| <= max(tol, floor), the floor being the
    accuracy of psi at a float y: half the float spacing of max|y| times
    |hessian|, plus a few eps. For d = 1 each row brackets its root in
    [z - r, z + r] (psi is monotone on the ball) and bisects when Newton
    leaves the bracket, which ends the row once it holds adjacent floats;
    for d > 1 Newton steps are projected onto the ball. A row open after
    INVERSE_MAX_ITER steps, with no root in its bracket, or (d > 1) whose
    hessian is singular raises ConvergenceError naming it (also as its
    ``row``). Callers do the domain check, so they can name the offending site.

    Each step evaluates psi and its hessian in one V.derivatives call, and
    every row ends right after one at the y it returns. ``at_start``, V's
    (grad, hessian) at ``start``, replaces the first call but at the rows
    the clip or projection moved (in d > 1, c + (s - c) need not be s); the
    call only reads those arrays. With ``derivatives``, returns (y, grad
    V(y), hessian V(y)), shapes (rows, d) and (rows, d, d), from those
    evaluations. As V computes its rows independently of their batch, they
    equal a fresh evaluation at y bit for bit, and each row ends, or fails,
    as it would alone.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    tol = np.asarray(tol, dtype=float)
    d, r = centers.shape[1], cert.ball_radius
    lo, hi = centers[:, 0] - r, centers[:, 0] + r  # d = 1 brackets
    if start is None:
        y = centers.copy()
    elif d == 1:
        y = np.clip(np.reshape(start, centers.shape), lo[:, None], hi[:, None])
    else:
        dy = np.reshape(start, centers.shape) - centers
        nd = _norms(dy)[:, None]
        y = centers + dy * (r / np.maximum(nd, r))
    rows = np.arange(len(centers))  # rows still open
    for k in range(INVERSE_MAX_ITER + 1):
        at = rows if k else slice(None)  # every row is open: views, not copies
        yk = y[at]
        if k or at_start is None:
            g, H = V.derivatives(yk)
        else:  # the caller's values, but at a row that the projection moved
            g, H = np.reshape(at_start[0], y.shape), np.reshape(at_start[1], (-1, d, d))
            moved = (y != np.reshape(start, y.shape)).any(axis=1)
            if moved.any():  # into copies: the caller's arrays are only read
                g, H = g.copy(), H.copy()
                g[moved], H[moved] = V.derivatives(y[moved])
        H = np.reshape(H, (-1, d, d))
        if derivatives and k == 0:  # every row; later steps write theirs in
            grad, hess = g, H
        elif derivatives:
            if k == 1 and at_start is not None:  # copies, as above
                grad, hess = grad.copy(), hess.copy()
            grad[rows], hess[rows] = g, H
        f = g - targets[at]
        nf = _norms(f)
        floor = np.spacing(np.abs(yk).max(axis=1)) * _norms(H.reshape(len(H), d * d))
        limit = np.maximum(tol if tol.ndim == 0 else tol[at],
                           0.5 * floor + 4 * np.finfo(float).eps)
        keep = nf > limit
        rows, yk, f, H = rows[keep], yk[keep], f[keep], H[keep]
        if rows.size == 0:
            return (y, grad, hess) if derivatives else y
        if k == INVERSE_MAX_ITER:
            raise ConvergenceError(
                f"local inverse row {rows[0]} stopped at |psi(y) - t| = "
                f"{nf[keep][0]:.3e} > {limit[keep][0]:.3e} after {INVERSE_MAX_ITER} steps",
                row=int(rows[0]),
            )
        if d == 1:
            x, h = yk[:, 0], H[:, 0, 0]
            below = np.sign(h) * f[:, 0] > 0  # the root lies below x
            lo_k = np.where(below, lo[rows], x)
            hi_k = np.where(below, x, hi[rows])
            lo[rows], hi[rows] = lo_k, hi_k
            with np.errstate(divide="ignore", invalid="ignore"):
                x_new = x - f[:, 0] / h
            bisect = ~((x_new > lo_k) & (x_new < hi_k))
            x_new[bisect] = 0.5 * (lo_k + hi_k)[bisect]
            split = (x_new != lo_k) & (x_new != hi_k)
            # a bracket end that never moved: the root is not in the ball
            stuck = ~split & ((lo_k == centers[rows, 0] - r)
                              | (hi_k == centers[rows, 0] + r))
            if stuck.any():
                j = rows[np.argmax(stuck)]
                raise ConvergenceError(
                    f"local inverse row {j}: no root in the certificate ball; "
                    "certificate inconsistent with the potential", row=int(j))
            rows = rows[split]
            y[rows, 0] = x_new[split]
        else:
            y_new = yk - _solve(H, f)
            finite = np.isfinite(y_new).all(axis=1)
            if not finite.all():
                j = rows[np.argmin(finite)]
                raise ConvergenceError(f"local inverse row {j}: singular hessian",
                                       row=int(j))
            dy = y_new - centers[rows]
            nd = _norms(dy)
            over = nd > r
            y_new[over] = centers[rows][over] + dy[over] * (r / nd[over])[:, None]
            y[rows] = y_new
