"""Configurations on the integer lattice and the operators acting on them.

A configuration assigns a point of R^d to every site of Z. Numerically we
store values on a symmetric window {-N, ..., N} and extend beyond it by a
deterministic tail rule, either following a rotation vector (homomorphism
extension) or following the anchor configuration generated by a zero-set
sampler. All operators that need neighbors outside the window read them
from the tail, or from the halo of tail values a configuration carries.

Distances use the sup norm over sites of the Euclidean norm in R^d. This
is an extended metric: configurations with different asymptotic slopes are
at distance +inf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError

__all__ = [
    "Window",
    "RotationVector",
    "as_rotation",
    "TailRule",
    "HomomorphismTail",
    "AnchorTail",
    "DerivedTail",
    "StackedTail",
    "Configuration",
    "homomorphism_configuration",
    "anchor_configuration",
    "anchor_stack",
    "stack_chains",
    "ext_distance",
    "ext_distances",
    "shift",
    "translate",
    "rotation_vector_estimate",
    "configuration_to_csv",
    "configuration_from_csv",
]

# Sites probed on each side when two tails follow the same slope; beyond
# the probe the tail sup is not sampled.
TAIL_PROBE = 64


def _norms(x: np.ndarray) -> np.ndarray:
    """Norms of the rows of x (..., d): |x| for one column, which equals
    sqrt(x * x) unless x * x under- or overflows."""
    return np.abs(x[..., 0]) if x.shape[-1] == 1 else np.linalg.norm(x, axis=-1)


@dataclass(frozen=True)
class Window:
    """Symmetric site window {-half_width, ..., half_width}."""

    half_width: int
    dimension: int = 1

    def __post_init__(self):
        if self.half_width < 1:
            raise ValueError(f"half_width must be >= 1, got {self.half_width}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")

    @property
    def n_sites(self) -> int:
        return 2 * self.half_width + 1

    def sites(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)

    def halo_sites(self, halo: int) -> np.ndarray:
        """The halo sites on each side of the window, the left side first."""
        n = self.half_width
        return np.concatenate([np.arange(-n - halo, -n), np.arange(n + 1, n + halo + 1)])


@dataclass(frozen=True)
class RotationVector:
    """Average drift per site: the homomorphism i -> i * rho."""

    rho: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.rho, dtype=float))
        if arr.ndim != 1:
            raise ValueError("rotation vector must be one-dimensional")
        object.__setattr__(self, "rho", arr)

    @property
    def dimension(self) -> int:
        return self.rho.shape[0]

    def __call__(self, i) -> np.ndarray:
        i = np.asarray(i, dtype=float)
        return np.multiply.outer(i, self.rho) if i.ndim else i * self.rho

    def norm(self) -> float:
        return float(_norms(self.rho))


def as_rotation(rho) -> RotationVector:
    if isinstance(rho, RotationVector):
        return rho
    return RotationVector(np.atleast_1d(np.asarray(rho, dtype=float)))


class TailRule:
    """Deterministic extension of a configuration beyond its window.

    A rule answers two things: values(sites), a batch of site queries as
    an (n, d) array computed from the rule's fields alone, and slope, the
    asymptotic drift per site. ext_distance reads nothing else.
    """

    def values(self, sites: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def slope(self) -> np.ndarray:
        """Asymptotic drift per site; distances between tails with
        different slopes are infinite."""
        raise NotImplementedError


@dataclass(frozen=True)
class HomomorphismTail(TailRule):
    """u_i = rho(i) outside the window."""

    rotation: RotationVector

    def values(self, sites: np.ndarray) -> np.ndarray:
        return self.rotation(np.asarray(sites, dtype=float))

    @property
    def slope(self) -> np.ndarray:
        return self.rotation.rho


@dataclass(frozen=True)
class AnchorTail(TailRule):
    """u_i = nearest anchor to rho(i) outside the window.

    The sampler is any object with nearest(xs, radius); radius is the
    covering radius guaranteeing a nonempty query.
    """

    rotation: RotationVector
    sampler: object
    radius: float

    def values(self, sites: np.ndarray) -> np.ndarray:
        return _nearest_anchors(self.rotation(sites), self.sampler, self.radius)

    @property
    def slope(self) -> np.ndarray:
        return self.rotation.rho


@dataclass(frozen=True)
class DerivedTail(TailRule):
    """Tail of a shifted/translated configuration.

    Reads the parent configuration (window values included, which matters
    near the window edge where i + offset may land inside the parent
    window) and applies the vertical translation.
    """

    parent: "Configuration"
    site_offset: int
    translation: np.ndarray

    def values(self, sites: np.ndarray) -> np.ndarray:
        sites = np.asarray(sites) + self.site_offset
        return self.parent.values_at(sites) + self.translation

    @property
    def slope(self) -> np.ndarray:
        return self.parent.tail.slope


@dataclass(frozen=True)
class StackedTail(TailRule):
    """Tails of K chains stacked site-axis-first: values(sites) is
    (len(sites), K, d), column k from the k-th tail. Anchor tails on one
    sampler and radius answer in one lookup."""

    tails: tuple

    def values(self, sites: np.ndarray) -> np.ndarray:
        first = self.tails[0]
        if all(isinstance(t, AnchorTail) and t.sampler is first.sampler
               and t.radius == first.radius for t in self.tails):
            query = np.stack([t.rotation(sites) for t in self.tails], axis=1)
            return _nearest_anchors(query.reshape(-1, query.shape[-1]), first.sampler,
                                    first.radius).reshape(query.shape)
        return np.concatenate([t.values(sites)[:, None] for t in self.tails], axis=1)


@dataclass(frozen=True)
class Configuration:
    """Window values plus a tail rule.

    values has shape (n_sites, dimension), row j holding the value at
    site j - half_width; K chains on one window are stacked as
    (n_sites, K, dimension) with a StackedTail. halo, if given, holds the
    tail's own values at the h sites on each side of the window, shape
    (2h, ...) with the left side first, so that extended(h) needs no
    lookup; values never change it, as a tail does not depend on them.
    """

    window: Window
    values: np.ndarray
    tail: TailRule
    halo: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        n, d = self.window.n_sites, self.window.dimension
        if vals.ndim not in (2, 3) or (vals.shape[0], vals.shape[-1]) != (n, d):
            raise ValueError(
                f"values shape {vals.shape} does not match window ({n}, {d})"
            )
        object.__setattr__(self, "values", vals)

    def value(self, i: int) -> np.ndarray:
        return self.values_at([i])[0]

    def values_at(self, sites) -> np.ndarray:
        sites = np.atleast_1d(np.asarray(sites))
        out = np.empty((sites.shape[0], self.window.dimension))
        inside = np.abs(sites) <= self.window.half_width
        if inside.any():
            out[inside] = self.values[sites[inside] + self.window.half_width]
        if not inside.all():
            try:
                out[~inside] = self.tail.values(sites[~inside])
            except CertificateError as exc:  # name the row of sites
                if exc.row is not None:
                    exc.row = int(np.flatnonzero(~inside)[exc.row])
                raise
        return out

    def extended(self, halo: int) -> np.ndarray:
        """Values on {-N-halo, ..., N+halo}: the halo field supplies the
        sides when it holds 2 halo rows, the tail otherwise."""
        if halo == 0:
            return self.values
        sides = self.halo
        if sides is None or len(sides) != 2 * halo:
            sides = self.tail.values(self.window.halo_sites(halo))
        return np.concatenate([sides[:halo], self.values, sides[halo:]], axis=0)

    def with_values(self, values: np.ndarray) -> "Configuration":
        return Configuration(self.window, values, self.tail, self.halo)

    def chain(self, k: int) -> "Configuration":
        """Chain k of stacked chains on its own, its values contiguous."""
        return Configuration(self.window, np.ascontiguousarray(self.values[:, k]),
                             self.tail.tails[k],
                             None if self.halo is None else self.halo[:, k])


def homomorphism_configuration(rho, window: Window) -> Configuration:
    """The configuration u_i = rho(i), extended by itself."""
    rot = as_rotation(rho)
    if rot.dimension != window.dimension:
        raise ValueError("rotation vector dimension does not match window")
    vals = rot(window.sites().astype(float))
    return Configuration(window, vals, HomomorphismTail(rot))


def stack_chains(chains) -> Configuration:
    """Configurations on one window stacked site-axis-first, (n_sites, K, d),
    with their halos stacked when every chain has one of one size."""
    window = chains[0].window
    if any(c.window != window for c in chains):
        raise ValueError("stacked chains must share one window")
    halos, halo = [c.halo for c in chains], None
    if all(h is not None and h.shape == halos[0].shape for h in halos):
        halo = np.stack(halos, axis=1)
    return Configuration(window, np.stack([c.values for c in chains], axis=1),
                         StackedTail(tuple(c.tail for c in chains)), halo)


def anchor_configuration(rho, sampler, radius: float, window: Window) -> Configuration:
    """Nearest-anchor configuration a_i = argmin_{z in O} |z - rho(i)|."""
    return anchor_stack([rho], sampler, radius, window).chain(0)


def anchor_stack(rhos, sampler, radius: float, window: Window,
                 halo: int = 0) -> Configuration:
    """The nearest-anchor configurations of K rotation vectors, stacked as
    (n_sites, K, d), from one lookup. Given halo > 0, the lookup also
    covers the halo sites within halo of the window, which fill the
    configuration's halo."""
    rots = [as_rotation(rho) for rho in rhos]
    if any(rot.dimension != window.dimension for rot in rots):
        raise ValueError("rotation vector dimension does not match window")
    tail = StackedTail(tuple(AnchorTail(rot, sampler, radius) for rot in rots))
    n = window.half_width
    vals = tail.values(np.arange(-n - halo, n + halo + 1))
    edge = np.concatenate([vals[:halo], vals[len(vals) - halo:]]) if halo else None
    return Configuration(window, vals[halo:len(vals) - halo], tail, edge)


def _nearest_anchors(points, sampler, radius: float) -> np.ndarray:
    """Closest points of the sampled zero set to each row of points, at
    most the covering radius radius away: every covering lookup (anchors,
    the proof of a covering radius, uniqueness_check) goes through here.

    Ties (to within an 1e-12 relative margin) break to the
    lexicographically smallest point.
    """
    # tiny slack so that boundary cases (distance exactly R) are found
    return sampler.nearest(points, radius * (1 + 1e-12) + 1e-12)


def ext_distance(u: Configuration, v: Configuration) -> float:
    """Sup-norm distance over sites.

    Window sites are compared exactly. Tails contribute +inf when their
    slopes differ, and otherwise a sampled sup over TAIL_PROBE sites on
    each side (stopping early if a tail rule cannot produce values that
    far out), which is zero when the two rules coincide.
    """
    return ext_distances(stack_chains([u]), stack_chains([v]))[0]


def ext_distances(u: Configuration, v: Configuration) -> list:
    """ext_distance of chain k of u and chain k of v, for each k of two
    stacks (n_sites, K, d). The chains whose tails share a slope are probed
    on both sides at once, one values call per stack (one lookup for
    anchor tails on one sampler); if that raises, each of them is probed
    on its longest producible prefix alone (_prefix_probe)."""
    if u.window != v.window:
        raise ValueError("configurations lie on different windows")
    dist = _norms(u.values - v.values).max(axis=0).tolist()
    probed = []
    for k, (a, b) in enumerate(zip(u.tail.tails, v.tail.tails)):
        if _norms(np.asarray(a.slope) - np.asarray(b.slope)) > 0:
            dist[k] = float("inf")
        else:
            probed.append(k)
    if not probed:
        return dist
    probe = u.window.half_width + np.arange(1, TAIL_PROBE + 1)
    pairs = [(u.tail.tails[k], v.tail.tails[k]) for k in probed]
    sites = np.concatenate([probe, -probe])
    try:
        diff = (StackedTail(tuple(a for a, _ in pairs)).values(sites)
                - StackedTail(tuple(b for _, b in pairs)).values(sites))
    except CertificateError:
        for k, (a, b) in zip(probed, pairs):
            dist[k] = _prefix_probe(a, b, probe, dist[k])
        return dist
    gaps = np.sqrt(np.vecdot(diff, diff)).max(axis=0).tolist()
    for k, gap in zip(probed, gaps):
        dist[k] = max(dist[k], gap)
    return dist


def _prefix_probe(a: TailRule, b: TailRule, probe, worst: float) -> float:
    """worst, or the largest tail gap over the longest prefix of probe and
    of -probe on which both tails produce values."""
    for sites in (probe, -probe):
        va, vb = _producible(a, sites), _producible(b, sites)
        k = min(len(va), len(vb))
        if k:
            diff = va[:k] - vb[:k]
            worst = max(worst, float(np.sqrt(np.vecdot(diff, diff)).max()))
    return worst


def _producible(tail: TailRule, sites) -> np.ndarray:
    """tail's values on the longest prefix of sites it produces, in at most
    two lookups: a tail that cannot produce a site (a finite zero set out
    of validity) raises a CertificateError naming the first such row, and
    the sites before it are taken to be the ones it produces."""
    try:
        return tail.values(sites)
    except CertificateError as exc:
        return tail.values(sites[:exc.row]) if exc.row else sites[:0]


def shift(u: Configuration, k: int) -> Configuration:
    """Horizontal shift: result_i = u_{i+k}."""
    if abs(k) > u.window.half_width:
        raise ValueError(
            f"shift {k} exceeds window half-width {u.window.half_width}"
        )
    vals = u.values_at(u.window.sites() + k)
    zero = np.zeros(u.window.dimension)
    return Configuration(u.window, vals, DerivedTail(u, k, zero))


def translate(u: Configuration, c) -> Configuration:
    """Vertical translation: result_i = u_i + c."""
    c = np.broadcast_to(np.atleast_1d(np.asarray(c, dtype=float)),
                        (u.window.dimension,))
    return Configuration(u.window, u.values + c, DerivedTail(u, 0, c.copy()))


def rotation_vector_estimate(u: Configuration) -> np.ndarray:
    """Two-endpoint drift estimate (u_N - u_{-N}) / (2N)."""
    n = u.window.half_width
    return (u.values[-1] - u.values[0]) / (2.0 * n)


def configuration_to_csv(u: Configuration, path) -> None:
    """Write site and value columns, lines ended by \\r\\n as csv.writer
    ends them."""
    _write_columns(path, u, ("u",), u.values, "\r\n")


def _write_columns(path, u: Configuration, prefixes, values, end) -> None:
    """The one csv writer: u's window sites and the repr of each value of
    values (n, len(prefixes) d), columns prefix_j, lines ended by end."""
    n, d = u.window.half_width, u.window.dimension
    line = ("{}" + ",{!r}" * values.shape[1] + end).format
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(["site"] + [f"{c}_{j}" for c in prefixes for j in range(d)]) + end)
        # by blocks: one list of every value would cost ~130 bytes a site
        for lo in range(0, len(values), 4096):
            block = values[lo:lo + 4096]
            f.writelines(map(line, range(lo - n, lo - n + len(block)), *block.T.tolist()))


def configuration_from_csv(path, tail: TailRule) -> Configuration:
    import csv

    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r]
    if len(rows) < 2:
        raise ValueError(f"{path} has no {'rows' if rows else 'header'}")
    header, data = rows[0], rows[1:]
    dim = len(header) - 1
    sites = np.array([int(r[0]) for r in data])
    vals = np.array([[float(x) for x in r[1:]] for r in data])
    n = int(sites.max())
    if not np.array_equal(sites, np.arange(-n, n + 1)):
        raise ValueError("csv sites do not form a symmetric window")
    return Configuration(Window(n, dim), vals, tail)
