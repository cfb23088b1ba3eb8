"""Interaction operators on configurations.

Both families are invariant operators: they commute with lattice shifts
and ignore simultaneous translations of all particles. Applied to a
homomorphism (a linear configuration) they produce a constant sequence,
so each exposes that constant directly, together with a Lipschitz bound
K(rho, R) valid on the tube of configurations within R of the
homomorphism rho.

Delta works elementwise along the site axis, so it takes K chains
stacked as (n, K, d) as it takes one chain (n, d).
"""

from __future__ import annotations

import numpy as np

from .errors import ConvexityError, _check_block, _read_block, _write_block
from .lattice import Configuration, as_rotation

__all__ = [
    "QuadraticCoupling",
    "PerturbedQuadraticCoupling",
    "NearestNeighborInteraction",
    "LongRangeInteraction",
    "delta_hom",
    "coupling_from_dict",
    "interaction_from_dict",
]


# --------------------------------------------------------------------------
# couplings for the generating (nearest-neighbor) form


class QuadraticCoupling:
    """I(x) = scale * |x|^2 / 2."""

    name = "quadratic"
    # Lipschitz constant of the hessian: it is constant. A coupling without
    # one has no Newton-Kantorovich proof (solver._kantorovich)
    hessian_lipschitz = 0.0

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ConvexityError("quadratic coupling needs a positive scale")
        self.scale = float(scale)

    # (sigma_min, sigma_max) of the hessian, globally
    @property
    def convexity_bounds(self):
        return (self.scale, self.scale)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.scale * (x * x).sum(axis=-1)

    def gradient(self, x):
        return self.scale * np.asarray(x, dtype=float)

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        eye = self.scale * np.eye(d)
        return np.broadcast_to(eye, x.shape[:-1] + (d, d)).copy()

    def to_dict(self):
        return _write_block(self, "name", _COUPLINGS)


class PerturbedQuadraticCoupling:
    """I(x) = |x|^2 / 2 + amplitude * sqrt(1 + |x|^2).

    Smooth, uniformly convex, non-quadratic; hessian eigenvalues lie in
    (1, 1 + amplitude].
    """

    name = "perturbed-quadratic"

    def __init__(self, amplitude: float = 0.1):
        if amplitude < 0:
            raise ConvexityError("perturbation amplitude must be nonnegative")
        self.amplitude = float(amplitude)

    @property
    def convexity_bounds(self):
        return (1.0, 1.0 + self.amplitude)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        s = (x * x).sum(axis=-1)
        return 0.5 * s + self.amplitude * np.sqrt(1.0 + s)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        s = (x * x).sum(axis=-1)
        return x * (1.0 + self.amplitude / np.sqrt(1.0 + s))[..., None]

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        d = x.shape[-1]
        s = (x * x).sum(axis=-1)
        iso = 1.0 + self.amplitude / np.sqrt(1.0 + s)
        eye = np.eye(d)
        outer = np.einsum("...i,...j->...ij", x, x)
        return iso[..., None, None] * eye - (
            self.amplitude * (1.0 + s) ** -1.5
        )[..., None, None] * outer

    def to_dict(self):
        return _write_block(self, "name", _COUPLINGS)


# name -> (class, key -> kind of each JSON key but "name")
_COUPLINGS = {"quadratic": (QuadraticCoupling, {"scale": "number"}),
              "perturbed-quadratic": (PerturbedQuadraticCoupling, {"amplitude": "number"})}


def coupling_from_dict(d: dict):
    """The coupling that to_dict wrote as d; ConfigError names a bad key, as
    a key of the interaction block that holds a coupling block."""
    return _read_block(d, "name", _COUPLINGS, "interaction.coupling")


# --------------------------------------------------------------------------
# interactions


class NearestNeighborInteraction:
    """Delta(u)_i = grad I(u_i - u_{i+1}) - grad I(u_{i-1} - u_i)."""

    kind = "nearest-neighbor"
    reach = 1

    def __init__(self, coupling=None):
        self.coupling = coupling if coupling is not None else QuadraticCoupling()
        lo, hi = self.coupling.convexity_bounds
        if not (0 < lo <= hi):
            raise ConvexityError(
                f"coupling convexity bounds ({lo}, {hi}) are not ordered positives"
            )

    def delta(self, u: Configuration) -> np.ndarray:
        """Delta(u) at every window site, neighbors from the tail."""
        ext = u.extended(1)
        right = self.coupling.gradient(ext[1:-1] - ext[2:])
        left = self.coupling.gradient(ext[:-2] - ext[1:-1])
        return right - left

    def delta_hom(self, rho) -> np.ndarray:
        rot = as_rotation(rho)
        g = self.coupling.gradient(-rot.rho)
        return g - g  # identical gaps on a homomorphism: exact cancellation

    def lipschitz_bound(self, rho, R: float) -> float:
        """K(rho, R) = 4 sup |hessian of I| over the ball of radius
        |rho| + 2R: 4 times the coupling's declared convexity bound, which
        both couplings attain at x = 0, inside every ball."""
        return 4.0 * self.coupling.convexity_bounds[1]

    def truncation_error(self, rho, R: float) -> float:
        return 0.0  # finite reach, nothing dropped

    def to_dict(self):
        return {"kind": self.kind, "coupling": self.coupling.to_dict()}


class LongRangeInteraction:
    """Delta(u)_i = sum_k c_k (u_i - u_{i+k})^power, componentwise.

    Default weights c_k = weight_base^|k| for 1 <= |k| <= cutoff; the
    dropped geometric tail is accounted for in the Lipschitz bound and
    reported by truncation_error. Explicit weight dictionaries define a
    finite operator with no tail.
    """

    kind = "long-range"

    def __init__(self, weights=None, power: int = 3, cutoff: int = 32,
                 weight_base: float = 0.5):
        self.power = int(power)
        if self.power < 1:
            raise ValueError("power must be >= 1")
        if weights is None:
            if not 0 < weight_base < 1:
                raise ValueError("weight_base must lie in (0, 1)")
            self.weight_base = float(weight_base)
            self.cutoff = int(cutoff)
            self.weights = {
                k: self.weight_base ** abs(k)
                for k in range(-self.cutoff, self.cutoff + 1)
                if k != 0
            }
            self.rule_tail = True
        else:
            self.weights = {int(k): float(c) for k, c in weights.items() if int(k) != 0}
            if not self.weights:
                raise ValueError("long-range interaction needs a nonzero offset")
            self.cutoff = max(abs(k) for k in self.weights)
            self.weight_base = None
            self.rule_tail = False
        self.reach = max(abs(k) for k in self.weights)

    def delta(self, u: Configuration) -> np.ndarray:
        ext = u.extended(self.reach)
        n = u.window.n_sites
        center = ext[self.reach:self.reach + n]
        out = np.zeros_like(center)
        for k, c in self.weights.items():
            neighbor = ext[self.reach + k:self.reach + k + n]
            out += c * (center - neighbor) ** self.power
        return out

    def delta_hom(self, rho) -> np.ndarray:
        rot = as_rotation(rho)
        out = np.zeros(rot.dimension)
        for k, c in self.weights.items():
            out += c * (-k * rot.rho) ** self.power
        return out

    def _term_lipschitz(self, k: int, rho_norm: float, R: float) -> float:
        # |a^p - b^p| <= p max(|a|,|b|)^(p-1) |a-b| with |a|,|b| <= |k||rho|+2R
        # and |a-b| <= 2 d(u,u')
        return 2.0 * self.power * (abs(k) * rho_norm + 2.0 * R) ** (self.power - 1)

    def lipschitz_bound(self, rho, R: float) -> float:
        rho_norm = as_rotation(rho).norm()
        total = sum(
            abs(c) * self._term_lipschitz(k, rho_norm, R)
            for k, c in self.weights.items()
        )
        if self.rule_tail:
            # the series runs over all of Z; the k = 0 term has weight 1
            # even though that offset never contributes to Delta
            total += self._term_lipschitz(0, rho_norm, R)
            total = self._with_tail(total, lambda k: self._term_lipschitz(k, rho_norm, R))
        return total

    def truncation_error(self, rho, R: float) -> float:
        """Sup-norm bound on the dropped tail of Delta over the tube
        d(u, rho) <= R."""
        if not self.rule_tail:
            return 0.0
        rho_norm = as_rotation(rho).norm()
        return self._with_tail(0.0, lambda k: (k * rho_norm + 2.0 * R) ** self.power)

    def _with_tail(self, total: float, term) -> float:
        """total plus 2 weight_base^k term(k) over the dropped offsets k >
        cutoff, summed until one falls below 1e-30 of the sum."""
        k = self.cutoff + 1
        while True:
            t = 2 * self.weight_base**k * term(k)
            total += t
            if t < 1e-30 * max(total, 1.0):
                return total
            k += 1

    def to_dict(self):
        weights = {"weights": {str(k): c for k, c in self.weights.items()}}
        return {"kind": self.kind, "power": self.power,
                **({k: getattr(self, k) for k in _RULE} if self.rule_tail else weights)}


_RULE = {"cutoff": "int", "weight_base": "number"}  # of the rule that makes long-range weights
# kind -> (class, key -> kind of each JSON key but "kind")
_INTERACTIONS = {"nearest-neighbor": (NearestNeighborInteraction, {"coupling": "object"}),
                 "long-range": (LongRangeInteraction,
                                {"weights": "weights", "power": "int", **_RULE})}


def interaction_from_dict(d: dict):
    """The interaction that to_dict wrote as d; ConfigError names a bad key.
    Explicit weights take no rule: its keys beside them are unknown."""
    interaction = _read_block(d, "kind", _INTERACTIONS, "interaction",
                              {"coupling": coupling_from_dict})
    if "weights" in d:
        _check_block({k: d[k] for k in _RULE if k in d}, {}, "interaction")
    return interaction


def delta_hom(interaction, rho) -> np.ndarray:
    """The constant Delta of the homomorphism rho."""
    return interaction.delta_hom(rho)
