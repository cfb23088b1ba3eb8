"""Fixed-point construction of strong-coupling equilibria.

The equilibrium equation Delta(u)_i + lam * grad V(u_i) = 0 is solved by
iterating the site-wise map u_i -> phi_{a_i}(-Delta(u)_i / lam), where a
is the nearest-anchor configuration of the prescribed rotation vector and
phi_z is the certified local inverse of grad V on the ball around the
anchor z. Above the coupling threshold the map contracts the tube
{d(u, a) <= r} with factor at most r / (r + R), which yields the stopping
rule and the a-posteriori error bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError, ConvergenceError, DomainError
from .lattice import (
    Configuration,
    Window,
    anchor_configuration,
    as_rotation,
    ext_distance,
    homomorphism_configuration,
    rotation_vector_estimate,
)
from .potentials import AubryCertificate, local_inverse_batch

__all__ = [
    "SolveParams",
    "SolveReport",
    "UniquenessVerdict",
    "lambda_threshold",
    "residual",
    "ContractionSolver",
    "solve_equilibrium",
    "uniqueness_check",
]


@dataclass
class SolveParams:
    lam: float                      # coupling strength multiplying grad V
    rho: object                     # rotation vector (coerced)
    window: object                  # Window, or an int half-width
    tol: float = 1e-10              # sup-norm residual tolerance
    max_iter: int = 200
    inner_tol: float | None = None  # local-inverse tolerance, <= tol/10

    def __post_init__(self):
        self.rho = as_rotation(self.rho)
        if not isinstance(self.window, Window):
            self.window = Window(int(self.window), self.rho.dimension)
        if self.window.dimension != self.rho.dimension:
            raise ValueError(
                f"window dimension {self.window.dimension} does not match "
                f"rotation vector ({self.rho.dimension})"
            )
        if self.lam <= 0:
            raise ValueError("coupling strength must be positive")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.inner_tol is None:
            # keep lam * inner_tol comfortably below tol so the residual
            # verification is reachable
            self.inner_tol = self.tol / (100.0 * max(1.0, self.lam / 10.0))
        if self.inner_tol > self.tol / 10.0:
            raise ValueError("inner_tol must be at most tol / 10")

    @property
    def half_width(self) -> int:
        return self.window.half_width


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    final_residual: float
    step_distances: list
    contraction_factor: float
    distance_to_anchor: float
    distance_to_rotation: float
    rotation_estimate: list
    lambda_threshold: float
    lambda_at_least_threshold: bool
    inner_tol: float
    truncation_error: float
    warnings: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "final_residual": self.final_residual,
            "step_distances": [float(s) for s in self.step_distances],
            "contraction_factor": self.contraction_factor,
            "distance_to_anchor": self.distance_to_anchor,
            "distance_to_rotation": self.distance_to_rotation,
            "rotation_estimate": self.rotation_estimate,
            "lambda_threshold": self.lambda_threshold,
            "lambda_at_least_threshold": self.lambda_at_least_threshold,
            "inner_tol": self.inner_tol,
            "truncation_error": self.truncation_error,
            "warnings": list(self.warnings),
        }


def lambda_threshold(interaction, rho, cert: AubryCertificate) -> float:
    """Coupling strength above which the tube map is a guaranteed
    contraction: (K(rho, r+R) * (r+R) + |Delta_hom(rho)|) / (r * m)."""
    rot = as_rotation(rho)
    r, R, m = cert.ball_radius, cert.covering_radius, cert.expansion
    K = interaction.lipschitz_bound(rot, r + R)
    hom = float(np.linalg.norm(interaction.delta_hom(rot)))
    return (K * (r + R) + hom) / (r * m)


def residual(u: Configuration, interaction, V, lam: float) -> float:
    """sup_i |Delta(u)_i + lam * grad V(u_i)| over window sites, with
    neighbors outside the window supplied by the tail rule."""
    res = interaction.delta(u) + lam * V.gradient(u.values)
    return float(np.linalg.norm(np.atleast_2d(res), axis=1).max())


class ContractionSolver:
    """Bundles interaction, potential, certificate, and anchors for a run."""

    def __init__(self, interaction, potential, cert: AubryCertificate,
                 params: SolveParams, anchors: Configuration | None = None):
        self.interaction = interaction
        self.potential = potential
        self.cert = cert
        self.params = params
        dim = params.rho.dimension
        pdim = getattr(potential, "dimension", dim)
        if pdim != dim:
            raise ValueError(
                f"potential dimension {pdim} does not match rotation vector ({dim})"
            )
        self.window = params.window
        if anchors is None:
            anchors = anchor_configuration(
                params.rho, cert.sampler, cert.covering_radius, self.window
            )
        elif anchors.window != self.window:
            raise ValueError("anchor configuration window mismatch")
        self.anchors = anchors
        self.threshold = lambda_threshold(interaction, params.rho, cert)

    def phi_step(self, u: Configuration) -> Configuration:
        """One sweep of the tube map: u_i -> phi_{a_i}(-Delta(u)_i / lam)
        around the solver's anchors a.

        A target outside the admissible ball raises DomainError naming the
        offending site; an output outside the anchor ball (certificate
        violation) raises CertificateError.
        """
        cert, lam = self.cert, self.params.lam
        targets = -self.interaction.delta(u) / lam
        norms = np.linalg.norm(np.atleast_2d(targets), axis=1)
        limit = cert.admissible_radius
        if norms.max() > limit * (1 + 1e-9):
            j = int(np.argmax(norms))
            site = j - u.window.half_width
            raise DomainError(
                f"|Delta(u)_i / lam| = {norms[j]:.6e} exceeds r*m = {limit:.6e} "
                f"at site {site}; coupling too weak for this certificate",
                site=site, norm=float(norms[j]), limit=limit,
            )
        anchors = self.anchors.values
        new_values = local_inverse_batch(
            self.potential, anchors, targets, cert, tol=self.params.inner_tol,
        )
        drift = np.linalg.norm(new_values - anchors, axis=1).max()
        if drift > cert.ball_radius * (1 + 1e-9) + 1e-12:
            raise CertificateError(
                f"tube map left the anchor ball: {drift:.6e} > r = "
                f"{cert.ball_radius:.6e}"
            )
        return u.with_values(new_values)

    def solve(self, initial: Configuration | None = None):
        """Iterate phi_step from the anchors (or a caller-supplied start in
        the tube) until the a-posteriori bound and the residual check both
        pass. Returns (configuration, report)."""
        p = self.params
        cert = self.cert
        q = cert.ball_radius / (cert.ball_radius + cert.covering_radius)
        step_threshold = p.tol * (1 - q) / q
        u = initial if initial is not None else self.anchors
        if u.window != self.window:
            raise ValueError("initial configuration window mismatch")
        steps = []
        converged = False
        final_res = last_res = np.inf
        for _ in range(p.max_iter):
            u_next = self.phi_step(u)
            delta = float(
                np.linalg.norm(u_next.values - u.values, axis=1).max()
            )
            steps.append(delta)
            u = u_next
            # below one float spacing of u a step cannot shrink further
            if delta <= max(step_threshold, np.spacing(np.abs(u.values).max())):
                final_res = residual(u, self.interaction, self.potential, p.lam)
                if final_res <= p.tol:
                    converged = True
                    break
                if final_res >= last_res:
                    H = self.potential.hessian(u.values).reshape(len(u.values), -1)
                    floor = p.lam * np.linalg.norm(H, axis=1).max() * 0.5 * (
                        np.spacing(np.abs(u.values).max()))
                    raise ConvergenceError(
                        f"residual stalled at {final_res:.3e} above tol "
                        f"{p.tol:.1e}; the float floor of this chain, "
                        f"lam * max|H| * spacing(max|u|) / 2, is {floor:.3e}",
                        trace=steps,
                    )
                last_res = final_res
        if not converged:
            if not np.isfinite(final_res):
                final_res = residual(u, self.interaction, self.potential, p.lam)
            raise ConvergenceError(
                f"no convergence in {p.max_iter} iterations "
                f"(last step {steps[-1]:.3e}, residual {final_res:.3e})",
                trace=steps,
            )
        report = self._report(u, steps, final_res, converged)
        return u, report

    def _report(self, u, steps, final_res, converged) -> SolveReport:
        noise_floor = 100 * np.finfo(float).eps * (
            1.0 + float(np.abs(u.values).max())
        )
        ratios = [
            steps[k + 1] / steps[k]
            for k in range(len(steps) - 1)
            if steps[k] > noise_floor
        ]
        warnings = []
        at_least = self.params.lam >= self.threshold
        if not at_least:
            warnings.append(
                "coupling below the contraction threshold: no convergence "
                "guarantee"
            )
        d_anchor = float(
            np.linalg.norm(u.values - self.anchors.values, axis=1).max()
        )
        hom = homomorphism_configuration(self.params.rho, self.window)
        d_rho = ext_distance(u, hom)
        return SolveReport(
            iterations=len(steps),
            converged=converged,
            final_residual=final_res,
            step_distances=steps,
            contraction_factor=max(ratios) if ratios else 0.0,
            distance_to_anchor=d_anchor,
            distance_to_rotation=d_rho,
            rotation_estimate=rotation_vector_estimate(u).tolist(),
            lambda_threshold=self.threshold,
            lambda_at_least_threshold=bool(at_least),
            inner_tol=self.params.inner_tol,
            truncation_error=self.interaction.truncation_error(
                self.params.rho,
                self.cert.ball_radius + self.cert.covering_radius,
            ),
            warnings=warnings,
        )


def solve_equilibrium(params: SolveParams, interaction, potential,
                      cert: AubryCertificate,
                      initial: Configuration | None = None,
                      anchors: Configuration | None = None):
    """One-call interface: build the solver and run it."""
    solver = ContractionSolver(interaction, potential, cert, params, anchors)
    return solver.solve(initial)


@dataclass
class UniquenessVerdict:
    same_ball: bool
    distance: float
    tol: float
    within_tolerance: bool | None

    def to_json_dict(self) -> dict:
        return {
            "same_ball": self.same_ball,
            "distance": self.distance,
            "tol": self.tol,
            "within_tolerance": self.within_tolerance,
        }


def uniqueness_check(u: Configuration, u2: Configuration,
                     cert: AubryCertificate, tol: float = 1e-10) -> UniquenessVerdict:
    """Decide whether two configurations share an anchor ball at every
    site; if they do, they must coincide (checked against 10 * tol)."""
    if u.window != u2.window:
        raise ValueError("configurations live on different windows")
    r = cert.ball_radius
    slack = r * (1 + 1e-9) + 1e-12
    same = True
    for a, b in zip(u.values, u2.values):
        mid = 0.5 * (a + b)
        pts = np.atleast_2d(cert.sampler.points_near(mid, r * (1 + 1e-9) + 1e-12))
        if pts.size == 0:
            same = False
            break
        da = np.linalg.norm(pts - a, axis=1)
        db = np.linalg.norm(pts - b, axis=1)
        if not ((da <= slack) & (db <= slack)).any():
            same = False
            break
    dist = ext_distance(u, u2)
    return UniquenessVerdict(
        same_ball=same,
        distance=dist,
        tol=tol,
        within_tolerance=(dist <= 10 * tol) if same else None,
    )
