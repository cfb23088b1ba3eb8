"""Fixed-point construction of strong-coupling equilibria.

The equilibrium equation Delta(u)_i + lam * grad V(u_i) = 0 is solved by
iterating the site-wise map u_i -> phi_{a_i}(-Delta(u)_i / lam), where a
is the nearest-anchor configuration of the prescribed rotation vector and
phi_z is the certified local inverse of grad V on the ball around the
anchor z. Above the coupling threshold the map contracts the tube
{d(u, a) <= r} with factor at most r / (r + R), which yields the stopping
rule and the a-posteriori error bound.

For nearest-neighbour interactions the equilibrium is a nondegenerate
zero of F(u) = Delta(u) + lam * grad V(u), whose Jacobian is the
block-tridiagonal operator of the tangent recursion. Once two tube-map
steps have put the iterate well inside the tube, Newton steps on the
whole chain converge quadratically; a closing tube-map step then carries
the same a-posteriori bound as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError, ConvergenceError, DomainError
from .hyperbolicity import _coefficients
from .interactions import NearestNeighborInteraction
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

NEWTON_STEPS = 8  # most Newton steps per solve, apart from max_iter


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
    newton_steps: list = field(default_factory=list)  # residual after each
    newton_fallback: bool = False  # a Newton step was discarded

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
            "newton_steps": [float(s) for s in self.newton_steps],
            "newton_fallback": self.newton_fallback,
        }


def lambda_threshold(interaction, rho, cert: AubryCertificate) -> float:
    """Coupling strength above which the tube map is a guaranteed
    contraction: (K(rho, r+R) * (r+R) + |Delta_hom(rho)|) / (r * m)."""
    rot = as_rotation(rho)
    r, R, m = cert.ball_radius, cert.covering_radius, cert.expansion
    K = interaction.lipschitz_bound(rot, r + R)
    hom = float(np.linalg.norm(interaction.delta_hom(rot)))
    return (K * (r + R) + hom) / (r * m)


def _force(u: Configuration, interaction, V, lam: float) -> np.ndarray:
    """F(u)_i = Delta(u)_i + lam * grad V(u_i) at the window sites, (n, d),
    with neighbors outside the window supplied by the tail rule."""
    return interaction.delta(u) + lam * V.gradient(u.values)


def _sup(x: np.ndarray) -> float:
    """Largest row norm of an (n, d) array."""
    return float(np.linalg.norm(x, axis=1).max())


def residual(u: Configuration, interaction, V, lam: float) -> float:
    """sup_i |Delta(u)_i + lam * grad V(u_i)| over window sites, with
    neighbors outside the window supplied by the tail rule."""
    return _sup(_force(u, interaction, V, lam))


def _cyclic_reduction(lower, diag, upper, rhs) -> np.ndarray:
    """Solve the block-tridiagonal system
    lower_i x_{i-1} + diag_i x_i + upper_i x_{i+1} = rhs_i, i < n,
    for blocks of shape (n, d, d) and rhs of shape (n, d); lower_0 and
    upper_{n-1} are ignored.

    Each level eliminates the odd-indexed unknowns from their even
    neighbours' rows, halving the system, and fills them back in after
    the even half is solved: O(n) work in log2(n) vectorised levels.
    Blocks of size 1 are solved as scalars. The diagonal blocks met on
    the way must be invertible, as they are for a diagonally dominant
    system; a singular one raises numpy.linalg.LinAlgError (d > 1) or
    yields non-finite values (d = 1).
    """
    if diag.shape[-1] == 1:
        x = _reduce(lower[:, 0, 0], diag[:, 0, 0], upper[:, 0, 0],
                    rhs[:, 0], np.reciprocal, np.multiply, np.multiply)
        return x[:, None]
    return _reduce(lower, diag, upper, rhs, np.linalg.inv, np.matmul,
                   lambda X, y: (X @ y[..., None])[..., 0])


def _reduce(a, b, c, f, inv, mul, mv):
    """One level of _cyclic_reduction, recursing on the even unknowns;
    inv, mul and mv invert, multiply and apply blocks."""
    n = len(b)
    if n == 1:
        return mv(inv(b), f)
    ne, no = (n + 1) // 2, n // 2      # even and odd unknowns
    bi = inv(b[1::2])
    left = mul(a[2::2], bi[:ne - 1])   # even 2k >= 2 meets odd 2k - 1
    right = mul(c[0:2 * no:2], bi)     # even 2k < n - 1 meets odd 2k + 1
    a2, b2, c2, f2 = (np.zeros_like(b[::2]), b[::2].copy(),
                      np.zeros_like(b[::2]), f[::2].copy())
    odd = slice(1, 2 * ne - 2, 2)      # the left neighbours 2k - 1
    a2[1:] = -mul(left, a[odd])
    b2[1:] -= mul(left, c[odd])
    f2[1:] -= mv(left, f[odd])
    b2[:no] -= mul(right, a[1::2])
    c2[:no] = -mul(right, c[1::2])
    f2[:no] -= mv(right, f[1::2])
    xe = _reduce(a2, b2, c2, f2, inv, mul, mv)
    r = f[1::2] - mv(a[1::2], xe[:no])
    r[:ne - 1] -= mv(c[1::2][:ne - 1], xe[1:])
    x = np.empty_like(f)
    x[::2], x[1::2] = xe, mv(bi, r)
    return x


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
        self._tube_radius = cert.ball_radius * (1 + 1e-9) + 1e-12

    def phi_step(self, u: Configuration) -> Configuration:
        """One sweep of the tube map: u_i -> phi_{a_i}(-Delta(u)_i / lam)
        around the solver's anchors a, each local inverse started at u_i
        projected onto its anchor ball.

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
            start=u.values,
        )
        drift = _sup(new_values - anchors)
        if drift > self._tube_radius:
            raise CertificateError(
                f"tube map left the anchor ball: {drift:.6e} > r = "
                f"{cert.ball_radius:.6e}"
            )
        return u.with_values(new_values)

    def newton_polish(self, u: Configuration):
        """Newton steps L delta = F(u) on the whole chain, L the
        block-tridiagonal Jacobian of F (blocks -B_i, A_i + B_i + C_i, -A_i
        of the tangent recursion), solved by cyclic reduction.

        Stops once the residual is at most tol, which puts the closing
        tube-map step within the stopping rule when lam is above the
        threshold, or after NEWTON_STEPS steps. A step that leaves the
        tube |u - a| <= r, does not lower the residual or meets a singular
        block is discarded, and the polish ends there. Returns (u, residual after each kept step, whether a
        step was discarded).
        """
        lam = self.params.lam
        force = _force(u, self.interaction, self.potential, lam)
        res, history = _sup(force), []
        for _ in range(NEWTON_STEPS):
            if res <= self.params.tol:
                break
            _, A, B, C = _coefficients(u, self.interaction, self.potential, lam)
            try:
                step = _cyclic_reduction(-B, A + B + C, -A, force)
            except np.linalg.LinAlgError:
                return u, history, True
            v = u.with_values(u.values - step)
            force_v = _force(v, self.interaction, self.potential, lam)
            res_v = _sup(force_v)
            # written so that a non-finite step fails both tests
            if not (_sup(v.values - self.anchors.values) <= self._tube_radius
                    and res_v < res):
                return u, history, True
            u, force, res = v, force_v, res_v
            history.append(res)
        return u, history, False

    def solve(self, initial: Configuration | None = None):
        """Iterate phi_step from the anchors (or a caller-supplied start in
        the tube) until the a-posteriori bound and the residual check both
        pass. For a nearest-neighbour interaction, newton_polish runs after
        the second step and the loop goes on with the closing step, so the
        answer is still a tube-map image. Returns (configuration, report)."""
        p = self.params
        cert = self.cert
        q = cert.ball_radius / (cert.ball_radius + cert.covering_radius)
        step_threshold = p.tol * (1 - q) / q
        u = initial if initial is not None else self.anchors
        if u.window != self.window:
            raise ValueError("initial configuration window mismatch")
        steps, newton_steps, fallback = [], [], False
        converged = False
        final_res = last_res = np.inf
        for k in range(p.max_iter):
            if k == 2 and isinstance(self.interaction, NearestNeighborInteraction):
                u, newton_steps, fallback = self.newton_polish(u)
            u_next = self.phi_step(u)
            delta = _sup(u_next.values - u.values)
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
        report = self._report(u, steps, final_res, converged, newton_steps,
                              fallback)
        return u, report

    def _report(self, u, steps, final_res, converged, newton_steps,
                newton_fallback) -> SolveReport:
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
        d_anchor = _sup(u.values - self.anchors.values)
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
            newton_steps=newton_steps,
            newton_fallback=newton_fallback,
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
