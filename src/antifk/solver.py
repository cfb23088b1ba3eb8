"""Fixed-point construction of strong-coupling equilibria.

The equilibrium equation Delta(u)_i + lam * grad V(u_i) = 0 is solved by
iterating the site-wise map u_i -> phi_{a_i}(-Delta(u)_i / lam), where a
is the nearest-anchor configuration of the prescribed rotation vector and
phi_z is the certified local inverse of grad V on the ball around the
anchor z. Above the coupling threshold the map contracts the tube
{d(u, a) <= r} with factor at most r / (r + R), which yields the stopping
rule and the a-posteriori error bound.

For nearest-neighbour interactions the equilibrium is a nondegenerate
zero of F(u) = Delta(u) + lam * grad V(u), whose Jacobian L is the
block-tridiagonal operator of the tangent recursion. The chain perturbs
its anchors (the anti-integrable limit), so every chain is polished by
Newton from its start, and a closing tube-map step then carries the same
a-posteriori bound as before. Where bounds exist the report gives
Kantorovich's h = Lip |F(a)| / g^2 at the start a (g the gap of L(a), Lip
a Lipschitz constant of L); h <= 1/2 proves Newton from a converges.

Each step hands grad V and hess V at the chains it produced to the next
as whole-stack arrays, so V is evaluated at most once per chain point. A
step only reads the arrays it is handed and writes an array only before
it hands it on, so a converged case's ContractionSolver.derivatives stay.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CertificateError, ConvergenceError, DomainError
from .hyperbolicity import _ROUND, _coefficients, _inv, _sv
from .interactions import NearestNeighborInteraction
from .lattice import (
    Configuration,
    Window,
    _nearest_anchors,
    _norms,
    anchor_configuration,
    anchor_stack,
    as_rotation,
    ext_distance,
    ext_distances,
    homomorphism_configuration,
    rotation_vector_estimate,
    stack_chains,
)
from .potentials import AubryCertificate, _at_runs, local_inverse_batch

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


def _tube_radius(cert: AubryCertificate) -> float:
    """The ball radius r of cert, padded against rounding, that a chain
    must stay within around its anchors."""
    return cert.ball_radius * (1 + 1e-9) + 1e-12


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
        if self.inner_tol is None:
            # keep lam * inner_tol comfortably below tol so the residual
            # verification is reachable
            self.inner_tol = self.tol / (100.0 * max(1.0, self.lam / 10.0))
        for name, value in (("lam", self.lam), ("rho", self.rho.rho),
                            ("tol", self.tol), ("inner_tol", self.inner_tol)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
        if self.lam <= 0:
            raise ValueError("coupling strength must be positive")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.inner_tol <= 0:
            raise ValueError(f"inner_tol must be positive, got {self.inner_tol}")
        if self.inner_tol > self.tol / 10.0:
            raise ValueError("inner_tol must be at most tol / 10")


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
    kantorovich_h: float | None = None    # h at the start chain; None: no bound
    kantorovich_lam: float | None = None  # least lam whose bounds prove; None: none

    def to_json_dict(self) -> dict:
        return asdict(self)


def lambda_threshold(interaction, rho, cert: AubryCertificate) -> float:
    """Coupling strength above which the tube map is a guaranteed
    contraction: (K(rho, r+R) * (r+R) + |Delta_hom(rho)|) / (r * m)."""
    rot = as_rotation(rho)
    r, R, m = cert.ball_radius, cert.covering_radius, cert.expansion
    K = interaction.lipschitz_bound(rot, r + R)
    hom = float(_norms(interaction.delta_hom(rot)))
    return (K * (r + R) + hom) / (r * m)


def _widen(part: np.ndarray, cases, K: int, base=None) -> np.ndarray:
    """part (n, len(cases), ...), at the chains of the ascending case ids
    cases, as a stack of K chains, a copy of base (n, K, ...) or NaN at the others."""
    if len(cases) == K:
        return part
    out = np.full((len(part), K) + part.shape[2:], np.nan) if base is None else base.copy()
    out[:, cases] = part
    return out


def _at_cases(V, x: np.ndarray, cases, base=(None, None), runs=False) -> tuple:
    """(grad V, hess V) from one V.derivatives call at the chains of the
    ascending case ids cases of the stack x (n, K, d), as (n, K, d) and (n,
    K, d, d) widened over base (_widen). V sees the sites as (rows, d);
    with runs, once per run of bit-equal sites along a chain (_at_runs)."""
    K, d = x.shape[1], x.shape[-1]
    part = x if len(cases) == K else x[:, cases]
    rows = part.reshape(-1, d)
    values = _at_runs(V, rows, len(cases)) if runs else V.derivatives(rows)
    return tuple(_widen(a.reshape(part.shape + (d,) * rank), cases, K, b)
                 for a, b, rank in zip(values, base, (0, 1)))


def _force(u: Configuration, interaction, V, lam, gradient=None) -> np.ndarray:
    """F(u)_i = Delta(u)_i + lam * grad V(u_i) at the window sites, (n, d),
    with neighbors outside the window supplied by the tail rule; for
    stacked chains (n, K, d), lam is one coupling or one per chain as a
    (K, 1) array. V sees the sites as (rows, d), as it does for a single
    chain; gradient, if given, is grad V at u's sites, of u's shape."""
    x = u.values
    if gradient is None:
        gradient = V.gradient(x.reshape(-1, x.shape[-1])).reshape(x.shape)
    return interaction.delta(u) + lam * gradient


def _sup(x: np.ndarray):
    """Largest row norm of an (n, d) array, or one per chain (an array)
    of a stack (n, K, d)."""
    m = _norms(x).max(axis=0)
    return float(m) if x.ndim == 2 else m


def residual(u: Configuration, interaction, V, lam, gradient=None):
    """sup_i |Delta(u)_i + lam * grad V(u_i)| over window sites, with
    neighbors outside the window supplied by the tail rule; one per chain
    for stacked chains, lam and gradient as for _force."""
    return _sup(_force(u, interaction, V, lam, gradient))


def _cyclic_reduction(lower, diag, upper, rhs) -> np.ndarray:
    """Solve the block-tridiagonal system
    lower_i x_{i-1} + diag_i x_i + upper_i x_{i+1} = rhs_i, i < n,
    for blocks of shape (n, d, d) and rhs of shape (n, d); lower_0 and
    upper_{n-1} are ignored. Blocks (n, K, d, d) and rhs (n, K, d) hold K
    independent systems, each solved with its own float operations.

    Each level eliminates the odd-indexed unknowns from their even
    neighbours' rows, halving the system, and fills them back in after
    the even half is solved: O(n) work in log2(n) vectorised levels.
    Blocks of size 1 are solved as scalars. The diagonal blocks met on
    the way must be invertible, as they are for a diagonally dominant
    system; a singular one yields non-finite values in its system only.
    """
    # numpy's per-call cost is lower on the 1-d slices of one system than
    # on 2-d ones, so a stack of one is solved with its case axis dropped
    one = rhs.ndim == 3 and rhs.shape[1] == 1
    if one:
        lower, diag, upper, rhs = (m[:, 0] for m in (lower, diag, upper, rhs))
    with np.errstate(divide="ignore", invalid="ignore"):
        if diag.shape[-1] == 1:
            x = _reduce(lower[..., 0, 0], diag[..., 0, 0], upper[..., 0, 0],
                        rhs[..., 0], np.reciprocal, np.multiply, np.multiply)[..., None]
        else:
            x = _reduce(lower, diag, upper, rhs, _inv, np.matmul,
                        lambda X, y: np.einsum("...ij,...j->...i", X, y))
    return x[:, None] if one else x


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


_EPS = np.finfo(float).eps


def _kantorovich(u: Configuration, interaction, V, lam, grad, hess, force,
                 blocks) -> tuple:
    """Per chain of the stack u (n, K, 1) at lam (K, 1), Kantorovich's h =
    Lip |F(u)| / g^2 and the least coupling at which the same bounds give h
    <= 1/2, or None, from grad V, hess V, F(u) and the Jacobian's blocks
    (A, B, C) at u: no V row. Rounded outward, with e V's rounding error at
    the power of two >= max |u| (V.hessian_lipschitz_bound, d = 1; not
    batch dependent) and K = lipschitz_bound >= |A_i + B_i| + |A_i| + |B_i|:
    g = min_i |A_i + B_i + C_i| - K / 2 - lam e (phonon_gap, so |L^{-1}|
    <= 1 / g); Lip = lam L + 8 L_I, since C_i moves by lam L t and A_i, B_i
    (each at two sites) by 2 L_I t when the chain moves by t (L_I the
    coupling's hessian_lipschitz); |F| gains lam e and the roundings of
    Delta's terms (at most K max|u| for a quadratic coupling) and of lam
    grad. As |F| <= D + lam z at any lam, z >= |grad V(u)| (at the anchors
    the zero error), and g >= lam mu - K, mu = min_i |hess V(u_i)|, h <=
    1/2 is a quadratic in lam; its larger root is the least coupling."""
    A, B, C = blocks
    lam, k = lam[:, 0], interaction.lipschitz_bound(0.0, 0.0)
    lip_i = interaction.coupling.hessian_lipschitz
    big, size = np.maximum(_sup(u.values), _sup(u.halo)), _sup(grad)
    reach = np.exp2(np.ceil(np.log2(np.maximum(big, 1.0)))).tolist()
    known = {r: V.hessian_lipschitz_bound(r) for r in set(reach)}
    L, e = np.array([known[r] for r in reach]).T
    diagonal = np.abs(A + B + C)[..., 0, 0]
    with np.errstate(invalid="ignore", divide="ignore"):  # NaN at chains not running
        low, high = diagonal.min(axis=0), diagonal.max(axis=0)
        g = (low - k / 2 - _ROUND * (high + k / 2) - lam * e) * (1 - 2 * _EPS)
        F = _sup(force) + 4 * _EPS * (k * big + lam * size) + lam * e
        h = (lam * L * (1 + _EPS) + 8 * lip_i) * F / (g * g) * (1 + 8 * _EPS)
        z = size + e
        D = F + lam * z * (1 + 2 * _EPS)
        mu = (np.abs(hess).min(axis=(0, 2, 3)) - e) * (1 - 2 * _EPS)
        # (lam mu - K)^2 >= 2 (lam L + 8 L_I) (D + lam z): a2 lam^2 - 2 a1 lam + a0 >= 0
        a2, a1 = mu * mu - 2 * L * z, k * mu + L * D + 8 * lip_i * z
        a0 = k * k - 16 * lip_i * D
        least = (a1 + np.sqrt(a1 * a1 - a2 * a0)) / a2 * (1 + 16 * _EPS)
    h = [x if ok else None for x, ok in zip(h.tolist(), (g > 0) & np.isfinite(h))]
    least = [x if ok else None for x, ok in
             zip(least.tolist(), (mu > 0) & (a2 > 0) & np.isfinite(least))]
    return h, least


class ContractionSolver:
    """Bundles interaction, potential, certificate, and anchors for a batch
    of cases.

    cases is a list of SolveParams sharing the window, tol and max_iter.
    The solver iterates its K cases as chains stacked site-axis-first,
    (n, K, d), through the same steps: every kernel works row by row, so
    each case takes the float operations it takes alone. anchors, if
    given, and initial hold K stacked chains. The stack keeps all K chains
    from the first step to the last: phi_step and newton_polish update the
    cases named by their ids and carry every other chain over as it is. A
    case that fails records its error in self.failures. solve_equilibrium
    is the one-case call.
    """

    def __init__(self, interaction, potential, cert: AubryCertificate,
                 cases, anchors: Configuration | None = None):
        self.interaction = interaction
        self.potential = potential
        self.cert = cert
        self.cases = list(cases)
        if not self.cases:
            raise ValueError("a batch needs at least one case")
        first = self.cases[0]
        shared = (first.window, first.tol, first.max_iter)
        if any((p.window, p.tol, p.max_iter) != shared for p in self.cases):
            raise ValueError("a batch shares one window, tol and max_iter")
        dim = first.rho.dimension
        pdim = getattr(potential, "dimension", dim)
        if pdim != dim:
            raise ValueError(
                f"potential dimension {pdim} does not match rotation vector ({dim})"
            )
        self.window, self.tol, self.max_iter = shared
        self.lam = np.array([[p.lam] for p in self.cases])  # (K, 1)
        self.inner_tol = np.array([p.inner_tol for p in self.cases])
        self._lost = {}  # case -> error of its anchor lookup
        if anchors is None:
            anchors = self._anchor_stack()
        elif not self._fits(anchors):
            raise ValueError("anchor configuration window or case mismatch")
        self.anchors = anchors
        self._anchors = anchors.values
        self.thresholds = [lambda_threshold(interaction, p.rho, cert)
                           for p in self.cases]
        self._tube_radius = _tube_radius(cert)
        self.failures, self.derivatives = dict(self._lost), {}

    def _fits(self, u: Configuration) -> bool:
        """Whether u holds one chain per case on the solver's window."""
        return u.window == self.window and u.values.shape[1:-1] == (len(self.cases),)

    def _anchor_stack(self) -> Configuration:
        """The batch's anchors and the halos of their tails from one
        lookup. If it fails, the anchors are looked up one case at a time,
        and a case without anchors fails."""
        cert, rots = self.cert, [p.rho for p in self.cases]
        args = (cert.sampler, cert.covering_radius, self.window)
        try:
            return anchor_stack(rots, *args, halo=self.interaction.reach)
        except CertificateError:
            chains = []
        for k, rot in enumerate(rots):
            try:
                chains.append(anchor_configuration(rot, *args))
            except CertificateError as exc:
                self._lost[k] = exc
                chains.append(homomorphism_configuration(rot, self.window))
        return stack_chains(chains)

    def _cases(self, cases) -> list:
        """The case ids cases in ascending order, by default every case
        with anchors."""
        if cases is None:
            return [c for c in range(len(self.cases)) if c not in self._lost]
        return sorted(cases)

    def _sel(self, cases):
        """The case-axis index of the case ids cases: a slice while they
        are every case, so that the kernels read views, not copies."""
        return slice(None) if len(cases) == len(self.cases) else cases

    def phi_step(self, u: Configuration, cases=None, derivatives=None):
        """One sweep of the tube map: u_i -> phi_{a_i}(-Delta(u)_i / lam)
        around the solver's anchors a, each local inverse started at u_i
        projected onto its anchor ball. u holds one chain per case,
        stacked; the chains of the case ids cases (by default every case
        with anchors) are stepped, every other chain is carried over.
        Returns (v, (grad, hess)): the whole-stack arrays grad (n, K, d)
        and hess (n, K, d, d) hold grad V and hess V at each chain of v
        that the step produced, as the local inverse last evaluated them or
        took them from derivatives, the same arrays at u, if given; at every
        other chain their values are unspecified. Without derivatives the
        local inverse evaluates V at u itself.

        A case whose target leaves the admissible ball fails with a
        DomainError naming the offending site; one whose output leaves the
        anchor ball (certificate violation) with a CertificateError; one
        whose local inverse fails on a row with that row's
        ConvergenceError. A failing case keeps its chain, and its error
        goes into self.failures.
        """
        cases = self._cases(cases)
        targets, ended = self._targets(u, cases)
        n, K, d = u.values.shape
        while True:
            going = [c for c in cases if c not in ended]
            sel = self._sel(going)
            tol = self.inner_tol[sel]
            try:
                new, grad, hess = local_inverse_batch(
                    self.potential, self._anchors[:, sel].reshape(-1, d),
                    targets[:, sel].reshape(-1, d), self.cert,
                    tol=tol[0] if len(set(tol)) == 1 else np.tile(tol, n),
                    start=u.values[:, sel].reshape(-1, d), derivatives=True,
                    at_start=derivatives and tuple(x[:, sel] for x in derivatives))
                break
            except ConvergenceError as exc:  # row = site * len(going) + j
                site, j = divmod(exc.row, len(going))
                ended[going[j]] = ConvergenceError(
                    str(exc).replace(f"row {exc.row}", f"row {site}", 1), row=site)
        new, grad, hess = (x.reshape((n, len(going)) + x.shape[1:])
                           for x in (new, grad, hess))
        drift = _sup(new - self._anchors[:, sel]).tolist()
        for c, dist in zip(going, drift):
            if dist > self._tube_radius:
                ended[c] = CertificateError(
                    f"tube map left the anchor ball: {dist:.6e} > r = "
                    f"{self.cert.ball_radius:.6e}")
        self.failures.update(ended)
        values = new
        if not isinstance(sel, slice):
            values = u.values.copy()
            values[:, going] = new
        if ended:
            back = list(ended)
            values[:, back] = u.values[:, back]
        return u.with_values(values), (_widen(grad, going, K), _widen(hess, going, K))

    def _targets(self, u: Configuration, cases) -> tuple:
        """-Delta(u) / lam over the stack u, and a DomainError naming the site
        of each of the case ids cases whose largest one exceeds r*m."""
        limit, half_width = self.cert.admissible_radius, u.window.half_width
        targets = -self.interaction.delta(u) / self.lam
        norms = _norms(targets)
        worst, ended = norms.max(axis=0), {}
        over = (worst > limit).tolist()
        for c in cases:
            if over[c]:
                site = int(norms[:, c].argmax()) - half_width
                ended[c] = DomainError(
                    f"|Delta(u)_i / lam| = {worst[c]:.6e} exceeds r*m = {limit:.6e} "
                    f"at site {site}; coupling too weak for this certificate",
                    site=site, norm=float(worst[c]), limit=limit,
                )
        return targets, ended

    def newton_polish(self, u: Configuration, cases=None, derivatives=None,
                      start=None):
        """Newton steps L delta = F(u) on each whole chain, L the
        block-tridiagonal Jacobian of F (blocks -B_i, A_i + B_i + C_i, -A_i
        of the tangent recursion), solved by cyclic reduction for all the
        chains still polishing at once.

        A chain stops once its residual is at most tol, which puts the
        closing tube-map step within the stopping rule when lam is above
        the threshold, or after NEWTON_STEPS steps. A step that leaves the
        tube |u - a| <= r, does not lower the residual or meets a singular
        block is discarded, and the chain's polish ends there. u and cases
        and derivatives are as for phi_step; V.derivatives is evaluated once
        per candidate chain. start, if given, is (F(u), (A, B, C)) over the
        whole stack, for the first step. Returns (u, per case the residual
        after each kept step, per case whether a step was discarded, (grad,
        hess) at u, where a chain kept from an earlier step keeps its values).
        """
        K, V = len(self.cases), self.potential
        going = self._cases(cases)
        grad, hess = derivatives or _at_cases(V, u.values, going)
        derivatives = None  # grad and hess are its last holders
        force, blocks = start or (_force(u, self.interaction, V, self.lam, grad), None)
        start = None
        res = _sup(force).tolist()
        history, fallback = [[] for _ in range(K)], [False] * K
        going = [c for c in going if res[c] > self.tol]
        for _ in range(NEWTON_STEPS):
            if not going:
                break
            sel = self._sel(going)
            A, B, C = (x[:, sel] for x in blocks or _coefficients(
                u, self.interaction, V, self.lam[:, None], hess)[1:])
            blocks = None
            step = _cyclic_reduction(-B, A + B + C, -A, force[:, sel])
            if isinstance(sel, slice):
                v = u.with_values(u.values - step)
            else:
                v = u.with_values(u.values.copy())
                v.values[:, going] -= step
            grad_v, hess_v = _at_cases(V, v.values, going, (grad, hess))
            force_v = _force(v, self.interaction, V, self.lam, grad_v)
            res_v = _sup(force_v).tolist()
            dist = _sup(v.values - self._anchors).tolist()
            # written so that a non-finite step fails both tests
            bad = [c for c in going
                   if not (dist[c] <= self._tube_radius and res_v[c] < res[c])]
            if bad:  # a discarded step leaves its chain as it was
                for new, old in ((v.values, u.values), (grad_v, grad), (hess_v, hess)):
                    new[:, bad] = old[:, bad]
                for c in bad:
                    fallback[c], res_v[c] = True, res[c]
            u, force, res, grad, hess = v, force_v, res_v, grad_v, hess_v
            going = [c for c in going if not fallback[c]]
            for c in going:
                history[c].append(res[c])
            going = [c for c in going if res[c] > self.tol]
        return u, history, fallback, (grad, hess)

    def solve(self, initial: Configuration | None = None):
        """Iterate phi_step from the anchors (or a caller-supplied start in
        the tube) until the a-posteriori bound and the residual check both
        pass, case by case: a case stops in place when it converges or
        fails (a start chain outside the domain at once). For a
        nearest-neighbour interaction newton_polish runs on every other
        case before the first step, so that the closing step makes the
        answer a tube-map image. Each step starts from the grad V and
        hess V that the one before it handed on (at the start, _start's),
        and V is never evaluated at the chain of a stopped case. Returns,
        per case, (configuration, report) or the case's error, which also
        stays in self.failures. The closing step's grad V and hess V at a
        converged case's chain stay in self.derivatives, (n, d) and (n, d,
        d) per case, for the hyperbolicity checks (check_stack)."""
        cert, K = self.cert, len(self.cases)
        q = cert.ball_radius / (cert.ball_radius + cert.covering_radius)
        step_threshold = self.tol * (1 - q) / q
        u = initial if initial is not None else self.anchors
        if not self._fits(u):
            raise ValueError("initial configuration window or case mismatch")
        self.failures, self.derivatives = dict(self._lost), {}
        if self.failures or u.halo is None or len(u.halo) != 2 * self.interaction.reach:
            u = Configuration(u.window, u.values, u.tail, self._halo(u))
        running = [c for c in range(K) if c not in self.failures]
        steps, newton = [[] for _ in range(K)], [[] for _ in range(K)]
        fallback, last_res, done = [False] * K, [np.inf] * K, {}
        derivatives, proofs = None, ([None] * K, [None] * K)
        self.failures.update(self._targets(u, running)[1])  # before any polish
        running = [c for c in running if c not in self.failures]
        if running:
            derivatives, start, proofs = self._start(u, running)
            if start is not None:
                # popped from a list into the call, so the polish holds the last references
                # to u and its derivatives and frees them early (BENCH_23.json: solve-1d RSS)
                handed = [u, derivatives, start]
                u, derivatives, start = None, None, None
                u, newton, fallback, derivatives = self.newton_polish(
                    handed.pop(0), running, handed.pop(0), handed.pop())
        for _ in range(self.max_iter):
            if not running:
                break
            u_next, derivatives = self.phi_step(u, running, derivatives)
            running = [c for c in running if c not in self.failures]
            delta = _sup(u_next.values - u.values).tolist()
            u = u_next
            for c in running:
                steps[c].append(delta[c])
            # below one float spacing of u a step cannot shrink further
            floors = np.spacing(np.abs(u.values).max(axis=(0, 2))).tolist()
            close = [c for c in running if delta[c] <= max(step_threshold, floors[c])]
            if not close:
                continue
            res = residual(u, self.interaction, self.potential, self.lam,
                           derivatives[0]).tolist()
            for c in close:
                if res[c] <= self.tol:
                    done[c] = (u.chain(c), res[c])
                    self.derivatives[c] = tuple(x[:, c] for x in derivatives)
                elif res[c] >= last_res[c]:
                    self.failures[c] = self._stalled(
                        u.values[:, c], derivatives[1][:, c], c, res[c], steps[c])
                last_res[c] = res[c]
            running = [c for c in running if c not in done and c not in self.failures]
        if running:  # each running chain came from the last step
            res = residual(u, self.interaction, self.potential, self.lam,
                           derivatives[0]).tolist()
            for c in running:
                r = last_res[c] if np.isfinite(last_res[c]) else res[c]
                self.failures[c] = ConvergenceError(
                    f"no convergence in {self.max_iter} iterations "
                    f"(last step {steps[c][-1]:.3e}, residual {r:.3e})",
                    trace=steps[c])
        reports = self._reports({c: (*done[c], steps[c], newton[c], fallback[c],
                                     proofs[0][c], proofs[1][c]) for c in done})
        return [self.failures[c] if c in self.failures else (done[c][0], reports[c])
                for c in range(K)]

    def _start(self, u: Configuration, cases) -> tuple:
        """(grad V, hess V) at u's chains of cases, V once per run of
        bit-equal sites along a chain; for nearest neighbours the first
        Newton step's (F(u), (A, B, C)), else None; and per case
        _kantorovich's (h, least lam) where a bound exists (d = 1, V and
        the coupling with hessian Lipschitz constants), else None."""
        V, K, nn = self.potential, len(self.cases), self.interaction
        grad, hess = _at_cases(V, u.values, cases, runs=True)
        proofs = ([None] * K, [None] * K)
        if not isinstance(nn, NearestNeighborInteraction):
            return (grad, hess), None, proofs
        force = _force(u, nn, V, self.lam, grad)
        blocks = _coefficients(u, nn, V, self.lam[:, None], hess)[1:]
        if (u.values.shape[-1] == 1 and hasattr(V, "hessian_lipschitz_bound")
                and hasattr(nn.coupling, "hessian_lipschitz")):
            proofs = _kantorovich(u, nn, V, self.lam, grad, hess, force, blocks)
        return (grad, hess), (force, blocks), proofs

    def _halo(self, u: Configuration) -> np.ndarray:
        """The halo of the stack u, (2 reach, K, d), each case's looked up
        once from its own tail. A case whose tail raises fails, and its
        rotation supplies its halo, so that every step can evaluate the
        whole stack; so does a case that has failed already."""
        sites = self.window.halo_sites(self.interaction.reach)
        halo = np.empty((len(sites),) + u.values.shape[1:])
        for c, (p, tail) in enumerate(zip(self.cases, u.tail.tails)):
            if c not in self.failures:
                try:
                    halo[:, c] = tail.values(sites)
                    continue
                except CertificateError as exc:
                    self.failures[c] = exc
            halo[:, c] = p.rho(sites)
        return halo

    def _stalled(self, values, H, c, res, steps) -> ConvergenceError:
        H = H.reshape(len(values), -1)
        floor = self.cases[c].lam * _norms(H).max() * 0.5 * (
            np.spacing(np.abs(values).max()))
        return ConvergenceError(
            f"residual stalled at {res:.3e} above tol {self.tol:.1e}; the "
            f"float floor of this chain, lam * max|H| * spacing(max|u|) / 2, "
            f"is {floor:.3e}", trace=steps)

    def _reports(self, done) -> dict:
        """The SolveReport of each converged case c, done[c] = (u,
        final_residual, steps, newton_steps, newton_fallback,
        kantorovich_h, kantorovich_lam). One probe of the stacked chains
        gives every distance to the rotation."""
        if not done:
            return {}
        cases = list(done)
        d_rho = ext_distances(
            stack_chains([done[c][0] for c in cases]),
            stack_chains([homomorphism_configuration(self.cases[c].rho, self.window)
                          for c in cases]))
        return {c: self._report(c, *done[c], d) for c, d in zip(cases, d_rho)}

    def _report(self, c, u, final_res, steps, newton_steps, newton_fallback,
                kantorovich_h, kantorovich_lam, d_rho) -> SolveReport:
        """Case c's report. Its contraction factor also takes, for nearest
        neighbours, K / (lam min_i sigma_min(hess V(u_i))) >= max_i
        |C_i^{-1}| (|B_i| + |A_i + B_i| + |A_i|), the tube map's derivative
        at u (K = lipschitz_bound; equal for a quadratic coupling)."""
        p, threshold = self.cases[c], self.thresholds[c]
        noise_floor = 100 * np.finfo(float).eps * (
            1.0 + float(np.abs(u.values).max())
        )
        ratios = [
            steps[k + 1] / steps[k]
            for k in range(len(steps) - 1)
            if steps[k] > noise_floor
        ]
        if isinstance(self.interaction, NearestNeighborInteraction):
            sigma = float(_sv(self.derivatives[c][1])[..., -1].min())
            ratios.append(self.interaction.lipschitz_bound(p.rho, 0.0) / (p.lam * sigma))
        warnings = []
        at_least = p.lam >= threshold
        if not at_least:
            warnings.append(
                "coupling below the contraction threshold: no convergence "
                "guarantee"
            )
        return SolveReport(
            iterations=len(steps),
            converged=True,
            final_residual=final_res,
            step_distances=steps,
            contraction_factor=max(ratios) if ratios else 0.0,
            distance_to_anchor=_sup(u.values - self._anchors[:, c]),
            distance_to_rotation=d_rho,
            rotation_estimate=rotation_vector_estimate(u).tolist(),
            lambda_threshold=threshold,
            lambda_at_least_threshold=bool(at_least),
            inner_tol=p.inner_tol,
            truncation_error=self.interaction.truncation_error(
                p.rho,
                self.cert.ball_radius + self.cert.covering_radius,
            ),
            warnings=warnings,
            newton_steps=newton_steps,
            newton_fallback=newton_fallback,
            kantorovich_h=kantorovich_h,
            kantorovich_lam=kantorovich_lam,
        )


def solve_equilibrium(params: SolveParams, interaction, potential,
                      cert: AubryCertificate,
                      initial: Configuration | None = None,
                      anchors: Configuration | None = None):
    """One-call interface: solve the one-case batch of params, with
    anchors and initial one chain each if given. Returns (configuration,
    report) or raises the case's error."""
    def stack(u):
        return None if u is None else stack_chains([u])

    [out] = ContractionSolver(interaction, potential, cert, [params],
                              stack(anchors)).solve(stack(initial))
    if isinstance(out, Exception):
        raise out
    return out


@dataclass
class UniquenessVerdict:
    same_ball: bool
    distance: float
    tol: float
    within_tolerance: bool | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def uniqueness_check(u: Configuration, u2: Configuration,
                     cert: AubryCertificate, tol: float = 1e-10) -> UniquenessVerdict:
    """Decide whether two configurations share an anchor ball at every
    site; if they do, they must coincide (checked against 10 * tol).

    The anchor balls are disjoint, so a ball holding both values of a site
    is the one around the zero nearest their midpoint, which one nearest
    lookup of all midpoints at the covering radius finds. A midpoint it
    cannot answer (outside a finite zero set's box, or with no zero within
    the covering radius) raises CertificateError, even when another site
    already tells the balls apart.
    """
    if u.window != u2.window:
        raise ValueError("configurations lie on different windows")
    slack = _tube_radius(cert)
    zeros = _nearest_anchors(0.5 * (u.values + u2.values), cert.sampler,
                             cert.covering_radius)
    same = bool((_norms(zeros - np.stack([u.values, u2.values])) <= slack).all())
    dist = ext_distance(u, u2)
    return UniquenessVerdict(
        same_ball=same,
        distance=dist,
        tol=tol,
        within_tolerance=(dist <= 10 * tol) if same else None,
    )
