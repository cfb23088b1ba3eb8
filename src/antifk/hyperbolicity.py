"""Linear stability of computed equilibria and the induced twist dynamics.

The second variation of the action along a configuration gives a
three-term recursion for tangent vectors,

    A_i (xi_i - xi_{i+1}) - B_i (xi_{i-1} - xi_i) + C_i xi_i = 0,

with A_i = hess I(u_i - u_{i+1}), B_i = hess I(u_{i-1} - u_i) and
C_i = lam * hess V(u_i). At strong coupling this recursion admits a pair
of invariant cone fields with uniform expansion of pair norms; the cone
conditions are checked exactly in one dimension and by norm bounds
otherwise. The same data feeds the symplectic side: conjugate momenta
and the twist map they generate.

check_stack is the one hyperbolicity pipeline: on K chains stacked as
(n, K, d), each at its own coupling, it gives every chain's finished
HyperbolicityCertificate (cone verdict, splitting, orbit deviation and
tolerance, and with them the pass rule) and momenta in one pass; the
kernels work row by row, so each chain gets the floats it gets alone.
verify_cone_conditions, cone_splitting, momentum and verify_orbit are the
one-chain views.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CertificateError, ConvexityError
from .interactions import NearestNeighborInteraction, QuadraticCoupling
from .lattice import Configuration, _norms, _write_columns, stack_chains

__all__ = [
    "LinearizationSite",
    "linearize",
    "transfer_matrix",
    "ConeParameters",
    "cone_parameters",
    "ConeVerdict",
    "verify_cone_conditions",
    "SplittingReport",
    "cone_splitting",
    "momentum",
    "twist_map_step",
    "legendre_bounds",
    "verify_orbit",
    "check_stack",
    "HyperbolicityCertificate",
    "orbit_to_csv",
]


@dataclass(frozen=True)
class LinearizationSite:
    """Coefficient matrices of the tangent recursion at one site."""

    site: int
    A: np.ndarray      # (d, d) hess I(u_i - u_{i+1})
    B: np.ndarray      # (d, d) hess I(u_{i-1} - u_i)
    C: np.ndarray      # (d, d) lam * hess V(u_i)


def _require_nn(interaction):
    if not isinstance(interaction, NearestNeighborInteraction):
        raise ValueError(
            "transfer-matrix analysis requires a nearest-neighbor interaction"
        )


def _json_fields(pairs) -> dict:
    """dict_factory for dataclasses.asdict: array fields become lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in pairs}


# Closed forms for the (..., d, d) blocks of d <= 2 (Golub & Van Loan), LAPACK
# for d >= 3; a singular block gives non-finite values, never an exception.


def _sv(X) -> np.ndarray:
    """Singular values per block, largest first: |x| for 1 x 1, for 2 x 2
    (q +- r) / 2 with q = hypot(a + e, c - b), r = hypot(a - e, c + b).
    Each 2 x 2 value is within 2 eps sigma_max of the exact one: q and r
    carry at most 3 u (the sum and hypot's ulp), the final sum or
    difference u more, u = eps / 2."""
    d = X.shape[-1]
    if d == 1:
        return np.abs(X[..., 0])
    if d > 2:
        return np.linalg.svd(X, compute_uv=False)
    a, b, c, e = X[..., 0, 0], X[..., 0, 1], X[..., 1, 0], X[..., 1, 1]
    q, r = np.hypot(a + e, c - b), np.hypot(a - e, c + b)
    return 0.5 * np.stack([q + r, np.abs(q - r)], axis=-1)


def _scaled(X):
    """Entries a, b, c, e of 2 x 2 blocks [[a, b], [c, e]] over each
    block's largest |entry| s, and s: products of the scaled entries
    neither overflow nor underflow, whatever the block's scale."""
    a, b, c, e = X[..., 0, 0], X[..., 0, 1], X[..., 1, 0], X[..., 1, 1]
    s = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(e)))
    return a / s, b / s, c / s, e / s, s


def _inv(X) -> np.ndarray:
    """Inverse per block: 1 / x for 1 x 1, the adjugate over the
    determinant for 2 x 2."""
    d = X.shape[-1]
    if d == 1:
        return 1.0 / X
    if d > 2:
        try:
            return np.linalg.inv(X)
        except np.linalg.LinAlgError:  # NaN at the singular blocks only
            ok, out = np.linalg.det(X) != 0, np.full_like(X, np.nan)
            out[ok] = np.linalg.inv(X[ok])
            return out
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b, c, e, s = _scaled(X)
        out = np.empty_like(X)
        out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = e, -b, -c, a
        out /= ((a * e - b * c) * s)[..., None, None]
        return out


def _solve(X, f) -> np.ndarray:
    """x with X x = f per block, X (..., d, d) and f (..., d): f / x for
    1 x 1, Cramer's rule for 2 x 2."""
    d = X.shape[-1]
    if d == 1:
        return f / X[..., 0]
    if d > 2:
        try:
            return np.linalg.solve(X, f[..., None])[..., 0]
        except np.linalg.LinAlgError:
            return (_inv(X) @ f[..., None])[..., 0]
    f0, f1 = f[..., 0], f[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b, c, e, s = _scaled(X)
        return np.stack([e * f0 - b * f1, a * f1 - c * f0], axis=-1) / (
            (a * e - b * c) * s)[..., None]


def _basis(V) -> np.ndarray:
    """Orthonormal columns spanning the columns of each (..., m, d) block:
    the Q of its QR factorisation, for d <= 2 by Gram-Schmidt with the
    signs LAPACK's Householder QR gives them. Column j is y_j / beta_j, y_j
    column j less its projection on the columns before, and beta_j =
    -sign(alpha_j) |y_j|, alpha_j the pivot entry of the reflected y_j;
    beta_j = alpha_j where the entries below the pivot are zero, as LAPACK
    then does not reflect."""
    d = V.shape[-1]
    if d > 2:
        return np.linalg.qr(V).Q

    def column(y, alpha, plain):
        sign = np.where(np.signbit(alpha) == plain, -1.0, 1.0)
        return y * (sign / np.sqrt(np.vecdot(y, y)))[..., None]

    v = V[..., 0]
    plain = (v[..., 1:] == 0).all(axis=-1)
    q = column(v, v[..., 0], plain)
    if d == 1:
        return q[..., None]
    w = V[..., 1]
    y = w - np.vecdot(q, w)[..., None] * q
    y -= np.vecdot(q, y)[..., None] * q  # twice is enough for orthogonality
    # the first reflection maps q to e_0; alpha is entry 1 of its image of y
    scale = np.sqrt(np.vecdot(v, v)) + np.abs(v[..., 0])
    alpha = y[..., 1] - np.copysign(1.0, v[..., 0]) * v[..., 1] * y[..., 0] / scale
    return np.stack([q, column(y, alpha, plain & (y[..., 2:] == 0).all(axis=-1))],
                    axis=-1)


def _coefficients(u: Configuration, interaction, potential, lam, hessian=None):
    """(sites, A, B, C) along the window, the matrices as (n, d, d) arrays,
    or (n, K, d, d) for K stacked chains, with lam one coupling or one per
    chain as a (K, 1, 1) array. The potential sees the sites as (rows, d),
    as a single chain does; hessian, if given, is its hessian at u's
    sites. A_i and B_{i+1} are one bond's: the coupling's hessian H is
    taken once at each of the n + 1 bonds u_{i-1} - u_i, and A = H[1:] and
    B = H[:-1] are views of one array."""
    _require_nn(interaction)
    ext = u.extended(1)
    H = interaction.coupling.hessian(ext[:-1] - ext[1:])
    A, B = H[1:], H[:-1]
    if hessian is None:
        hessian = potential.hessian(u.values.reshape(-1, u.window.dimension))
    return u.window.sites(), A, B, lam * hessian.reshape(A.shape)


# relative slack of the coefficient checks against the certificate's bounds
_SLACK = 1e-9


def _check_coefficients(sites, A, B, C, coupling, lams, cert):
    """Per chain of stacked coefficients (n, K, d, d) at couplings lams: the
    CertificateError of a chain whose coupling hessians exceed the
    convexity ceiling or whose sigma_min(C_i) falls below lam * m (both
    up to _SLACK), else None. Also returns the singular values of A and B
    (largest first), which the cone verdict bounds with."""
    upper = coupling.convexity_bounds[1]
    sva, svb = _sv(A), _sv(B)
    top = np.maximum(sva.max(axis=(0, 2)), svb.max(axis=(0, 2))).tolist()
    sc = _sv(C).min(axis=-1)
    low, at = sc.min(axis=0).tolist(), sites[sc.argmin(axis=0)].tolist()
    errors = []
    for k, lam in enumerate(lams):
        floor = lam * cert.expansion
        if top[k] > upper * (1 + _SLACK):
            errors.append(CertificateError(
                f"coupling hessian norm {top[k]:.6e} exceeds the "
                f"convexity ceiling {upper:.6e}"))
        elif low[k] < floor * (1 - _SLACK):
            errors.append(CertificateError(
                f"|C| = {low[k]:.6e} below lam * m = {floor:.6e} at site "
                f"{at[k]}; configuration left the certified tube"))
        else:
            errors.append(None)
    return sva, svb, errors


def linearize(u: Configuration, interaction, potential, lam: float,
              cert=None) -> list:
    """Assemble the per-site (A, B, C) along the window.

    Only nearest-neighbor interactions produce a three-term recursion.
    When a certificate is supplied, the coefficients are checked against
    its bounds: coupling hessians below the convexity ceiling and
    sigma_min(C_i) >= lam * m.
    """
    sites, A, B, C = _coefficients(u, interaction, potential, lam)
    if cert is not None:
        [error] = _check_coefficients(sites, A[:, None], B[:, None], C[:, None],
                                      interaction.coupling, [lam], cert)[2]
        if error is not None:
            raise error
    return [
        LinearizationSite(site=int(s), A=A[k], B=B[k], C=C[k])
        for k, s in enumerate(sites)
    ]


def _transfer_matrices(A, B, C) -> np.ndarray:
    """(n, 2d, 2d) one-step matrices on pairs (xi_{i-1}, xi_i), per site."""
    n, d = A.shape[0], A.shape[-1]
    Ainv = _inv(A)
    M = np.zeros((n, 2 * d, 2 * d))
    M[:, :d, d:] = np.eye(d)
    M[:, d:, :d] = -Ainv @ B
    M[:, d:, d:] = Ainv @ (A + B + C)
    return M


def transfer_matrix(site: LinearizationSite) -> np.ndarray:
    """2d x 2d one-step matrix acting on stacked pairs (xi_{i-1}, xi_i)."""
    return _transfer_matrices(site.A[None], site.B[None], site.C[None])[0]


@dataclass(frozen=True)
class ConeParameters:
    """Apertures and expansion rate for the invariant cone pair.

    mu and alpha are the larger/smaller roots of
    x^2 - (2 + 4 R / r) x + 1 = 0, so mu * alpha = 1 and
    mu + alpha = 2 + 4 R / r; the backward aperture beta equals alpha.
    """

    mu: float
    alpha: float
    beta: float

    def to_json_dict(self) -> dict:
        return asdict(self, dict_factory=_json_fields)


def cone_parameters(cert) -> ConeParameters:
    s = 2.0 + 4.0 * cert.covering_radius / cert.ball_radius
    root = np.sqrt(s * s - 4.0)
    mu = 0.5 * (s + root)
    alpha = 2.0 / (s + root)  # = smaller root, in a cancellation-free form
    return ConeParameters(mu=mu, alpha=alpha, beta=alpha)


@dataclass
class ConeVerdict:
    """Per-site outcome of the two cone conditions.

    Condition (i): whenever |xi_{i-1}| <= alpha |xi_i|, the image must
    satisfy |xi_i| <= alpha |xi_{i+1}| and the pair norm must grow by mu.
    Condition (ii) is the mirror statement for the backward transfer with
    aperture beta. Growth columns record the worst |xi_next| / |xi_cur|
    over the cone; pair margins record the worst value of
    |pair_out|^2 - mu^2 |pair_in|^2 (nonnegative means pass). phonon_gap
    is min sigma_min(S_i) - |A_i| - |B_i|, rounded down; worst_sites names
    its site and each condition's least min(growth * aperture - 1,
    pair margin / (1 + mu^2)); values within 1e-12 (relative) of a least
    one tie, and the tie goes to the least |site|, then the lower site.
    The per-site fields are arrays, which to_json_dict turns into lists.
    """

    sites: np.ndarray
    cone: ConeParameters
    forward_growth: np.ndarray
    forward_pair_margin: np.ndarray
    backward_growth: np.ndarray
    backward_pair_margin: np.ndarray
    forward_pass: np.ndarray
    backward_pass: np.ndarray
    all_pass: bool
    phonon_gap: float
    worst_sites: dict

    def to_json_dict(self) -> dict:
        return asdict(self, dict_factory=_json_fields)

    @property
    def margin(self) -> float:
        """Worst aperture-growth slack over both cones (growth - 1/aperture)."""
        return float(min(self.forward_growth.min() - 1.0 / self.cone.alpha,
                         self.backward_growth.min() - 1.0 / self.cone.beta))


def _cone_1d(c0, c1, aperture: float, mu: float):
    # per site, over |t| <= aperture: min |c0 - c1 t| (zero when the image
    # can vanish) and min of the quadratic 1 + (c0 - c1 t)^2 - mu^2 (1 + t^2)
    # = q2 t^2 - 2 c0 c1 t + (1 + c0^2 - mu^2)
    def margin(t):
        f = c0 - c1 * t
        return 1.0 + f * f - mu * mu * (1.0 + t * t)

    ends = np.minimum(np.abs(c0 - c1 * aperture), np.abs(c0 + c1 * aperture))
    best = np.minimum(margin(-aperture), margin(aperture))
    q2 = c1 * c1 - mu * mu
    with np.errstate(all="ignore"):
        ends[(c1 != 0.0) & (np.abs(c0 / c1) <= aperture)] = 0.0  # the image can vanish
        t_star = c0 * c1
        interior = (q2 > 0.0) & (np.abs(np.divide(t_star, q2, out=t_star)) <= aperture)
        return ends, np.minimum(best, margin(t_star), out=best, where=interior)


# covers the errors of sigma(S), |P| and |Q|, 2 eps sigma_max each in closed
# form (_sv; LAPACK's for d >= 3 are of the same order), and the roundings of
# the bounds
_ROUND = 8 * np.finfo(float).eps


def _cone_bounds(p, q, ss, aperture: float, mu: float):
    """Lower bounds of the worst growth and pair margin of P^{-1} (S xi - Q o),
    |o| <= aperture |xi|, from |P|, |Q| and sigma(S); g < 0 is not squared."""
    g = (ss[..., -1] - aperture * q - _ROUND * (ss[..., 0] + aperture * q)) / p
    gain, loss = 1.0 + np.maximum(g, 0.0) ** 2, mu**2 * (1.0 + aperture**2)
    return g, gain - loss - _ROUND * (gain + loss)


def _worst_sites(sites, values) -> list:
    """Per chain (column of values (n, K)), the site of the least value:
    of the values within 1e-12 (relative) of it, the one at the least
    |site|, then the lower site, so near ties do not flip with rounding."""
    by_reach = np.lexsort((sites, np.abs(sites)))
    low = values.min(axis=0)
    near = values[by_reach] <= low + 1e-12 * np.abs(low)
    return sites[by_reach[np.argmax(near, axis=0)]].tolist()


def _cone_verdicts(sites, A, B, C, sva, svb, cone: ConeParameters) -> list:
    """The ConeVerdict of each chain of stacked coefficients (n, K, d, d),
    whose A and B have the singular values sva and svb; every site and
    chain at once."""
    sa, sb, ss = sva[..., 0], svb[..., 0], _sv(A + B + C)
    if A.shape[-1] == 1:
        a, b, c = A[..., 0, 0], B[..., 0, 0], C[..., 0, 0]
        s = a + b + c
        fwd_growth, fwd_pair = _cone_1d(s / a, b / a, cone.alpha, cone.mu)
        bwd_growth, bwd_pair = _cone_1d(s / b, a / b, cone.beta, cone.mu)
    else:
        fwd_growth, fwd_pair = _cone_bounds(sa, sb, ss, cone.alpha, cone.mu)
        bwd_growth, bwd_pair = _cone_bounds(sb, sa, ss, cone.beta, cone.mu)
    gap = ss[..., -1] - sa - sb - _ROUND * (ss[..., 0] + sa + sb)
    tol, mu2 = 1e-12, 1.0 + cone.mu**2

    def check(growth, pair, aperture):  # (pass per site, worst site per chain)
        slack = np.minimum(growth * aperture - 1.0, pair / mu2)
        ok = (growth >= (1.0 / aperture) * (1 - tol)) & (pair >= -tol * mu2)
        return ok, _worst_sites(sites, slack)

    (fpass, fworst), (bpass, bworst) = (check(fwd_growth, fwd_pair, cone.alpha),
                                        check(bwd_growth, bwd_pair, cone.beta))
    all_pass = (fpass.all(axis=0) & bpass.all(axis=0)).tolist()
    gaps, gap_sites = gap.min(axis=0).tolist(), _worst_sites(sites, gap)
    return [ConeVerdict(
        sites=sites,
        cone=cone,
        forward_growth=fwd_growth[:, k],
        forward_pair_margin=fwd_pair[:, k],
        backward_growth=bwd_growth[:, k],
        backward_pair_margin=bwd_pair[:, k],
        forward_pass=fpass[:, k],
        backward_pass=bpass[:, k],
        all_pass=all_pass[k],
        phonon_gap=gaps[k],
        worst_sites={"phonon_gap": gap_sites[k], "forward": fworst[k],
                     "backward": bworst[k]},
    ) for k in range(len(all_pass))]


def verify_cone_conditions(u: Configuration, interaction, potential,
                           lam: float, cert) -> ConeVerdict:
    """Check both cone conditions at every window site of u.

    d = 1 is exact (growth and pair margin are explicit in the cone
    coordinate). d > 1 is a proof from norm bounds rounded down: growth
    g >= (sigma_min(S_i) - alpha |B_i|) / |A_i| and pair margin >= 1 +
    max(g, 0)^2 - mu^2 (1 + alpha^2), and the mirror with A and B swapped
    and beta for condition (ii). When phonon_gap > 0, the linearised
    operator obeys |L^{-1}| <= 1 / phonon_gap. Failures are verdicts; a
    coefficient outside the certificate's bounds raises CertificateError.
    """
    sites, A, B, C = _coefficients(stack_chains([u]), interaction, potential, lam)
    sva, svb, [error] = _check_coefficients(sites, A, B, C, interaction.coupling,
                                            [lam], cert)
    if error is not None:
        raise error
    return _cone_verdicts(sites, A, B, C, sva, svb, cone_parameters(cert))[0]


@dataclass
class SplittingReport:
    """The bundles at each reported site, held as arrays, which
    to_json_dict turns into lists."""

    sites: np.ndarray
    unstable_basis: np.ndarray        # (m, 2d, d): orthonormal columns per site
    stable_basis: np.ndarray
    unstable_multipliers: np.ndarray  # one-step pair-norm growth along each bundle
    stable_multipliers: np.ndarray
    angles: np.ndarray                # principal angle between the bundles (rad)
    min_angle: float
    horizon: int

    def to_json_dict(self) -> dict:
        return asdict(self, dict_factory=_json_fields)


def _riccati(M, horizon: int, sites, bundle: str) -> np.ndarray:
    """(n + 1, d, d) inverse slopes X (pairs (X xi, xi)) of the transfer
    matrices M after ``horizon`` Jacobi sweeps of X_{j+1} = (M22_j + M21_j
    X_j)^{-1}, X_0 = 0: entry j + 1 of sweep s is the seed pushed min(s,
    j + 1) steps. A sweep that changes no bit ends the loop, as every later
    one would repeat it; a singular slope raises CertificateError."""
    d = M.shape[-1] // 2
    X = np.zeros((M.shape[0] + 1, d, d))
    for _ in range(horizon):
        with np.errstate(divide="ignore", invalid="ignore"):
            Y = _inv(M[:, d:, d:] + M[:, d:, :d] @ X[:-1])
        finite = np.isfinite(Y).all(axis=(1, 2))
        if not finite.all():
            bad = int(sites[np.argmin(finite)])
            raise CertificateError(f"singular {bundle} slope at site {bad}")
        if np.array_equal(Y, X[1:]):
            break
        X[1:] = Y
    return X


def cone_splitting(u: Configuration, interaction, potential, lam: float,
                   horizon: int = 20, coefficients=None) -> SplittingReport:
    """Approximate the stable/unstable bundles by finite-horizon cone
    iteration.

    The unstable space at site i is the vertical seed pushed forward
    ``horizon`` steps from i - horizon by the slope recursion of _riccati;
    the stable space pulls the horizontal seed back from i + horizon, the
    same recursion on the mirrored chain (A and B swapped, sites reversed).
    Convergence is geometric, so moderate horizons give near-exact
    bundles. Only sites with a full horizon on both sides are reported.
    coefficients, if given, are u's (sites, A, B, C), as _coefficients
    assembles them.
    """
    sites, A, B, C = coefficients or _coefficients(u, interaction, potential, lam)
    n, d = A.shape[0], A.shape[-1]
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    m = n - 2 * horizon
    if m < 1:
        raise ValueError(
            f"horizon {horizon} too large for a window of {n} sites"
        )
    M, keep = _transfer_matrices(A, B, C), slice(horizon, horizon + m)
    P = _riccati(M, horizon, sites, "unstable")[keep]
    R = _riccati(_transfer_matrices(B, A, C)[::-1], horizon, sites[::-1],
                 "stable")[::-1][keep]
    eye = np.broadcast_to(np.eye(d), P.shape)
    U = _basis(np.concatenate([P, eye], axis=1))  # pairs (P xi, xi)
    S = _basis(np.concatenate([eye, R], axis=1))  # pairs (xi, R xi)
    sig = _sv(np.swapaxes(U, -1, -2) @ S)
    angles = np.arccos(np.clip(sig.max(axis=-1), -1.0, 1.0))
    # one-step growth along each bundle: the Frobenius norm of the image of
    # its orthonormal basis over sqrt(d), the multiplier on eigendirections
    gu, gs = np.linalg.norm(M[keep] @ np.stack([U, S]), axis=(2, 3)) / np.sqrt(d)
    return SplittingReport(
        sites=sites[keep],
        unstable_basis=U,
        stable_basis=S,
        unstable_multipliers=gu,
        stable_multipliers=gs,
        angles=angles,
        min_angle=float(angles.min()),
        horizon=horizon,
    )


def momentum(u: Configuration, interaction, potential, lam: float) -> np.ndarray:
    """Conjugate momenta p_i = -grad I(u_i - u_{i+1}) - lam * grad V(u_i).

    At an equilibrium this equals grad I applied to the backward
    difference, so for the quadratic coupling p_i = u_i - u_{i-1}.
    """
    return _momentum(u, interaction, potential, lam)[0]


def _momentum(u: Configuration, interaction, potential, lam, gv=None):
    """(momentum, grad V at the window sites) of one chain (n, d), or of a
    stack (n, K, d) with lam one per chain as a (K, 1) array; gv, if
    given, is grad V at u's sites."""
    _require_nn(interaction)
    ext = u.extended(1)
    fwd = ext[1:-1] - ext[2:]
    x = u.values
    if gv is None:
        gv = potential.gradient(x.reshape(-1, x.shape[-1])).reshape(x.shape)
    return -interaction.coupling.gradient(fwd) - lam * gv, gv


# Newton tolerance (relative to 1 + |target|) and step cap of the gradient
# inversion
_INVERT_TOL, _INVERT_MAX_ITER = 1e-13, 80


def _invert_coupling_gradient(coupling, target):
    """Solve grad I(w) = target for w (vectorized rows); Newton on the
    strictly monotone gradient, closed form for the quadratic."""
    if isinstance(coupling, QuadraticCoupling):
        return target / coupling.scale
    t = np.atleast_2d(np.asarray(target, dtype=float))
    w = t / max(coupling.convexity_bounds[0], 1e-12)
    for _ in range(_INVERT_MAX_ITER):
        f = coupling.gradient(w) - t
        if (_norms(f) <= _INVERT_TOL * (1.0 + _norms(t))).all():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            w = w - _solve(coupling.hessian(w), f)
        if not np.isfinite(w).all():
            raise ConvexityError(
                "coupling gradient inversion diverged; the coupling hessian is "
                "singular or the target is outside the gradient's range"
            )
    else:
        raise ConvexityError(
            "coupling gradient inversion did not converge; convexity bounds "
            "may be violated"
        )
    return w.reshape(np.asarray(target, dtype=float).shape)


def twist_map_step(x, p, interaction, potential, lam: float):
    """One step (x_i, p_i) -> (x_{i+1}, p_{i+1}) of the generated twist map.

    x_{i+1} solves grad I(x_i - x_{i+1}) = -p_i - lam * grad V(x_i); the
    momentum updates by the local force, p_{i+1} = p_i + lam * grad V(x_i).
    Accepts single sites (d,) or batches (n, d).
    """
    _require_nn(interaction)
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    gv = potential.gradient(x).reshape(x.shape)
    return _twist(x, p, gv, interaction.coupling, lam)


def _twist(x, p, gv, coupling, lam):
    """twist_map_step given gv = grad V(x), also for K chains stacked as
    (n, K, d) with lam a (K, 1) array. The gradient inversion's Newton loop
    stops on all its rows at once, so a stack inverts chain by chain
    unless the coupling is quadratic (closed form)."""
    target = -p - lam * gv
    if x.ndim < 3 or isinstance(coupling, QuadraticCoupling):
        w = _invert_coupling_gradient(coupling, target)
    else:
        w = np.stack([_invert_coupling_gradient(coupling, target[:, k])
                      for k in range(x.shape[1])], axis=1)
    return x - w, p + lam * gv


def legendre_bounds(coupling):
    """Singular-value bounds of the discrete Legendre transform, the pair
    map (x, y) -> (y, -grad I(x - y)): with convexity bounds (eps, E), its
    differential satisfies sigma_max <= sqrt(1 + 4 E^2) and that of the
    inverse transform sigma_max <= sqrt(1 + 4 / eps^2)."""
    eps, big = coupling.convexity_bounds
    return float(np.sqrt(1.0 + 4.0 * big**2)), float(np.sqrt(1.0 + 4.0 / eps**2))


def verify_orbit(u: Configuration, p: np.ndarray, interaction, potential,
                 lam: float) -> float:
    """Largest deviation between the twist-map image of (u_i, p_i) and
    (u_{i+1}, p_{i+1}) over interior window sites."""
    _require_nn(interaction)
    x = u.values[:-1]
    gv = potential.gradient(x).reshape(x.shape)
    return float(_orbit_deviation(u.values, np.asarray(p, dtype=float), gv,
                                  interaction.coupling, lam))


def _orbit_deviation(values, p, gv, coupling, lam):
    """verify_orbit of one chain (n, d), or one per chain of a stack
    (n, K, d) with lam a (K, 1) array, given gv = grad V at the sites but
    the last."""
    y, pn = _twist(values[:-1], p[:-1], gv, coupling, lam)
    return np.maximum(_norms(y - values[1:]).max(axis=0), _norms(pn - p[1:]).max(axis=0))


def check_stack(u: Configuration, interaction, potential, lams, cert, tol,
                derivatives=None, horizon=None, orbit_tol=None):
    """The hyperbolicity checks of every chain of the stack u (n, K, d),
    chain k at coupling lams[k], in one pass. Returns, per chain, its
    (HyperbolicityCertificate, momenta), or the CertificateError of a chain
    whose coefficients fail the certificate's bounds, which stops the
    checks of that chain only.

    Given a horizon, each certificate holds the chain's cone_splitting,
    taken from the stack's own coefficients. orbit_tol, which must be
    positive (ValueError), defaults to 10 tol (1 + lam sup|hess V|), tol
    the solve's residual tolerance.
    derivatives, if given, are (grad V, hess V) at u's sites, (n, K, d)
    and (n, K, d, d), as the solve ended on them (ContractionSolver.
    derivatives); V is then not evaluated, and as V computes each row on
    its own, every result is bit for bit the one without them."""
    if orbit_tol is not None and not orbit_tol > 0:
        raise ValueError(f"orbit_tol must be positive, got {orbit_tol}")
    grad, hess = derivatives or (None, None)
    lam = np.array(lams, dtype=float)
    sites, A, B, C = _coefficients(u, interaction, potential, lam[:, None, None], hess)
    sva, svb, out = _check_coefficients(sites, A, B, C, interaction.coupling, lams, cert)
    keep = [k for k, error in enumerate(out) if error is None]
    if not keep:
        return out
    if len(keep) < len(out):
        A, B, C, sva, svb = (x[:, keep] for x in (A, B, C, sva, svb))
        lam, u = lam[keep], stack_chains([u.chain(k) for k in keep])
        grad = None if grad is None else grad[:, keep]
    verdicts = _cone_verdicts(sites, A, B, C, sva, svb, cone_parameters(cert))
    p, gv = _momentum(u, interaction, potential, lam[:, None], grad)
    deviation = _orbit_deviation(u.values, p, gv[:-1], interaction.coupling,
                                 lam[:, None]).tolist()
    sup, bounds = potential.hessian_sup_bound(), legendre_bounds(interaction.coupling)
    for j, k in enumerate(keep):
        split = None if horizon is None else cone_splitting(
            u.chain(j), interaction, potential, lams[k], horizon=horizon,
            coefficients=(sites, A[:, j], B[:, j], C[:, j]))
        out[k] = (HyperbolicityCertificate(
            lam=lams[k], cone=verdicts[j].cone, verdict=verdicts[j], splitting=split,
            legendre_sigma_bounds=bounds, orbit_deviation=deviation[j],
            orbit_tol=float(10.0 * tol * (1.0 + lams[k] * sup)
                            if orbit_tol is None else orbit_tol)), p[:, j])
    return out


@dataclass
class HyperbolicityCertificate:
    """Aggregate outcome of the linear-stability checks for one run. The
    run passes when all_pass (cone conditions, and a splitting with
    bundles apart, if taken) and orbit_pass (the orbit deviation within
    orbit_tol) both hold."""

    lam: float
    cone: ConeParameters
    verdict: ConeVerdict
    splitting: SplittingReport | None = None
    legendre_sigma_bounds: tuple | None = None
    orbit_deviation: float | None = None
    orbit_tol: float | None = None
    warnings: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        ok = self.verdict.all_pass
        if self.splitting is not None:
            ok = ok and self.splitting.min_angle > 0.0
        return bool(ok)

    @property
    def orbit_pass(self) -> bool:
        """False unless both the deviation and the tolerance are known."""
        return (self.orbit_deviation is not None and self.orbit_tol is not None
                and bool(self.orbit_deviation <= self.orbit_tol))

    def to_json_dict(self) -> dict:
        return {**asdict(self, dict_factory=_json_fields), "all_pass": self.all_pass,
                "orbit_pass": self.orbit_pass}


def orbit_to_csv(path, u: Configuration, p: np.ndarray):
    """Write site, position and momentum columns, lines ended by \\n,
    through the writer of solution.csv (lattice._write_columns)."""
    p = np.asarray(p, dtype=float).reshape(u.values.shape)
    _write_columns(path, u, ("u", "p"), np.concatenate([u.values, p], axis=1), "\n")
