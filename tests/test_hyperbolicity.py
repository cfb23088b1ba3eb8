import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from antifk import (
    AubryCertificate,
    CertificateError,
    ConeParameters,
    ContractionSolver,
    ConvexityError,
    DomainError,
    FiniteZeroSet,
    HyperbolicityCertificate,
    LinearizationSite,
    NearestNeighborInteraction,
    PeriodicZeroSet,
    PerturbedQuadraticCoupling,
    QuadraticCoupling,
    SolveParams,
    TrigSumPotential,
    Window,
    as_rotation,
    cone_parameters,
    cone_splitting,
    cosine_certificate,
    homomorphism_configuration,
    legendre_bounds,
    linearize,
    momentum,
    orbit_to_csv,
    solve_equilibrium,
    stack_chains,
    transfer_matrix,
    translate,
    twist_map_step,
    verify_cone_conditions,
    verify_orbit,
)
from antifk import hyperbolicity

from oracles import fd_jacobian

MU = 5.0 + 2.0 * np.sqrt(6.0)
ALPHA = 5.0 - 2.0 * np.sqrt(6.0)


@pytest.fixture(scope="module")
def solved(cos_potential_module, cos_cert_module, nn_module):
    params = SolveParams(lam=20.0, rho=1.0, window=24)
    u, rep = solve_equilibrium(
        params, nn_module, cos_potential_module, cos_cert_module
    )
    return u, rep, params


@pytest.fixture(scope="module")
def cos_potential_module():
    from antifk import cosine_potential

    return cosine_potential()


@pytest.fixture(scope="module")
def cos_cert_module():
    from antifk import cosine_certificate

    return cosine_certificate()


@pytest.fixture(scope="module")
def nn_module():
    return NearestNeighborInteraction(QuadraticCoupling())


def constant_case(n=24, lam=20.0):
    """u identically pi: an equilibrium with lam V'' = +lam at every site."""
    w = Window(n, 1)
    return translate(homomorphism_configuration(as_rotation(0.0), w), np.pi), lam


class TestLinearize:
    def test_cosine_at_origin(self, nn_module, cos_potential_module):
        u = homomorphism_configuration(as_rotation(0.0), Window(6, 1))
        sites = linearize(u, nn_module, cos_potential_module, 20.0)
        assert len(sites) == 13
        assert [s.site for s in sites] == list(range(-6, 7))
        for rec in sites:
            assert isinstance(rec, LinearizationSite)
            assert rec.A[0, 0] == 1.0
            assert rec.B[0, 0] == 1.0
            assert rec.C[0, 0] == pytest.approx(-20.0)

    def test_certificate_bounds_enforced(self, nn_module, cos_potential_module,
                                         cos_cert_module):
        u = homomorphism_configuration(as_rotation(0.0), Window(6, 1))
        out = linearize(u, nn_module, cos_potential_module, 20.0, cert=cos_cert_module)
        assert len(out) == 13

    def test_tube_violation_raises(self, nn_module, cos_potential_module,
                                   cos_cert_module):
        u = translate(
            homomorphism_configuration(as_rotation(0.0), Window(6, 1)), np.pi / 2
        )
        with pytest.raises(CertificateError):
            linearize(u, nn_module, cos_potential_module, 20.0, cert=cos_cert_module)

    def test_long_range_rejected(self, cos_potential_module):
        from antifk import LongRangeInteraction

        u = homomorphism_configuration(as_rotation(0.0), Window(4, 1))
        with pytest.raises(ValueError):
            linearize(u, LongRangeInteraction(), cos_potential_module, 20.0)

    def test_solved_configuration_coefficients(self, solved, nn_module,
                                               cos_potential_module, cos_cert_module):
        u, _, params = solved
        recs = linearize(u, nn_module, cos_potential_module, params.lam,
                         cert=cos_cert_module)
        for rec in recs:
            assert abs(rec.C[0, 0]) >= params.lam * cos_cert_module.expansion * 0.999


class TestTransfer:
    def test_recursion_satisfied(self, solved, nn_module, cos_potential_module, rng):
        u, _, params = solved
        recs = linearize(u, nn_module, cos_potential_module, params.lam)
        for rec in recs[1:-1]:
            xi_prev = rng.normal(size=1)
            xi_cur = rng.normal(size=1)
            xi_next = (transfer_matrix(rec) @ np.concatenate([xi_prev, xi_cur]))[1:]
            resid = (
                rec.A @ (xi_cur - xi_next)
                - rec.B @ (xi_prev - xi_cur)
                + rec.C @ xi_cur
            )
            assert np.abs(resid).max() < 1e-12 * max(1.0, np.abs(xi_next).max())

    def test_backward_inverts_forward(self, solved, nn_module,
                                      cos_potential_module, rng):
        u, _, params = solved
        rec = linearize(u, nn_module, cos_potential_module, params.lam)[5]
        xi_prev, xi_cur = rng.normal(size=1), rng.normal(size=1)
        M = transfer_matrix(rec)
        xi_next = (M @ np.concatenate([xi_prev, xi_cur]))[1:]
        back = np.linalg.solve(M, np.concatenate([xi_cur, xi_next]))[:1]
        assert np.abs(back - xi_prev).max() < 1e-10

    def test_matrix_matches_step(self, rng):
        u, lam = constant_case(n=4)
        nn = NearestNeighborInteraction(QuadraticCoupling())
        V = TrigSumPotential([(1.0, [1.0], 0.0)])
        rec = linearize(u, nn, V, lam)[2]
        M = transfer_matrix(rec)
        xi_prev, xi_cur = rng.normal(size=1), rng.normal(size=1)
        pair = np.concatenate([xi_prev, xi_cur])
        out = M @ pair
        assert out[0] == pytest.approx(xi_cur[0])
        # the tangent recursion solved for xi_{i+1}
        step = (rec.A + rec.B + rec.C) @ xi_cur - rec.B @ xi_prev
        assert out[1] == pytest.approx(float(np.linalg.solve(rec.A, step)[0]))

    def test_d1_blocks_invert_as_linalg_inv(self, rng):
        # 1 / a is the float np.linalg.inv gives a 1 x 1 block
        A, B, C = (rng.choice([-1.0, 1.0], size=(32729, 1, 1))
                   * 10.0 ** rng.uniform(-8, 8, size=(32729, 1, 1)) for _ in range(3))
        M = hyperbolicity._transfer_matrices(A, B, C)
        inv = np.linalg.inv(A)
        assert np.array_equal(M[:, 1:, :1], -inv @ B)
        assert np.array_equal(M[:, 1:, 1:], inv @ (A + B + C))

    def test_constant_case_eigenvalues(self):
        u, lam = constant_case(n=4)
        nn = NearestNeighborInteraction(QuadraticCoupling())
        V = TrigSumPotential([(1.0, [1.0], 0.0)])
        rec = linearize(u, nn, V, lam)[0]
        ev = np.sort(np.linalg.eigvals(transfer_matrix(rec)).real)
        assert ev[0] == pytest.approx(11.0 - np.sqrt(120.0), abs=1e-12)
        assert ev[1] == pytest.approx(11.0 + np.sqrt(120.0), abs=1e-12)


EPS = np.finfo(float).eps


def _blocks(rng, n=300):
    """2 x 2 blocks: random ones, near-singular ones (determinant about
    1e-12 of the entries' scale), exactly singular ones (rank one, and
    one zero row), each set also scaled by 1e+-150 and by 1e+-200, where
    the unscaled determinant would overflow or underflow."""
    rand = rng.standard_normal((n, 2, 2))
    u, v = rng.standard_normal((2, n, 2))
    near = np.einsum("ki,kj->kij", u, v)
    near[:, 1, 1] += 1e-12 * rng.uniform(1.0, 2.0, n) * np.abs(near).max(axis=(1, 2))
    rank1 = np.array([[[1.0, 2.0], [0.5, 1.0]], [[3.0, -1.5], [-2.0, 1.0]],
                      [[0.0, 0.0], [1.0, 2.0]]])
    base = np.concatenate([rand, near])
    scales = [1.0, 1e150, 1e-150, 1e200, 1e-200]
    return (np.concatenate([t * base for t in scales]),
            np.concatenate([t * rank1 for t in scales]))


def _mp_matrix(X):
    import mpmath
    return mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in X])


class TestClosedFormBlocks:
    """The d <= 2 closed forms of hyperbolicity against mpmath at 200 bits
    on the floats given, with the error bounds their docstrings derive."""

    def test_inverse_and_solve_within_rounding_bounds(self, rng):
        # with rho = (|a e| + |b c|) / |a e - b c|, the condition of the
        # determinant, and u = eps / 2: the scaled determinant carries
        # u (3 rho + 1) (entries over s, products, difference), and each
        # entry of the inverse u (3 rho + 4) with the scaling, the product
        # by s and the division; a solved component adds the cancellation
        # of its numerator, 2 u (|adj| |f|)_i / |det|
        import mpmath
        mpmath.mp.prec = 200
        good, singular = _blocks(rng)
        f = rng.standard_normal((len(good), 2))
        inv, x = hyperbolicity._inv(good), hyperbolicity._solve(good, f)
        a, b, c, e = np.moveaxis(good / np.abs(good).max(axis=(1, 2), keepdims=True),
                                 0, -1).reshape(4, -1)
        rho = (np.abs(a * e) + np.abs(b * c)) / np.abs(a * e - b * c)
        for k, X in enumerate(good):
            exact = _mp_matrix(X) ** -1
            ref = np.array([[float(exact[i, j]) for j in range(2)] for i in range(2)])
            err = np.array([[float(abs(mpmath.mpf(float(inv[k, i, j])) - exact[i, j]))
                             for j in range(2)] for i in range(2)])
            assert (err <= EPS / 2 * (3 * rho[k] + 4) * np.abs(ref) * (1 + 1e-6)).all()
            sol = exact * mpmath.matrix([float(t) for t in f[k]])
            adj_f = np.abs(np.array([[X[1, 1], X[0, 1]], [X[1, 0], X[0, 0]]])) @ np.abs(f[k])
            det = abs(mpmath.det(_mp_matrix(X)))
            for i in range(2):
                bound = EPS / 2 * ((3 * rho[k] + 4) * abs(sol[i]) + 2 * adj_f[i] / det)
                assert abs(mpmath.mpf(float(x[k, i])) - sol[i]) <= bound * (1 + 1e-6)
        assert not np.isfinite(hyperbolicity._inv(singular)).any()
        assert not np.isfinite(hyperbolicity._solve(singular, f[:len(singular)])).any()

    def test_singular_values_within_derived_bound(self, rng):
        # every singular value within 2 eps sigma_max of mpmath's, for
        # singular blocks too; _cone_bounds reads three of them (sigma(S),
        # |P| and |Q|) plus about 1.5 eps of its own roundings, which
        # _ROUND covers
        import mpmath
        mpmath.mp.prec = 200
        good, singular = _blocks(rng)
        blocks = np.concatenate([good, singular])
        got = hyperbolicity._sv(blocks)
        assert (got[:, 0] >= got[:, 1]).all()
        for X, sv in zip(blocks, got):
            exact = mpmath.svd_r(_mp_matrix(X), compute_uv=False)
            exact = sorted((float(abs(s)) for s in exact), reverse=True)
            err = [float(abs(mpmath.mpf(float(g)) - mpmath.mpf(t)))
                   for g, t in zip(sv, exact)]
            assert max(err) <= 2 * EPS * exact[0]
        assert 3 * 2 * EPS + 1.5 * EPS <= hyperbolicity._ROUND

    @pytest.mark.parametrize("d", [1, 2])
    def test_basis_orthonormal_and_as_lapack_qr(self, d, rng):
        # the splitting's blocks (P xi, xi) and (xi, R xi): orthonormal to
        # 4 eps, and LAPACK's Q (signs included) to 4 eps times the
        # block's condition number; blocks LAPACK leaves unreflected match
        # bit for bit but for the sign of zeros
        P = rng.standard_normal((3000, d, d)) * rng.choice([0.01, 1.0, 10.0], (3000, 1, 1))
        eye = np.broadcast_to(np.eye(d), P.shape)
        for V in (np.concatenate([P, eye], axis=1), np.concatenate([eye, P], axis=1)):
            Q, ref = hyperbolicity._basis(V), np.linalg.qr(V).Q
            gram = np.swapaxes(Q, -1, -2) @ Q
            assert np.abs(gram - np.eye(d)).max() <= 4 * EPS
            gap = np.abs(Q - ref).max(axis=(1, 2))
            assert (gap <= 4 * EPS * np.linalg.cond(V)).all()
        zero = np.zeros((2, d, d))
        for V in (np.concatenate([eye[:2], zero], axis=1),
                  np.concatenate([zero, eye[:2]], axis=1)):
            assert np.array_equal(hyperbolicity._basis(V), np.linalg.qr(V).Q)

    def test_lapack_beyond_d2_isolates_singular_blocks(self, rng):
        # d = 3 falls back to LAPACK, and a singular block gives NaN there
        # only, as the closed forms give non-finite values
        X = rng.standard_normal((6, 3, 3)) + 4 * np.eye(3)
        X[2] = 0.0
        f = rng.standard_normal((6, 3))
        inv, x = hyperbolicity._inv(X), hyperbolicity._solve(X, f)
        ok = np.arange(6) != 2
        assert np.isnan(inv[2]).all() and np.isnan(x[2]).all()
        assert np.array_equal(inv[ok], np.linalg.inv(X[ok]))
        np.testing.assert_allclose(x[ok], np.linalg.solve(X[ok], f[ok][..., None])[..., 0],
                                   rtol=1e-12)


class TestConeParameters:
    def test_cosine_ratio_two(self, cos_cert_module):
        cone = cone_parameters(cos_cert_module)
        assert cone.mu == pytest.approx(MU, abs=1e-14)
        assert cone.alpha == pytest.approx(ALPHA, abs=1e-14)
        assert cone.beta == cone.alpha

    def test_equal_radii(self):
        cert = SimpleNamespace(ball_radius=1.0, covering_radius=1.0)
        cone = cone_parameters(cert)
        # roots of x^2 - 6x + 1
        assert cone.mu == pytest.approx(3.0 + 2.0 * np.sqrt(2.0), abs=1e-14)
        assert cone.alpha == pytest.approx(3.0 - 2.0 * np.sqrt(2.0), abs=1e-14)

    def test_root_identities(self, rng):
        for _ in range(20):
            r = rng.uniform(0.1, 3.0)
            R = rng.uniform(0.1, 3.0)
            cone = cone_parameters(SimpleNamespace(ball_radius=r, covering_radius=R))
            assert cone.mu * cone.alpha == pytest.approx(1.0, abs=1e-12)
            assert cone.mu + cone.alpha == pytest.approx(2.0 + 4.0 * R / r, rel=1e-12)
            assert cone.mu > 1 > cone.alpha > 0


class TestVerifyConeConditions:
    def test_solved_configuration_passes(self, solved, nn_module,
                                         cos_potential_module, cos_cert_module):
        u, _, params = solved
        verdict = verify_cone_conditions(
            u, nn_module, cos_potential_module, params.lam, cos_cert_module
        )
        assert verdict.all_pass
        assert all(verdict.forward_pass)
        assert all(verdict.backward_pass)
        # growth is at least lam m - 2 - alpha in every certified site
        floor = params.lam * cos_cert_module.expansion - 2.0 - ALPHA
        assert min(verdict.forward_growth) >= floor - 1e-9
        assert min(verdict.backward_growth) >= floor - 1e-9

    def test_weak_coupling_fails_everywhere(self, nn_module, cos_potential_module,
                                            cos_cert_module):
        u = homomorphism_configuration(as_rotation(0.0), Window(8, 1))
        verdict = verify_cone_conditions(
            u, nn_module, cos_potential_module, 0.1, cos_cert_module
        )
        assert not verdict.all_pass
        assert not any(verdict.forward_pass)
        assert not any(verdict.backward_pass)

    def test_constant_coefficients_pass(self, nn_module, cos_potential_module,
                                        cos_cert_module):
        u, lam = constant_case()
        verdict = verify_cone_conditions(
            u, nn_module, cos_potential_module, lam, cos_cert_module
        )
        assert verdict.all_pass
        assert min(verdict.forward_growth) == pytest.approx(
            22.0 - ALPHA, abs=1e-12
        )

    def test_pair_margin_exact_at_threshold(self):
        # with mu alpha = 1 the pair-norm condition degenerates to
        # 1 + f^2 >= mu^2 + (mu alpha)^2 t^2/alpha^2... at |f| = mu and
        # |t| = alpha both sides agree exactly; any growth above mu gives
        # a strictly positive margin
        cone = ConeParameters(mu=MU, alpha=ALPHA, beta=ALPHA)
        f = MU
        t = ALPHA
        lhs = 1.0 + f * f
        rhs = cone.mu**2 * (1.0 + t * t)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_two_component_sites(self):
        # d = 2: independent cosines per component, constant hessian -I
        V2 = TrigSumPotential([(1.0, [1.0, 0.0], 0.0), (1.0, [0.0, 1.0], 0.0)])
        nn = NearestNeighborInteraction(QuadraticCoupling())
        u = homomorphism_configuration(as_rotation([0.0, 0.0]), Window(6, 2))
        cert = SimpleNamespace(
            ball_radius=np.pi / 4,
            covering_radius=np.pi / 2,
            expansion=np.sqrt(2) / 2,
        )
        verdict = verify_cone_conditions(u, nn, V2, 20.0, cert)
        assert verdict.all_pass
        # the growth bound cannot exceed the exact d = 1 value 18 - alpha
        assert min(verdict.forward_growth) <= 18.0 - 0.9 * ALPHA
        assert min(verdict.forward_growth) >= 17.0

    def test_d2_bounds_rounded_down(self):
        # constant blocks A = B = I, S = -18 I: the exact bounds are
        # 18 - alpha and 1 + (18 - alpha)^2 - mu^2 (1 + alpha^2); both
        # come out a few ulps below them, never above
        V2 = TrigSumPotential([(1.0, [1.0, 0.0], 0.0), (1.0, [0.0, 1.0], 0.0)])
        nn = NearestNeighborInteraction(QuadraticCoupling())
        u = homomorphism_configuration(as_rotation([0.0, 0.0]), Window(6, 2))
        cert = SimpleNamespace(ball_radius=np.pi / 4, covering_radius=np.pi / 2,
                               expansion=np.sqrt(2) / 2)
        verdict = verify_cone_conditions(u, nn, V2, 20.0, cert)
        g, cone = 18.0 - ALPHA, verdict.cone
        pair = 1.0 + g * g - cone.mu**2 * (1.0 + cone.alpha**2)
        for got, exact in [(verdict.forward_growth, g),
                           (verdict.backward_growth, g),
                           (verdict.forward_pair_margin, pair),
                           (verdict.backward_pair_margin, pair)]:
            assert exact - 1e-11 * abs(exact) < max(got) < exact - 1e-15 * abs(exact)

    def test_phonon_gap_of_constant_chain(self, nn_module, cos_potential_module,
                                          cos_cert_module):
        # A = B = 1 and S = 22: the gap is 22 - 1 - 1, rounded down
        u, lam = constant_case()
        verdict = verify_cone_conditions(
            u, nn_module, cos_potential_module, lam, cos_cert_module
        )
        assert 20.0 - 1e-12 <= verdict.phonon_gap <= 20.0
        # every site ties: the least |site| is reported
        assert verdict.worst_sites == {"phonon_gap": 0, "forward": 0, "backward": 0}

    def test_worst_sites_tie_rule(self):
        # within 1e-12 (relative) of the least value ties; the tie goes
        # to the least |site|, then the lower site, per chain
        sites = np.arange(-6, 7)
        low = -1.5881861113554825
        values = np.full((13, 4), 5.0)
        values[[0, 12], 0] = low                            # -6 and 6 tie exactly
        values[[1, 8], 1] = low, low * (1 - 5e-13)          # -5, and 2 within 1e-12
        values[[1, 8], 2] = low, low * (1 - 5e-12)          # 2 is not within
        values[[4, 8], 3] = 0.0                             # zero ties only exactly
        values[7, 3] = 1e-300
        assert hyperbolicity._worst_sites(sites, values) == [-6, 2, -5, -2]


class TestConeSplitting:
    def test_constant_case_directions(self):
        u, lam = constant_case()
        nn = NearestNeighborInteraction(QuadraticCoupling())
        V = TrigSumPotential([(1.0, [1.0], 0.0)])
        split = cone_splitting(u, nn, V, lam, horizon=20)
        lam_u = 11.0 + np.sqrt(120.0)
        lam_s = 11.0 - np.sqrt(120.0)
        eu = np.array([1.0, lam_u])
        eu /= np.linalg.norm(eu)
        es = np.array([1.0, lam_s])
        es /= np.linalg.norm(es)
        for U, S in zip(split.unstable_basis, split.stable_basis):
            assert min(np.linalg.norm(U.ravel() - eu),
                       np.linalg.norm(U.ravel() + eu)) < 1e-12
            assert min(np.linalg.norm(S.ravel() - es),
                       np.linalg.norm(S.ravel() + es)) < 1e-12
        assert max(abs(m - lam_u) for m in split.unstable_multipliers) < 1e-12
        assert max(abs(m - lam_s) for m in split.stable_multipliers) < 1e-12
        assert split.min_angle > 1.3

    def test_solved_configuration_invariance(self, solved, nn_module,
                                             cos_potential_module):
        u, _, params = solved
        split = cone_splitting(u, nn_module, cos_potential_module, params.lam,
                               horizon=20)
        recs = {r.site: r for r in linearize(u, nn_module, cos_potential_module,
                                             params.lam)}
        for k, site in enumerate(split.sites[:-1]):
            img = transfer_matrix(recs[site]) @ split.unstable_basis[k]
            img /= np.linalg.norm(img)
            nxt = split.unstable_basis[k + 1].ravel()
            # sin of the angle between unit vectors: accurate near zero,
            # where arccos of the dot product loses half the digits
            sin_angle = np.linalg.norm(img.ravel() - nxt * (nxt @ img.ravel()))
            assert sin_angle < 1e-8

    def test_unstable_expansion_beats_mu(self, solved, nn_module,
                                         cos_potential_module):
        u, _, params = solved
        split = cone_splitting(u, nn_module, cos_potential_module, params.lam)
        assert min(split.unstable_multipliers) >= MU
        assert max(split.stable_multipliers) <= 1.0 / MU

    def test_angle_positive(self, solved, nn_module, cos_potential_module):
        u, _, params = solved
        split = cone_splitting(u, nn_module, cos_potential_module, params.lam)
        assert split.min_angle > 0.0

    def test_horizon_insensitivity(self, solved, nn_module, cos_potential_module):
        # geometric convergence: moderate horizons already agree
        u, _, params = solved
        s10 = cone_splitting(u, nn_module, cos_potential_module, params.lam,
                             horizon=10)
        s20 = cone_splitting(u, nn_module, cos_potential_module, params.lam,
                             horizon=20)
        sites10, sites20 = s10.sites.tolist(), s20.sites.tolist()
        for site in set(sites10) & set(sites20):
            a = s10.unstable_basis[sites10.index(site)].ravel()
            b = s20.unstable_basis[sites20.index(site)].ravel()
            assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < 1e-12

    def test_horizon_too_large(self, nn_module, cos_potential_module):
        u, lam = constant_case(n=6)
        with pytest.raises(ValueError):
            cone_splitting(u, nn_module, cos_potential_module, lam, horizon=7)

    @pytest.mark.parametrize("horizon", [-1, -3])
    def test_negative_horizon_rejected(self, nn_module, cos_potential_module,
                                       horizon):
        u, lam = constant_case(n=8)
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            cone_splitting(u, nn_module, cos_potential_module, lam,
                           horizon=horizon)

    @pytest.mark.parametrize("d", [1, 2])
    def test_singular_slope_names_site(self, nn_module, d):
        # u = 0 with lam = 2: S = A + B + C = I + I - 2 I = 0 at every site,
        # so the first slope of the forward recursion is singular
        V = TrigSumPotential([(1.0, row, 0.0) for row in np.eye(d).tolist()])
        u = homomorphism_configuration(as_rotation([0.0] * d), Window(8, d))
        with pytest.raises(CertificateError,
                           match="singular unstable slope at site -8"):
            cone_splitting(u, nn_module, V, 2.0, horizon=3)


def _growth_1d(c0, c1, aperture):
    if c1 != 0.0 and abs(c0 / c1) <= aperture:
        return 0.0
    return min(abs(c0 - c1 * aperture), abs(c0 + c1 * aperture))


def _margin_1d(c0, c1, aperture, mu):
    ends = []
    for t in (-aperture, aperture):
        f = c0 - c1 * t
        ends.append(1.0 + f * f - mu * mu * (1.0 + t * t))
    best = min(ends)
    q2 = c1 * c1 - mu * mu
    if q2 > 0.0:
        t_star = c0 * c1 / q2
        if abs(t_star) <= aperture:
            f = c0 - c1 * t_star
            best = min(best, 1.0 + f * f - mu * mu * (1.0 + t_star * t_star))
    return best


def _verdict_by_site(u, nn, V, lam, cert, samples=256, seed=0):
    """Per-site reference for verify_cone_conditions: rows of forward
    growth, forward pair margin, backward growth, backward pair margin."""
    lin = linearize(u, nn, V, lam, cert=cert)
    cone = cone_parameters(cert)
    d = lin[0].A.shape[-1]
    out = np.empty((4, len(lin)))
    if d == 1:
        for k, rec in enumerate(lin):
            a, b, c = rec.A[0, 0], rec.B[0, 0], rec.C[0, 0]
            s = a + b + c
            out[:, k] = (_growth_1d(s / a, b / a, cone.alpha),
                         _margin_1d(s / a, b / a, cone.alpha, cone.mu),
                         _growth_1d(s / b, a / b, cone.beta),
                         _margin_1d(s / b, a / b, cone.beta, cone.mu))
        return out
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(samples, 2, d))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    xi = np.concatenate([dirs[:, 0], dirs[:1, 0]])
    other = np.concatenate([dirs[:, 1], np.zeros((1, d))])
    for k, rec in enumerate(lin):
        S = rec.A + rec.B + rec.C
        for row, (P, Q, ap) in enumerate([(rec.A, rec.B, cone.alpha),
                                          (rec.B, rec.A, cone.beta)]):
            g = np.linalg.norm(
                np.linalg.solve(P, (S @ xi.T - Q @ (ap * other).T)).T, axis=1)
            pair_in = 1.0 + ap**2 * np.linalg.norm(other, axis=1) ** 2
            out[2 * row, k] = g.min()
            out[2 * row + 1, k] = (1.0 + g**2 - cone.mu**2 * pair_in).min()
    return out


def _splitting_by_site(u, nn, V, lam, horizon):
    """Per-site reference for cone_splitting: each site pushes its own
    seed forward from i - horizon and pulls one back from i + horizon."""
    lin = linearize(u, nn, V, lam)
    d = lin[0].A.shape[-1]
    mats = {}
    for rec in lin:
        Ainv = np.linalg.inv(rec.A)
        M = np.zeros((2 * d, 2 * d))
        M[:d, d:] = np.eye(d)
        M[d:, :d] = -Ainv @ rec.B
        M[d:, d:] = Ainv @ (rec.A + rec.B + rec.C)
        mats[rec.site] = M
    out = {k: [] for k in ("sites", "U", "S", "gu", "gs", "angles")}
    for i in range(lin[0].site + horizon, lin[-1].site - horizon + 1):
        U = np.eye(2 * d, d, -d)
        for j in range(i - horizon, i):
            U, _ = np.linalg.qr(mats[j] @ U)
        S = np.eye(2 * d, d)
        for j in range(i + horizon - 1, i - 1, -1):
            S, _ = np.linalg.qr(np.linalg.solve(mats[j], S))
        sig = np.linalg.svd(U.T @ S, compute_uv=False)
        out["sites"].append(i)
        out["U"].append(U)
        out["S"].append(S)
        out["gu"].append(np.linalg.norm(mats[i] @ U) / np.linalg.norm(U))
        out["gs"].append(np.linalg.norm(mats[i] @ S) / np.linalg.norm(S))
        out["angles"].append(np.arccos(np.clip(sig.max(), -1.0, 1.0)))
    return out


@pytest.fixture(scope="module")
def solved_2d():
    """A solved d = 2 chain: cos x + cos y on the zero set pi Z^2 (R =
    pi/sqrt(2), r = pi/4, m = cos(pi/4)), perturbed-quadratic coupling."""
    axis = np.pi * np.arange(-12, 13)
    zeros = FiniteZeroSet(np.array([[x, y] for x in axis for y in axis]),
                          -35.0, 35.0)
    cert = AubryCertificate(zeros, np.pi / np.sqrt(2), np.pi / 4,
                            np.cos(np.pi / 4))
    V = TrigSumPotential([(1.0, [1.0, 0.0], 0.0), (1.0, [0.0, 1.0], 0.0)])
    nn = NearestNeighborInteraction(PerturbedQuadraticCoupling(0.1))
    params = SolveParams(lam=40.0, rho=[0.41, 0.53], window=40)
    u, _ = solve_equilibrium(params, nn, V, cert)
    return u, nn, V, cert, params.lam


@pytest.fixture(scope="module")
def solved_3d():
    """A solved d = 3 chain: cos x + cos y + cos z on the zero set pi Z^3
    (R = pi sqrt(3) / 2, r = pi/4, m = cos(pi/4))."""
    axis = np.pi * np.arange(-10, 11)
    zeros = FiniteZeroSet(
        np.array([[x, y, z] for x in axis for y in axis for z in axis]),
        -30.0, 30.0)
    cert = AubryCertificate(zeros, np.pi * np.sqrt(3) / 2, np.pi / 4,
                            np.cos(np.pi / 4))
    V = TrigSumPotential([(1.0, [1.0, 0.0, 0.0], 0.0),
                          (1.0, [0.0, 1.0, 0.0], 0.0),
                          (1.0, [0.0, 0.0, 1.0], 0.0)])
    nn = NearestNeighborInteraction(PerturbedQuadraticCoupling(0.1))
    params = SolveParams(lam=60.0, rho=[1.9, 1.3, 0.7], window=12)
    u, _ = solve_equilibrium(params, nn, V, cert)
    return u, nn, V, cert, params.lam


@pytest.fixture(scope="module")
def solved_chains(solved, solved_2d, solved_3d, nn_module,
                  cos_potential_module, cos_cert_module):
    """(u, interaction, V, cert, lam) of the solved d = 1, 2 and 3 chains."""
    u, _, params = solved
    return [(u, nn_module, cos_potential_module, cos_cert_module, params.lam),
            solved_2d, solved_3d]


def _riccati_by_site(M, horizon):
    """Sequential reference for hyperbolicity._riccati: entry j runs the
    recursion X_{k+1} = (M22_k + M21_k X_k)^{-1} from the zero seed at
    max(0, j - horizon), one site at a time, each block inverted alone by
    the same closed form."""
    d = M.shape[-1] // 2
    out = np.zeros((M.shape[0] + 1, d, d))
    for j in range(1, M.shape[0] + 1):
        X = np.zeros((d, d))
        for k in range(max(0, j - horizon), j):
            X = hyperbolicity._inv((M[k, d:, d:] + M[k, d:, :d] @ X)[None])[0]
        out[j] = X
    return out


class TestBatchedAgainstPerSite:
    """The batched verdict and splitting against per-site references."""

    def test_verdict(self, solved_chains):
        # d = 1 is the exact closed form, bit for bit; in d > 1 the norm
        # bounds lie below the sampled worst case at every site
        for u, nn, V, cert, lam in solved_chains:
            verdict = verify_cone_conditions(u, nn, V, lam, cert)
            got = np.array([verdict.forward_growth, verdict.forward_pair_margin,
                            verdict.backward_growth, verdict.backward_pair_margin])
            ref = _verdict_by_site(u, nn, V, lam, cert)
            if u.window.dimension == 1:
                assert np.array_equal(got, ref)
            else:
                assert (got <= ref).all()
            assert verdict.sites.tolist() == u.window.sites().tolist()
            assert verdict.all_pass
            sampled_pass = (
                (ref[[0, 2]] >= (1.0 / verdict.cone.alpha) * (1 - 1e-12)).all()
                and (ref[[1, 3]] >= -1e-12 * (1.0 + verdict.cone.mu**2)).all())
            assert verdict.all_pass == sampled_pass

    def test_splitting(self, solved_chains):
        # same bundles as the finite-horizon QR pushes: projectors,
        # multipliers and angles within 1e-12
        for (u, nn, V, _, lam), horizon in itertools.product(
                solved_chains[:2], [0, 1, 5, 10]):
            split = cone_splitting(u, nn, V, lam, horizon=horizon)
            ref = _splitting_by_site(u, nn, V, lam, horizon=horizon)
            assert split.sites.tolist() == ref["sites"]
            for got, expect in [(split.unstable_basis, ref["U"]),
                                (split.stable_basis, ref["S"])]:
                got, expect = np.array(got), np.array(expect)
                gap = (got @ np.swapaxes(got, -1, -2)
                       - expect @ np.swapaxes(expect, -1, -2))
                assert np.abs(gap).max() <= 1e-12
            for got, expect in [(split.unstable_multipliers, ref["gu"]),
                                (split.stable_multipliers, ref["gs"]),
                                (split.angles, ref["angles"])]:
                np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0.0)
            assert split.min_angle == min(split.angles)

    def test_verdict_takes_four_svds(self, solved_2d, monkeypatch):
        # the certificate check's singular values of A and B bound the
        # verdict too: one stacked singular-value call each of A, B, C and
        # A + B + C, on the one-chain stack (n, 1, d, d), all in closed
        # form (no LAPACK SVD)
        u, nn, V, cert, lam = solved_2d
        expect = verify_cone_conditions(u, nn, V, lam, cert)
        calls, lapack = [], []
        sv = hyperbolicity._sv

        def counting(X):
            calls.append(np.shape(X))
            return sv(X)

        monkeypatch.setattr(hyperbolicity, "_sv", counting)
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: lapack.append(a))
        got = verify_cone_conditions(u, nn, V, lam, cert)
        assert got.to_json_dict() == expect.to_json_dict()
        assert calls == [(u.window.n_sites, 1, 2, 2)] * 4
        assert lapack == []

    @pytest.mark.parametrize("d", [2, 3])
    def test_cone_bounds_below_sampled_worst_case(self, d, rng):
        # random blocks, many with sigma_min(S) < aperture |Q| so that the
        # growth bound is negative: both bounds stay below the minimum
        # over sampled cone directions (plus the cone axis)
        n, aperture, mu = 300, 0.3, 3.0
        P, Q = rng.normal(size=(2, n, d, d))
        S = rng.normal(size=(n, d, d)) * rng.uniform(0.0, 3.0, (n, 1, 1))
        g, pair = hyperbolicity._cone_bounds(
            np.linalg.norm(P, 2, axis=(1, 2)), np.linalg.norm(Q, 2, axis=(1, 2)),
            np.linalg.svd(S, compute_uv=False), aperture, mu)
        dirs = rng.normal(size=(2, 512, d))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        xi, other = dirs[0], np.concatenate([dirs[1, 1:], np.zeros((1, d))])
        out = np.linalg.solve(P, S @ xi.T - Q @ (aperture * other).T)
        growth = np.linalg.norm(out, axis=1)
        margin = 1.0 + growth**2 - mu**2 * (
            1.0 + aperture**2 * np.linalg.norm(other, axis=1) ** 2)
        assert (g < 0).sum() > n // 10
        assert (g <= growth.min(axis=1)).all()
        assert (pair <= margin.min(axis=1)).all()

    @pytest.mark.parametrize("horizon", [0, 1, 5, 10, 100])
    def test_riccati_sweeps_match_sequential_loop(self, solved_chains, horizon):
        # bit for bit, both when the sweeps stop at a fixed point before
        # the horizon and when the horizon caps them
        for u, nn, V, _, lam in solved_chains:
            _, A, B, C = hyperbolicity._coefficients(u, nn, V, lam)
            for M in [hyperbolicity._transfer_matrices(A, B, C),
                      hyperbolicity._transfer_matrices(B, A, C)[::-1]]:
                got = hyperbolicity._riccati(M, horizon, u.window.sites(), "x")
                assert got.tobytes() == _riccati_by_site(M, horizon).tobytes()

    def test_phonon_gap_bounds_inverse(self, solved_chains):
        # the linearised operator L (blocks -B_i, S_i, -A_i) of each chain
        # has sigma_min(L) >= phonon_gap > 0
        for u, nn, V, cert, lam in solved_chains:
            verdict = verify_cone_conditions(u, nn, V, lam, cert)
            _, A, B, C = hyperbolicity._coefficients(u, nn, V, lam)
            n, d = A.shape[0], A.shape[-1]
            L = np.zeros((n * d, n * d))
            for i in range(n):
                blk = slice(i * d, (i + 1) * d)
                L[blk, blk] = A[i] + B[i] + C[i]
                if i > 0:
                    L[blk, blk.start - d:blk.start] = -B[i]
                if i < n - 1:
                    L[blk, blk.stop:blk.stop + d] = -A[i]
            assert 0.0 < verdict.phonon_gap <= np.linalg.svd(
                L, compute_uv=False).min()
            gaps = [np.linalg.svd(A[i] + B[i] + C[i], compute_uv=False).min()
                    - np.linalg.norm(A[i], 2) - np.linalg.norm(B[i], 2)
                    for i in range(n)]
            k = int(np.argmin(gaps))
            assert verdict.worst_sites["phonon_gap"] == u.window.sites()[k]
            assert verdict.phonon_gap == pytest.approx(gaps[k], rel=1e-12)
            assert verdict.phonon_gap <= gaps[k]


class TestCheckStack:
    """check_stack runs the hyperbolicity checks of stacked chains in one
    pass; every chain's certificate and momenta equal, bit for bit, those
    the one-chain functions assemble, and a chain that fails the
    coefficient check gets its own error."""

    @staticmethod
    def _alone(u, nn, V, lam, cert, tol, horizon):
        """(certificate, momenta) of one chain from the one-chain views."""
        verdict = verify_cone_conditions(u, nn, V, lam, cert)
        p = momentum(u, nn, V, lam)
        return HyperbolicityCertificate(
            lam=lam, cone=verdict.cone, verdict=verdict,
            splitting=None if horizon is None else cone_splitting(
                u, nn, V, lam, horizon=horizon),
            legendre_sigma_bounds=legendre_bounds(nn.coupling),
            orbit_deviation=verify_orbit(u, p, nn, V, lam),
            orbit_tol=10.0 * tol * (1.0 + lam * V.hessian_sup_bound())), p

    @classmethod
    def _stack_against_alone(cls, chains, nn, V, lams, cert, horizon=None, tol=1e-10):
        checks = hyperbolicity.check_stack(stack_chains(chains), nn, V, lams, cert, tol,
                                           horizon=horizon)
        statuses = []
        for u, lam, check in zip(chains, lams, checks):
            try:
                alone, expect = cls._alone(u, nn, V, lam, cert, tol, horizon)
            except CertificateError as exc:
                assert type(check) is CertificateError and str(check) == str(exc)
                statuses.append("certificate-error")
                continue
            got, p = check
            # every field: the verdict's per-site arrays, phonon_gap and
            # worst_sites, the splitting's bundles, the orbit check
            assert got.to_json_dict() == alone.to_json_dict()
            assert p.shape == expect.shape and np.array_equal(p, expect)
            statuses.append("pass" if alone.verdict.all_pass else "fail")
        return statuses

    @staticmethod
    def _mixed_d1(cos_potential_module):
        # an expansion m = 0.99 above the true cos(pi/4) fails the
        # coefficient check at lam = 20 only
        cert = AubryCertificate(PeriodicZeroSet([0.0], np.pi), np.pi / 2, 1.2, 0.99)
        nn, V = NearestNeighborInteraction(), cos_potential_module
        cases = [(40.0, 0.5), (20.0, 0.5), (40.0, 1.0), (20.0, 1.0), (60.0, 0.3)]
        params = [SolveParams(lam=lam, rho=rho, window=8) for lam, rho in cases]
        chains = [u for u, _ in ContractionSolver(nn, V, cert, params).solve()]
        return chains, nn, V, [lam for lam, _ in cases], cert

    def test_mixed_batch_d1(self, cos_potential_module):
        chains, nn, V, lams, cert = self._mixed_d1(cos_potential_module)
        assert self._stack_against_alone(chains, nn, V, lams, cert) == [
            "pass", "certificate-error", "pass", "certificate-error", "pass"]
        # a verdict that fails is a verdict, in a batch as alone
        weak = translate(homomorphism_configuration(0.0, Window(8)), np.pi)
        assert self._stack_against_alone(
            [chains[0], weak], nn, V, [40.0, 1.0], cosine_certificate()) == ["pass", "fail"]
        assert self._stack_against_alone(
            chains[1:2], nn, V, [20.0], cert) == ["certificate-error"]

    def test_splitting_skips_failed_chains(self, cos_potential_module):
        # the chains that fail the coefficient check sit between passing
        # ones: each passing chain splits on its own coefficients, not on
        # those of the chain at its index before the failures were dropped
        chains, nn, V, lams, cert = self._mixed_d1(cos_potential_module)
        assert self._stack_against_alone(chains, nn, V, lams, cert, horizon=3,
                                         tol=1e-8) == [
            "pass", "certificate-error", "pass", "certificate-error", "pass"]
        checks = hyperbolicity.check_stack(stack_chains(chains), nn, V, lams, cert,
                                           1e-8, horizon=3, orbit_tol=0.5)
        for k in (0, 2, 4):
            report = checks[k][0]
            assert report.splitting.horizon == 3 and len(report.splitting.sites) == 11
            assert report.orbit_tol == 0.5 and report.orbit_pass and report.all_pass

    def test_solve_derivatives_stand_in_for_v(self, cos_potential_module, monkeypatch):
        # the grad V and hess V a solve ended on give every result bit for
        # bit without evaluating V, the splitting's too: lam = 0.5 fails in
        # the solve and has none, lam = 20 fails the coefficient check of
        # m = 0.99
        cert = AubryCertificate(PeriodicZeroSet([0.0], np.pi), np.pi / 2, 1.2, 0.99)
        nn, V = NearestNeighborInteraction(), cos_potential_module
        cases = [(40.0, 0.5), (0.5, 0.5), (20.0, 1.0), (60.0, 0.3)]
        solver = ContractionSolver(nn, V, cert, [SolveParams(lam=lam, rho=rho, window=8)
                                                 for lam, rho in cases])
        outcomes = solver.solve()
        assert isinstance(outcomes[1], DomainError)
        assert sorted(solver.derivatives) == [0, 2, 3]
        u = stack_chains([outcomes[c][0] for c in (0, 2, 3)])
        lams = [cases[c][0] for c in (0, 2, 3)]
        derivatives = tuple(np.stack(x, axis=1)
                            for x in zip(*(solver.derivatives[c] for c in (0, 2, 3))))
        fresh = hyperbolicity.check_stack(u, nn, V, lams, cert, 1e-10, horizon=3)

        def unused(x):
            raise AssertionError("V evaluated")

        monkeypatch.setattr(V, "gradient", unused)
        monkeypatch.setattr(V, "hessian", unused)
        handed = hyperbolicity.check_stack(u, nn, V, lams, cert, 1e-10, derivatives,
                                           horizon=3)
        monkeypatch.undo()
        assert [type(x) for x in handed] == [tuple, CertificateError, tuple]
        assert str(handed[1]) == str(fresh[1])
        for (report, p), (want, p_want) in zip(handed[::2], fresh[::2]):
            assert report.to_json_dict() == want.to_json_dict()
            assert np.array_equal(p, p_want)

    def test_batch_d2(self, solved_2d):
        # the perturbed-quadratic coupling inverts its gradient chain by chain
        _, nn, V, cert, _ = solved_2d
        params = [SolveParams(lam=lam, rho=list(rho), window=40)
                  for lam, rho in ((40.0, (0.41, 0.53)), (30.0, (0.2, 0.7)),
                                   (60.0, (-0.5, 0.3)))]
        chains = [u for u, _ in ContractionSolver(nn, V, cert, params).solve()]
        assert self._stack_against_alone(
            chains, nn, V, [p.lam for p in params], cert, horizon=8) == ["pass"] * 3


class TestMomentum:
    def test_zero_configuration(self, nn_module, cos_potential_module):
        u = homomorphism_configuration(as_rotation(0.0), Window(6, 1))
        assert np.abs(momentum(u, nn_module, cos_potential_module, 20.0)).max() == 0.0

    def test_pi_rotation(self, nn_module, cos_potential_module):
        u = homomorphism_configuration(as_rotation(np.pi), Window(6, 1))
        p = momentum(u, nn_module, cos_potential_module, 17.0)
        assert np.abs(p - np.pi).max() < 1e-12

    def test_equilibrium_momentum_is_backward_difference(self, solved, nn_module,
                                                         cos_potential_module):
        u, _, params = solved
        p = momentum(u, nn_module, cos_potential_module, params.lam)
        ext = u.extended(1)
        back_diff = ext[1:-1] - ext[:-2]
        assert np.abs(p - back_diff).max() < 1e-9


class TestTwistMap:
    def test_fixed_point_at_origin(self, nn_module, cos_potential_module):
        y, pn = twist_map_step(
            np.array([0.0]), np.array([0.0]), nn_module, cos_potential_module, 20.0
        )
        assert y[0] == 0.0
        assert pn[0] == 0.0

    def test_strong_kick(self, nn_module, cos_potential_module):
        y, pn = twist_map_step(
            np.array([np.pi / 2]), np.array([0.0]), nn_module,
            cos_potential_module, 20.0,
        )
        assert y[0] == pytest.approx(np.pi / 2 - 20.0, abs=1e-12)
        assert pn[0] == pytest.approx(-20.0, abs=1e-12)

    def test_non_quadratic_plugback(self, cos_potential_module, rng):
        nn = NearestNeighborInteraction(PerturbedQuadraticCoupling(0.2))
        lam = 5.0
        for _ in range(20):
            x = rng.uniform(-3, 3, size=1)
            p = rng.uniform(-3, 3, size=1)
            y, pn = twist_map_step(x, p, nn, cos_potential_module, lam)
            gv = cos_potential_module.gradient(x).reshape(1)
            # generating relations of the step
            lhs = nn.coupling.gradient((x - y)[None, :]).reshape(1)
            assert np.abs(lhs + p + lam * gv).max() < 1e-11
            assert np.abs(pn - p - lam * gv).max() < 1e-14

    def test_batched_matches_scalar(self, nn_module, cos_potential_module, rng):
        xs = rng.uniform(-2, 2, size=(5, 1))
        ps = rng.uniform(-2, 2, size=(5, 1))
        ys, pns = twist_map_step(xs, ps, nn_module, cos_potential_module, 20.0)
        for k in range(5):
            y, pn = twist_map_step(xs[k], ps[k], nn_module, cos_potential_module, 20.0)
            assert ys[k, 0] == pytest.approx(y[0])
            assert pns[k, 0] == pytest.approx(pn[0])

    def test_unreachable_target_raises_convexity_error(self, cos_potential_module):
        class ExpCoupling:
            convexity_bounds = (1.0, float(np.e))

            def gradient(self, w):
                return np.exp(w)

            def hessian(self, w):
                w = np.atleast_2d(w)
                return np.exp(w)[..., None]

        nn = NearestNeighborInteraction(ExpCoupling())
        with pytest.raises(ConvexityError):
            twist_map_step(
                np.array([0.0]), np.array([5.0]), nn, cos_potential_module, 0.001
            )


class TestLegendre:
    def test_bounds_quadratic(self):
        lo_map, inv_map = legendre_bounds(QuadraticCoupling())
        assert lo_map == pytest.approx(np.sqrt(5.0))
        assert inv_map == pytest.approx(np.sqrt(5.0))

    def test_bounds_perturbed(self):
        c = PerturbedQuadraticCoupling(0.3)
        eps, big = c.convexity_bounds
        fwd, bwd = legendre_bounds(c)
        assert fwd == pytest.approx(np.sqrt(1 + 4 * big**2))
        assert bwd == pytest.approx(np.sqrt(1 + 4 / eps**2))

    def test_jacobian_obeys_bound(self, rng):
        c = PerturbedQuadraticCoupling(0.3)
        fwd, _ = legendre_bounds(c)
        for _ in range(30):
            z = rng.uniform(-2, 2, size=2)

            def pair_map(v):  # (x, y) -> (y, -grad I(x - y))
                return np.concatenate([v[1:], -c.gradient(v[:1] - v[1:])])

            J = fd_jacobian(pair_map, z, h=1e-6)
            sigma = np.linalg.svd(J, compute_uv=False).max()
            assert sigma <= fwd * (1 + 1e-4)


class TestVerifyOrbit:
    def test_zero_orbit(self, nn_module, cos_potential_module):
        u = homomorphism_configuration(as_rotation(0.0), Window(6, 1))
        p = momentum(u, nn_module, cos_potential_module, 20.0)
        assert verify_orbit(u, p, nn_module, cos_potential_module, 20.0) == 0.0

    def test_pi_rotation_orbit(self, nn_module, cos_potential_module):
        u = homomorphism_configuration(as_rotation(np.pi), Window(6, 1))
        p = momentum(u, nn_module, cos_potential_module, 17.0)
        assert verify_orbit(u, p, nn_module, cos_potential_module, 17.0) <= 1e-12

    def test_solved_orbit_within_threshold(self, solved, nn_module,
                                           cos_potential_module):
        u, rep, params = solved
        p = momentum(u, nn_module, cos_potential_module, params.lam)
        dev = verify_orbit(u, p, nn_module, cos_potential_module, params.lam)
        sup_hess = cos_potential_module.hessian_sup_bound()
        assert dev <= params.tol * (1.0 + params.lam * sup_hess) * 10.0


class TestCertificateAggregate:
    def test_all_pass_and_serialization(self, solved, nn_module,
                                        cos_potential_module, cos_cert_module):
        import json

        u, _, params = solved
        verdict = verify_cone_conditions(
            u, nn_module, cos_potential_module, params.lam, cos_cert_module
        )
        split = cone_splitting(u, nn_module, cos_potential_module, params.lam)
        p = momentum(u, nn_module, cos_potential_module, params.lam)
        dev = verify_orbit(u, p, nn_module, cos_potential_module, params.lam)
        cert = HyperbolicityCertificate(
            lam=params.lam,
            cone=verdict.cone,
            verdict=verdict,
            splitting=split,
            legendre_sigma_bounds=legendre_bounds(nn_module.coupling),
            orbit_deviation=dev,
        )
        assert cert.all_pass
        blob = json.loads(json.dumps(cert.to_json_dict()))
        assert blob["all_pass"] is True
        assert blob["cone"]["mu"] == pytest.approx(MU)
        assert blob["splitting"]["min_angle"] > 0

    def test_failing_verdict_fails_certificate(self, nn_module,
                                               cos_potential_module,
                                               cos_cert_module):
        u = homomorphism_configuration(as_rotation(0.0), Window(8, 1))
        verdict = verify_cone_conditions(
            u, nn_module, cos_potential_module, 0.1, cos_cert_module
        )
        cert = HyperbolicityCertificate(
            lam=0.1, cone=verdict.cone, verdict=verdict
        )
        assert not cert.all_pass


class TestOrbitCsv:
    def test_columns_and_roundtrip(self, solved, nn_module, cos_potential_module,
                                   tmp_path):
        u, _, params = solved
        p = momentum(u, nn_module, cos_potential_module, params.lam)
        path = tmp_path / "orbit.csv"
        orbit_to_csv(path, u, p)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "site,u_0,p_0"
        assert len(lines) == 1 + len(u.values)
        first = lines[1].split(",")
        assert int(first[0]) == -24
        assert float(first[1]) == u.values[0, 0]
