from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from antifk import (
    AubryCertificate,
    CertificateError,
    ContractionSolver,
    ConvergenceError,
    DomainError,
    FiniteZeroSet,
    LongRangeInteraction,
    NearestNeighborInteraction,
    PerturbedQuadraticCoupling,
    PeriodicZeroSet,
    SolveParams,
    TrigSumPotential,
    Window,
    anchor_configuration,
    as_rotation,
    ext_distance,
    homomorphism_configuration,
    lambda_threshold,
    local_inverse,
    residual,
    solve_equilibrium,
    stack_chains,
    translate,
    uniqueness_check,
)
from antifk.solver import _cyclic_reduction

from oracles import fd_gradient, newton_solve_config

LAMBDA0_COS = 12.0 * np.sqrt(2.0)


def make_params(lam=20.0, rho=1.0, n=16, **kw):
    return SolveParams(lam=lam, rho=rho, window=n, **kw)


class TestSolveParams:
    def test_window_coercion(self):
        p = make_params(n=12)
        assert p.window == Window(12, 1)
        assert p.window.half_width == 12

    def test_window_object_accepted(self):
        p = SolveParams(lam=20.0, rho=1.0, window=Window(8, 1))
        assert p.window.half_width == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            SolveParams(lam=0.0, rho=1.0, window=8)
        with pytest.raises(ValueError):
            SolveParams(lam=20.0, rho=1.0, window=8, tol=-1.0)
        with pytest.raises(ValueError):
            SolveParams(lam=20.0, rho=1.0, window=8, max_iter=0)
        with pytest.raises(ValueError):
            SolveParams(lam=20.0, rho=1.0, window=8, tol=1e-10, inner_tol=1e-10)

    @pytest.mark.parametrize("inner_tol", [0.0, -1e300])
    def test_inner_tol_must_be_positive(self, inner_tol):
        with pytest.raises(ValueError, match="inner_tol must be positive"):
            make_params(inner_tol=inner_tol)

    def test_inner_tol_scales_with_coupling(self):
        weak = make_params(lam=5.0, tol=1e-10)
        strong = make_params(lam=2000.0, tol=1e-10)
        assert weak.inner_tol == pytest.approx(1e-12)
        assert strong.inner_tol == pytest.approx(1e-10 / (100 * 200))


class TestLambdaThreshold:
    def test_cosine_quadratic_closed_form(self, nn_interaction, cos_cert):
        lam0 = lambda_threshold(nn_interaction, 0.0, cos_cert)
        assert lam0 == pytest.approx(LAMBDA0_COS, abs=1e-12)
        # K is rotation-independent for the quadratic coupling
        assert lambda_threshold(nn_interaction, 2.5, cos_cert) == pytest.approx(
            LAMBDA0_COS, abs=1e-12
        )

    def test_long_range_cubic(self, cos_cert):
        lam0 = lambda_threshold(LongRangeInteraction(), 0.0, cos_cert)
        assert lam0 == pytest.approx(121.5 * np.sqrt(2.0) * np.pi**2, rel=1e-9)
        assert lam0 == pytest.approx(1695.9, abs=0.1)

    def test_null_interaction_gives_zero(self, cos_cert):
        null = LongRangeInteraction(weights={1: 0.0}, power=3)
        assert lambda_threshold(null, 1.0, cos_cert) == 0.0


class TestPhiStep:
    def test_anchors_derived_from_tail(self, nn_interaction, cos_potential, cos_cert):
        # the solver's anchors come from params.rho, the rotation of u's tail
        u = homomorphism_configuration(as_rotation(1.0), Window(10, 1))
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert,
                                   [make_params(lam=20.0, rho=1.0, n=10)])
        out = solver.phi_step(stack_chains([u]))[0].chain(0)
        a = anchor_configuration(
            as_rotation(1.0), cos_cert.sampler, cos_cert.covering_radius, u.window
        )
        drift = np.abs(out.values - a.values).max()
        assert drift <= cos_cert.ball_radius + 1e-12

    def test_contraction_factor_sampled(self, nn_interaction, cos_potential,
                                        cos_cert, rng):
        # within the tube, one sweep contracts distances by at least
        # r / (r + R) once lam is above the threshold
        r = cos_cert.ball_radius
        q = r / (r + cos_cert.covering_radius)
        lam = LAMBDA0_COS * 1.0001
        a = anchor_configuration(
            as_rotation(1.0), cos_cert.sampler, cos_cert.covering_radius,
            Window(10, 1),
        )
        solver = ContractionSolver(
            nn_interaction, cos_potential, cos_cert,
            [make_params(lam=lam, rho=1.0, n=10, inner_tol=1e-14)],
            anchors=stack_chains([a]),
        )
        for _ in range(25):
            u = a.with_values(a.values + rng.uniform(-r, r, size=a.values.shape))
            v = a.with_values(a.values + rng.uniform(-r, r, size=a.values.shape))
            fu = solver.phi_step(stack_chains([u]))[0].chain(0)
            fv = solver.phi_step(stack_chains([v]))[0].chain(0)
            assert ext_distance(fu, fv) <= q * ext_distance(u, v) * (1 + 1e-6) + 1e-12

    def test_domain_error_when_coupling_too_weak(self, nn_interaction,
                                                 cos_potential, cos_cert):
        a = anchor_configuration(
            as_rotation(1.0), cos_cert.sampler, cos_cert.covering_radius,
            Window(8, 1),
        )
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert,
                                   [make_params(lam=0.5, rho=1.0, n=8)])
        # the case stops in place: it keeps its chain and records its error
        out, _ = solver.phi_step(stack_chains([a]))
        assert out.values.shape == (17, 1, 1)
        assert out.chain(0).values.tobytes() == a.values.tobytes()
        assert isinstance(solver.failures[0], DomainError)
        assert solver.failures[0].site is not None

    @pytest.mark.parametrize("cases", [1, 2])
    def test_domain_error_when_coupling_too_weak_d2(self, cases):
        # every case of the step fails its domain check, so its local
        # inverse has no rows
        nn, V, cert, _ = _cos2d_case()
        params = [SolveParams(lam=0.5, rho=list(rho), window=8)
                  for rho in ((0.41, 0.53), (0.2, 0.7))][:cases]
        solver = ContractionSolver(nn, V, cert, params)
        out, _ = solver.phi_step(solver.anchors)
        assert out.values.tobytes() == solver.anchors.values.tobytes()
        assert sorted(solver.failures) == list(range(cases))
        assert all(isinstance(e, DomainError) and e.site is not None
                   for e in solver.failures.values())

    @pytest.mark.parametrize("excess, admitted", [(1e-10, False), (0.0, True)])
    def test_one_admissible_radius(self, cos_potential, cos_cert, excess, admitted):
        # phi_step and local_inverse share one limit, admissible_radius: r m
        # rounded down. A Delta of -t at every site makes t the target at
        # lam = 1, exactly.
        limit = cos_cert.admissible_radius
        assert limit <= Fraction(cos_cert.ball_radius) * Fraction(cos_cert.expansion)
        t = limit * (1 + excess)

        class FixedDelta(NearestNeighborInteraction):
            def delta(self, u):
                return np.full(u.values.shape, -t)

        solver = ContractionSolver(FixedDelta(), cos_potential, cos_cert,
                                   [make_params(lam=1.0, rho=1.0, n=4)])
        solver.phi_step(solver.anchors)
        assert (0 not in solver.failures) == admitted
        if admitted:
            local_inverse(cos_potential, 0.0, t, cos_cert)
        else:
            assert isinstance(solver.failures[0], DomainError)
            with pytest.raises(DomainError):
                local_inverse(cos_potential, 0.0, t, cos_cert)

    def test_window_mismatch(self, nn_interaction, cos_potential, cos_cert):
        params = make_params(lam=20.0, rho=1.0, n=10)
        a = anchor_configuration(
            as_rotation(1.0), cos_cert.sampler, cos_cert.covering_radius,
            Window(9, 1),
        )
        with pytest.raises(ValueError):
            ContractionSolver(nn_interaction, cos_potential, cos_cert, [params],
                              anchors=stack_chains([a]))
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, [params])
        with pytest.raises(ValueError):
            solver.solve(initial=stack_chains([a]))
        with pytest.raises(ValueError):  # one chain per case
            solver.solve(initial=stack_chains([solver.anchors.chain(0)] * 2))


class TestResidual:
    def test_equilibrium_equation_is_energy_gradient(self, nn_interaction,
                                                     cos_potential, rng):
        # Delta(u) + lam grad V(u) at interior sites must match finite
        # differences of the chain energy with frozen boundary
        lam = 7.0
        n = 5
        h = homomorphism_configuration(as_rotation(0.7), Window(n, 1))
        u = h.with_values(h.values + rng.uniform(-0.3, 0.3, size=h.values.shape))
        force = nn_interaction.delta(u)[:, 0] + lam * cos_potential.gradient(
            u.values
        ).reshape(-1)
        lo = float(u.value(-n - 1)[0])
        hi = float(u.value(n + 1)[0])

        def energy(vals):
            ext = np.concatenate([[lo], vals, [hi]])
            spring = 0.5 * np.sum((ext[:-1] - ext[1:]) ** 2)
            onsite = float(np.sum(cos_potential.value(ext[1:-1][:, None])))
            return spring + lam * onsite

        g = fd_gradient(energy, u.values[:, 0], h=1e-6)
        assert np.abs(g - force).max() < 1e-6

    def test_homomorphism_residual_zero_rotation(self, nn_interaction, cos_potential):
        u = homomorphism_configuration(as_rotation(0.0), Window(8, 1))
        assert residual(u, nn_interaction, cos_potential, 17.0) == 0.0


class TestSolve:
    def test_reference_run(self, nn_interaction, cos_potential, cos_cert):
        u, rep = solve_equilibrium(
            make_params(), nn_interaction, cos_potential, cos_cert
        )
        assert rep.converged
        assert rep.final_residual <= 1e-10
        assert rep.iterations < 200
        assert rep.contraction_factor <= 1.0 / 3.0 + 0.02
        assert rep.lambda_at_least_threshold
        assert not rep.warnings

    def test_containment(self, nn_interaction, cos_potential, cos_cert):
        params = make_params()
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, [params])
        [(u, rep)] = solver.solve()
        r, R = cos_cert.ball_radius, cos_cert.covering_radius
        assert rep.distance_to_anchor <= r + 1e-12
        assert rep.distance_to_rotation <= r + R + 1e-12
        # every site individually sits within r of some anchor point
        for x in u.values:
            pts = np.atleast_2d(cos_cert.sampler.points_near(x, r * 1.001))
            assert len(pts) > 0

    def test_agrees_with_newton_oracle(self, nn_interaction, cos_potential,
                                       cos_cert):
        params = make_params(lam=25.0, rho=0.8, n=12)
        u, _ = solve_equilibrium(params, nn_interaction, cos_potential, cos_cert)
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, [params])
        vg = lambda x: -np.sin(x)
        vh = lambda x: -np.cos(x)
        ref = newton_solve_config(solver.anchors.chain(0), 25.0, vg, vh, tol=1e-13)
        assert np.abs(u.values - ref).max() < 1e-9

    def test_perturbed_start_same_fixed_point(self, nn_interaction,
                                              cos_potential, cos_cert, rng):
        params = make_params()
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, [params])
        [(u1, _)] = solver.solve()
        r = cos_cert.ball_radius
        init = solver.anchors.with_values(
            solver.anchors.values
            + rng.uniform(-r / 2, r / 2, size=solver.anchors.values.shape)
        )
        [(u2, _)] = solver.solve(initial=init)
        assert ext_distance(u1, u2) < 1e-10

    def test_below_threshold_warns_but_may_converge(self, nn_interaction,
                                                    cos_potential, cos_cert):
        u, rep = solve_equilibrium(
            make_params(lam=10.0), nn_interaction, cos_potential, cos_cert
        )
        assert rep.converged
        assert not rep.lambda_at_least_threshold
        assert any("threshold" in w for w in rep.warnings)

    def test_max_iter_exhaustion(self, cos_potential, cos_cert):
        # a long-range chain takes tube-map steps only, 18 of them at lam = 40
        lr = LongRangeInteraction(weights={1: 1.0, 2: 0.25}, power=2, cutoff=2)
        with pytest.raises(ConvergenceError) as err:
            solve_equilibrium(make_params(lam=40.0, max_iter=2), lr, cos_potential,
                              cos_cert)
        assert len(err.value.trace) == 2

    def test_rho_zero_lands_on_hom(self, nn_interaction, cos_potential, cos_cert):
        u, rep = solve_equilibrium(
            make_params(lam=17.0, rho=0.0, n=4), nn_interaction, cos_potential,
            cos_cert,
        )
        assert np.abs(u.values).max() == 0.0
        assert rep.final_residual == 0.0

    def test_report_roundtrips_to_json(self, nn_interaction, cos_potential,
                                       cos_cert):
        import json

        _, rep = solve_equilibrium(
            make_params(n=6), nn_interaction, cos_potential, cos_cert
        )
        blob = json.dumps(rep.to_json_dict())
        back = json.loads(blob)
        assert back["iterations"] == rep.iterations
        assert back["final_residual"] == rep.final_residual


class TestFloatFloor:
    # rho = 40 at half_width = 512 puts |u| near 2e4, where the float
    # spacing of u (3.6e-12) exceeds the default inner_tol (2.5e-13)

    def test_far_chain_converges(self, nn_interaction, cos_potential, cos_cert):
        params = make_params(lam=40.0, rho=40.0, n=512)
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, [params])
        [(u, rep)] = solver.solve()
        assert np.abs(u.values).max() > 2e4
        assert rep.converged and rep.final_residual <= params.tol
        ref = newton_solve_config(solver.anchors.chain(0), 40.0, lambda x: -np.sin(x),
                                  lambda x: -np.cos(x), tol=1e-9)
        assert np.abs(u.values - ref).max() < 1e-9

    def test_tol_below_floor_raises(self, nn_interaction, cos_potential, cos_cert):
        params = make_params(lam=40.0, rho=40.0, n=512, tol=1e-12)
        with pytest.raises(ConvergenceError, match="float floor") as err:
            solve_equilibrium(params, nn_interaction, cos_potential, cos_cert)
        assert len(err.value.trace) <= 20


class TestAnchoredBranches:
    def test_pi_anchored_branch(self, nn_interaction, cos_potential, cos_cert):
        # rho = 0 admits one equilibrium per anchor ball: anchoring at pi
        # instead of 0 yields the other constant solution
        w = Window(6, 1)
        hom0 = homomorphism_configuration(as_rotation(0.0), w)
        a_pi = translate(hom0, np.pi)
        params = SolveParams(lam=20.0, rho=0.0, window=w)
        u_pi, rep = solve_equilibrium(
            params, nn_interaction, cos_potential, cos_cert, anchors=a_pi
        )
        assert np.abs(u_pi.values - np.pi).max() < 1e-12
        assert rep.final_residual <= params.tol

    def test_uniqueness_same_ball(self, nn_interaction, cos_potential, cos_cert):
        params = make_params(n=8)
        u, _ = solve_equilibrium(params, nn_interaction, cos_potential, cos_cert)
        v = uniqueness_check(u, u, cos_cert)
        assert v.same_ball
        assert v.within_tolerance
        assert v.distance == 0.0

    def test_uniqueness_after_reperturbation(self, nn_interaction, cos_potential,
                                             cos_cert, rng):
        params = make_params(n=8)
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, [params])
        [(u1, _)] = solver.solve()
        r = cos_cert.ball_radius
        init = solver.anchors.with_values(
            solver.anchors.values
            + rng.uniform(-r / 2, r / 2, size=solver.anchors.values.shape)
        )
        [(u2, _)] = solver.solve(initial=init)
        v = uniqueness_check(u1, u2, cos_cert)
        assert v.same_ball
        assert v.within_tolerance

    def test_sampler_with_only_nearest(self, nn_interaction, cos_potential, cos_cert):
        # a zero-set sampler needs nothing but nearest: the report's
        # distance to the rotation and the uniqueness check probe tails
        # through it, and agree with the library's own sampler
        class NearestOnly:
            def __init__(self, inner):
                self.inner = inner

            def nearest(self, xs, radius):
                return self.inner.nearest(xs, radius)

        cert = AubryCertificate(NearestOnly(cos_cert.sampler), cos_cert.covering_radius,
                                cos_cert.ball_radius, cos_cert.expansion)
        params = make_params(lam=40.0, rho=0.618, n=32)
        u, rep = solve_equilibrium(params, nn_interaction, cos_potential, cert)
        v, ref = solve_equilibrium(params, nn_interaction, cos_potential, cos_cert)
        assert u.values.tobytes() == v.values.tobytes()
        assert rep.distance_to_rotation > 0.0
        assert rep.to_json_dict() == ref.to_json_dict()
        u2, _ = solve_equilibrium(params, nn_interaction, cos_potential, cert)
        verdict = uniqueness_check(u, u2, cert)
        assert verdict.same_ball and verdict.distance == 0.0
        assert verdict == uniqueness_check(v, v, cos_cert)

    def test_uniqueness_distinguishes_balls(self, nn_interaction, cos_potential,
                                            cos_cert):
        w = Window(6, 1)
        hom0 = homomorphism_configuration(as_rotation(0.0), w)
        params = SolveParams(lam=20.0, rho=0.0, window=w)
        u0, _ = solve_equilibrium(params, nn_interaction, cos_potential, cos_cert)
        u_pi, _ = solve_equilibrium(
            params, nn_interaction, cos_potential, cos_cert,
            anchors=translate(hom0, np.pi),
        )
        v = uniqueness_check(u0, u_pi, cos_cert)
        assert not v.same_ball
        assert v.within_tolerance is None
        assert v.distance == pytest.approx(np.pi)

    @pytest.mark.parametrize("d", [1, 2])
    def test_uniqueness_matches_per_site_lookup(self, d, cos_cert, rng):
        # random pairs around the zeros pi Z^d, some sites pushed past the
        # ball radius or into a neighbouring ball: one nearest lookup of
        # the midpoints gives the per-site reference's verdict every time
        cert = cos_cert
        if d == 2:
            axis = np.pi * np.arange(-12, 13)
            cert = AubryCertificate(
                FiniteZeroSet(np.array([[x, y] for x in axis for y in axis]),
                              -35.0, 35.0),
                np.pi / np.sqrt(2), np.pi / 4, np.cos(np.pi / 4))
        w, r = Window(3, d), cert.ball_radius
        base = homomorphism_configuration(np.zeros(d), w)
        verdicts = []
        for _ in range(300):
            zeros = np.pi * rng.integers(-8, 9, size=(w.n_sites, d))
            moved = zeros + np.pi * (rng.uniform(size=(w.n_sites, 1)) < 0.03)
            values = []
            for z in (zeros, moved):
                step = rng.normal(size=z.shape)
                step *= (rng.uniform(0.0, rng.uniform(0.8, 1.1) * r, size=(len(z), 1))
                         / np.linalg.norm(step, axis=1, keepdims=True))
                values.append(base.with_values(z + step))
            got = uniqueness_check(*values, cert).same_ball
            assert got == _same_ball_by_site(*values, cert)
            verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)


def _same_ball_by_site(u, u2, cert) -> bool:
    """uniqueness_check's verdict by one points_near lookup per site, the
    reference for its one nearest lookup."""
    r = cert.ball_radius
    slack = r * (1 + 1e-9) + 1e-12
    for a, b in zip(u.values, u2.values):
        mid = 0.5 * (a + b)
        pts = np.atleast_2d(cert.sampler.points_near(mid, r * (1 + 1e-9) + 1e-12))
        if pts.size == 0:
            return False
        da = np.linalg.norm(pts - a, axis=1)
        db = np.linalg.norm(pts - b, axis=1)
        if not ((da <= slack) & (db <= slack)).any():
            return False
    return True


class TestStoppingRule:
    def test_a_posteriori_bound(self, nn_interaction, cos_potential, cos_cert):
        # the last recorded step obeys delta <= tol (1 - q) / q
        params = make_params(tol=1e-8)
        _, rep = solve_equilibrium(params, nn_interaction, cos_potential, cos_cert)
        r, R = cos_cert.ball_radius, cos_cert.covering_radius
        q = r / (r + R)
        assert rep.step_distances[-1] <= params.tol * (1 - q) / q
        assert rep.final_residual <= params.tol


def _dense(lower, diag, upper):
    """The block-tridiagonal matrix with block rows lower_i, diag_i,
    upper_i, written out in full."""
    n, d = diag.shape[0], diag.shape[-1]
    M = np.zeros((n * d, n * d))
    for i in range(n):
        M[i * d:(i + 1) * d, i * d:(i + 1) * d] = diag[i]
        if i > 0:
            M[i * d:(i + 1) * d, (i - 1) * d:i * d] = lower[i]
        if i < n - 1:
            M[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = upper[i]
    return M


class _TubeMapOnly(ContractionSolver):
    """The solver with the Newton phase switched off."""

    def newton_polish(self, u, cases=None, derivatives=None, start=None):
        chains = u.values.shape[1]
        return u, [[] for _ in range(chains)], [False] * chains, derivatives


def _cos2d_case(rho=(0.41, 0.53), n=40):
    """cos x + cos y on the zero set pi Z^2 (R = pi/sqrt(2), r = pi/4,
    m = cos(pi/4)) with the perturbed-quadratic coupling at lam = 40."""
    axis = np.pi * np.arange(-12, 13)
    zeros = FiniteZeroSet(np.array([[x, y] for x in axis for y in axis]),
                          -35.0, 35.0)
    cert = AubryCertificate(zeros, np.pi / np.sqrt(2), np.pi / 4,
                            np.cos(np.pi / 4))
    V = TrigSumPotential([(1.0, [1.0, 0.0], 0.0), (1.0, [0.0, 1.0], 0.0)])
    nn = NearestNeighborInteraction(PerturbedQuadraticCoupling(0.1))
    return nn, V, cert, SolveParams(lam=40.0, rho=list(rho), window=n)


class TestNewtonPolish:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 31, 32, 33, 513])
    def test_cyclic_reduction_matches_dense(self, n, d, rng):
        lower, upper = rng.standard_normal((2, n, d, d))
        # diagonally dominant, as the equilibrium Jacobian is
        diag = rng.standard_normal((n, d, d)) + 4 * d * np.eye(d)
        rhs = rng.standard_normal((n, d))
        x = _cyclic_reduction(lower, diag, upper, rhs)
        ref = np.linalg.solve(_dense(lower, diag, upper), rhs.ravel())
        assert x.shape == (n, d)
        assert np.abs(x.ravel() - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_polish_takes_quadratic_steps(self, nn_interaction, cos_potential,
                                          cos_cert):
        params = make_params(lam=40.0, rho=0.618, n=256)
        u, rep = solve_equilibrium(params, nn_interaction, cos_potential,
                                   cos_cert)
        # Newton from the anchors (h <= 1/2), then the closing step
        assert rep.kantorovich_h <= 0.5
        assert rep.iterations == 1 and not rep.newton_fallback
        assert 1 <= len(rep.newton_steps) <= 3
        assert rep.newton_steps[-1] <= params.tol
        assert rep.final_residual <= params.tol
        blob = rep.to_json_dict()
        assert blob["newton_steps"] == rep.newton_steps
        assert blob["newton_fallback"] is False

    @pytest.mark.parametrize("bad_step", ["out-of-tube", "residual-raising"])
    def test_discarded_step_falls_back_to_the_tube_map(
            self, bad_step, nn_interaction, cos_potential, cos_cert,
            monkeypatch):
        from antifk import solver as solver_module

        newton = solver_module._cyclic_reduction

        def bad(lower, diag, upper, rhs):
            if bad_step == "out-of-tube":
                return np.full_like(rhs, 10.0 * cos_cert.ball_radius)
            return -newton(lower, diag, upper, rhs)  # doubles the error

        params = make_params(lam=40.0, rho=0.618, n=64)
        ref, ref_rep = solve_equilibrium(params, nn_interaction,
                                         cos_potential, cos_cert)
        monkeypatch.setattr(solver_module, "_cyclic_reduction", bad)
        u, rep = solve_equilibrium(params, nn_interaction, cos_potential,
                                   cos_cert)
        assert rep.newton_fallback and rep.newton_steps == []
        assert rep.converged and rep.final_residual <= params.tol
        assert rep.iterations > ref_rep.iterations
        assert np.abs(u.values - ref.values).max() < 1e-11

    def test_d1_matches_tube_map_only(self, nn_interaction, cos_potential,
                                      cos_cert):
        params = make_params(lam=40.0, rho=0.618, n=512)
        [(u, rep)] = ContractionSolver(nn_interaction, cos_potential, cos_cert,
                                       [params]).solve()
        [(v, vrep)] = _TubeMapOnly(nn_interaction, cos_potential, cos_cert,
                                   [params]).solve()
        assert rep.iterations < vrep.iterations and vrep.newton_steps == []
        assert np.abs(u.values - v.values).max() <= 1e-11

    def test_d2_matches_tube_map_only(self):
        nn, V, cert, params = _cos2d_case()
        [(u, rep)] = ContractionSolver(nn, V, cert, [params]).solve()
        [(v, vrep)] = _TubeMapOnly(nn, V, cert, [params]).solve()
        assert rep.newton_steps and not rep.newton_fallback
        assert rep.final_residual <= params.tol
        assert np.abs(u.values - v.values).max() <= 1e-11

    def test_long_range_takes_no_newton_steps(self, cos_potential, cos_cert):
        lr = LongRangeInteraction(weights={1: 1.0, 2: 0.25}, power=2, cutoff=2)
        params = make_params(lam=40.0, rho=0.618, n=64)
        u, rep = solve_equilibrium(params, lr, cos_potential, cos_cert)
        assert rep.converged and rep.final_residual <= params.tol
        assert rep.newton_steps == [] and not rep.newton_fallback
        assert rep.iterations > 3

    def test_warm_start_from_the_ball_edge(self, nn_interaction,
                                           cos_potential, cos_cert, rng):
        # every site of the start sits on its anchor ball's edge
        params = make_params(lam=40.0, rho=0.618, n=128)
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert,
                                   [params])
        [(u1, _)] = solver.solve()
        a = solver.anchors
        signs = rng.choice((-1.0, 1.0), size=a.values.shape)
        edge = a.with_values(a.values + cos_cert.ball_radius * signs)
        [(u2, rep)] = solver.solve(initial=edge)
        assert rep.converged and not rep.newton_fallback
        assert np.abs(u2.values - u1.values).max() < 1e-11


def _alone(params, interaction, V, cert):
    """solve_equilibrium's outcome: (configuration, report) or its error."""
    try:
        return solve_equilibrium(params, interaction, V, cert)
    except (CertificateError, ConvergenceError, DomainError) as exc:
        return exc


def _assert_batch_matches_alone(interaction, V, cert, params, size):
    """Each case solved in stacked batches of size cases equals its solve
    alone bit for bit: chain, tail, every report field, or the error."""
    got = []
    for lo in range(0, len(params), size):
        got += ContractionSolver(interaction, V, cert, params[lo:lo + size]).solve()
    statuses = []
    for p, outcome in zip(params, got):
        expect = _alone(p, interaction, V, cert)
        if isinstance(expect, Exception):
            assert type(outcome) is type(expect) and str(outcome) == str(expect)
            statuses.append(type(expect).__name__)
            continue
        (u, rep), (v, vrep) = outcome, expect
        assert u.values.shape == v.values.shape and u.values.flags.c_contiguous
        assert u.values.tobytes() == v.values.tobytes()
        assert u.tail.rotation.rho.tobytes() == v.tail.rotation.rho.tobytes()
        assert u.tail.sampler is v.tail.sampler and u.tail.radius == v.tail.radius
        assert repr(rep.to_json_dict()) == repr(vrep.to_json_dict())
        statuses.append("ok")
    return statuses


class _CountingSampler:
    """A zero-set sampler that records each nearest query."""

    def __init__(self, inner):
        self.inner, self.queries = inner, []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def nearest(self, xs, radius):
        self.queries.append(np.array(xs))
        return self.inner.nearest(xs, radius)


def _spy_steps(monkeypatch):
    """The (method, case ids) of every phi_step and newton_polish call."""
    calls = []
    for name in ("phi_step", "newton_polish"):
        def spy(solver, u, cases=None, *args, method=getattr(ContractionSolver, name),
                name=name):
            calls.append((name, sorted(solver._cases(cases))))
            return method(solver, u, cases, *args)
        monkeypatch.setattr(ContractionSolver, name, spy)
    return calls


def _grid(lams, rhos, n, **kw):
    return [SolveParams(lam=lam, rho=rho, window=n, **kw)
            for lam in lams for rho in rhos]


def _probe_by_halves(a, b, probe, worst):
    """Reference for lattice._prefix_probe: per side, bisect over prefix
    lengths k for the longest probe prefix on which both tails produce
    values, each try one lookup per tail."""
    for sites in (probe, -probe):
        good, bad, k = 0, len(probe) + 1, len(probe)
        while bad - good > 1:
            try:
                diff = a.values(sites[:k]) - b.values(sites[:k])
                good, worst = k, max(worst, float(np.sqrt(np.vecdot(diff, diff)).max()))
            except CertificateError:
                bad = k
            k = (good + bad) // 2
    return worst


class TestStackedSolve:
    """A batch (a list of SolveParams) solves its cases as stacked chains;
    every case must equal its solve alone (K = 1) bit for bit."""

    @pytest.mark.parametrize("size", [1, 5, 12])
    def test_cosine_periodic(self, size, nn_interaction, cos_potential, cos_cert):
        params = _grid((20.0, 40.0, 60.0), (0.3, 0.618, 1.7, 2.9), 64)
        statuses = _assert_batch_matches_alone(
            nn_interaction, cos_potential, cos_cert, params, size)
        assert statuses == ["ok"] * 12

    def test_almost_periodic_finite_certificate(self):
        from antifk import estimate_aubry, truncated_almost_periodic

        V = truncated_almost_periodic(8, 0.5)
        cert = estimate_aubry(V, (-60.0, 60.0))
        nn = NearestNeighborInteraction()
        # the zero set's box is [-59.7, 59.7]: at rho = 3 the window leaves
        # it (no anchors), at rho = 2.45 only the halo sites +-25 do; lam =
        # 5 is too weak for the certificate
        assert 2.45 * 24 < cert.sampler.hi[0] < 2.45 * 25
        params = _grid((5.0, 24.0, 64.0), (0.13, 0.41, 3.0, 2.45), 24)
        statuses = _assert_batch_matches_alone(nn, V, cert, params, 7)
        assert statuses == ["DomainError"] * 2 + ["CertificateError"] * 2 + (
            ["ok"] * 2 + ["CertificateError"] * 2) * 2

    def test_long_range_without_newton(self, monkeypatch, cos_potential, cos_cert):
        lr = LongRangeInteraction(weights={1: 1.0, 2: 0.25}, power=2, cutoff=2)
        # lam = 40 needs 18 steps, beyond max_iter; lam = 25 is too weak
        params = _grid((25.0, 40.0, 80.0, 200.0), (0.3, 0.618, 1.3), 32,
                       max_iter=15)
        statuses = _assert_batch_matches_alone(lr, cos_potential, cos_cert,
                                               params, 5)
        assert statuses == ["DomainError"] * 3 + ["ConvergenceError"] * 3 + ["ok"] * 6
        calls = _spy_steps(monkeypatch)  # no newton_polish call
        outcomes = ContractionSolver(lr, cos_potential, cos_cert, params[6:]).solve()
        assert all(rep.newton_steps == [] for _, rep in outcomes)
        assert calls and {name for name, _ in calls} == {"phi_step"}

    def test_local_inverse_failure_maps_to_its_case(self, nn_interaction,
                                                    cos_potential):
        # an expansion m = 0.99 above the true 0.707 admits targets in
        # (sin(pi/4), r m] that have no root in the ball: at lam = 4.2 the
        # local inverse fails on some row, at lam = 3 the domain check
        cert = AubryCertificate(PeriodicZeroSet([0.0], np.pi), np.pi / 2,
                                np.pi / 4, 0.99)
        cases = [(40.0, 0.3), (3.0, 0.3), (4.2, 0.618), (40.0, 0.618),
                 (4.2, 0.3), (11.0, 0.7)]
        params = [SolveParams(lam=lam, rho=rho, window=16) for lam, rho in cases]
        statuses = _assert_batch_matches_alone(nn_interaction, cos_potential,
                                               cert, params, 6)
        assert statuses == ["ok", "DomainError", "ConvergenceError", "ok",
                            "ConvergenceError", "ok"]
        solver = ContractionSolver(nn_interaction, cos_potential, cert, params)
        solver.solve()
        assert sorted(solver.failures) == [1, 2, 4]
        assert "row 3: no root" in str(solver.failures[2])
        assert solver.failures[2].row == 3

    def test_repeated_case_fails_like_its_twin(self, nn_interaction, cos_potential):
        # cases 1 and 2 are one case twice: the stacked local inverse solves
        # their rows once, names the first chain's row and, run again
        # without it, the second's
        cert = AubryCertificate(PeriodicZeroSet([0.0], np.pi), np.pi / 2,
                                np.pi / 4, 0.99)
        params = _grid((40.0, 4.2, 4.2), (0.618,), 16) + _grid((11.0,), (0.3,), 16)
        statuses = _assert_batch_matches_alone(nn_interaction, cos_potential,
                                               cert, params, 4)
        assert statuses == ["ok", "ConvergenceError", "ConvergenceError", "ok"]
        solver = ContractionSolver(nn_interaction, cos_potential, cert, params)
        solver.solve()
        assert sorted(solver.failures) == [1, 2]
        assert all(solver.failures[c].row == 3 for c in (1, 2))

    def test_sweep_grid_at_one_lam(self, monkeypatch):
        # the sweep benchmark's rhos at one lam; the last case repeats rho =
        # 0.3 at another inner_tol. Every case is proved (h <= 1/2), so the
        # batch's one tube-map step, the closing one, serves its six chains
        # in one local-inverse call, and each case alone takes one call
        from antifk import estimate_aubry, truncated_almost_periodic
        from antifk import solver as solver_module

        V = truncated_almost_periodic(8, 0.5)
        cert = estimate_aubry(V, (-200.0, 200.0))
        params = _grid((24.0,), (0.1, 0.2, 0.3, 0.4, 0.5), 256) + _grid(
            (24.0,), (0.3,), 256, inner_tol=1e-13)
        rows, inverse = [], solver_module.local_inverse_batch

        def spy(V, centers, *args, **kwargs):
            rows.append(len(centers))
            return inverse(V, centers, *args, **kwargs)

        monkeypatch.setattr(solver_module, "local_inverse_batch", spy)
        statuses = _assert_batch_matches_alone(
            NearestNeighborInteraction(), V, cert, params, len(params))
        assert statuses == ["ok"] * 6
        assert rows == [6 * 513] + [513] * 6

    def test_local_inverse_failure_on_handed_values(self, nn_interaction,
                                                    cos_potential):
        # with the overstated expansion above, lam = 5 fails in the second
        # step's local inverse, which starts from the values the first step
        # handed on; the step runs again without the failed case on the
        # same values, which the failed call only read
        cert = AubryCertificate(PeriodicZeroSet([0.0], np.pi), np.pi / 2,
                                np.pi / 4, 0.99)
        params = _grid((40.0, 5.0, 11.0), (0.3, 0.618), 16)
        solver = ContractionSolver(nn_interaction, cos_potential, cert, params)
        u, derivatives = solver.phi_step(solver.anchors)
        kept = [x.tobytes() for x in derivatives]
        solver.phi_step(u, None, derivatives)
        assert sorted(solver.failures) == [2, 3]
        assert all(isinstance(solver.failures[c], ConvergenceError) for c in (2, 3))
        assert [x.tobytes() for x in derivatives] == kept
        statuses = _assert_batch_matches_alone(nn_interaction, cos_potential,
                                               cert, params, 6)
        assert statuses == ["ok", "ok", "ConvergenceError", "ConvergenceError",
                            "ok", "ok"]

    def test_steps_serve_every_case_after_a_solve(self, nn_interaction,
                                                  cos_potential, cos_cert):
        # a solve stops its cases in place as they finish or fail; by
        # default phi_step and newton_polish serve every case
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert,
                                   [make_params(lam=40.0, n=8)])
        [(u, _)] = solver.solve()
        assert solver.phi_step(solver.anchors)[0].values.shape == (17, 1, 1)
        weak = ContractionSolver(nn_interaction, cos_potential, cos_cert,
                                 [make_params(lam=0.5, n=8)])
        for _ in range(2):
            assert isinstance(weak.solve()[0], DomainError)
        batch = ContractionSolver(nn_interaction, cos_potential, cos_cert,
                                  [make_params(lam=lam, n=8) for lam in (0.5, 40.0)])
        assert isinstance(batch.solve()[0], DomainError)
        assert batch._cases(None) == [0, 1] and list(batch.failures) == [0]
        assert batch.newton_polish(batch.anchors)[0].values.shape == (17, 2, 1)

    def test_newton_discards_some_chains(self, nn_interaction, cos_potential,
                                         cos_cert, monkeypatch):
        # a step that raises the residual for the chains whose force is
        # positive at the first site: a rule each chain meets alone as in a
        # batch (a sum over sites would round by the stack's layout)
        from antifk import solver as solver_module

        newton = solver_module._cyclic_reduction

        def bad(lower, diag, upper, rhs):
            step = newton(lower, diag, upper, rhs)
            step[:, rhs[0, :, 0] > 0] *= -1
            return step

        monkeypatch.setattr(solver_module, "_cyclic_reduction", bad)
        params = _grid((30.0, 50.0), (0.3, 0.618, 1.1, 2.2), 40)
        statuses = _assert_batch_matches_alone(
            nn_interaction, cos_potential, cos_cert, params, 8)
        assert statuses == ["ok"] * 8
        fell = [rep.newton_fallback for _, rep in ContractionSolver(
            nn_interaction, cos_potential, cos_cert, params).solve()]
        assert any(fell) and not all(fell)
        # the polish hands on grad V and hess V at the chains it returns: a
        # discarded step's chain keeps its kept chain's values, bit for bit
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, params)
        u, derivatives = solver.phi_step(solver.anchors)
        u, derivatives = solver.phi_step(u, None, derivatives)
        kept = [x.copy() for x in derivatives]
        v, history, fell, (grad, hess) = solver.newton_polish(u, None, derivatives)
        first = [c for c in range(len(params)) if fell[c] and not history[c]]
        assert any(fell) and first and not all(fell)
        for c in range(len(params)):
            x = v.values[:, c]
            assert grad[:, c].tobytes() == cos_potential.gradient(x).tobytes()
            assert hess[:, c].tobytes() == cos_potential.hessian(x).tobytes()
        for c in first:  # discarded at the first step: the values handed in
            assert v.values[:, c].tobytes() == u.values[:, c].tobytes()
            assert grad[:, c].tobytes() == kept[0][:, c].tobytes()
            assert hess[:, c].tobytes() == kept[1][:, c].tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(kept, derivatives))

    @pytest.mark.parametrize("size", [1, 4])
    def test_stalled_case_in_a_batch(self, size, nn_interaction,
                                     cos_potential, cos_cert):
        # rho = 40 at half_width = 1024 puts |u| near 4e4, where the
        # residual stalls above tol at the chain's float floor; the other
        # cases run on past its stop
        params = _grid((40.0,), (0.618, 40.0, 20.0, 1.3), 1024)
        statuses = _assert_batch_matches_alone(
            nn_interaction, cos_potential, cos_cert, params, size)
        assert statuses == ["ok", "ConvergenceError", "ok", "ok"]
        assert "residual stalled" in str(
            _alone(params[1], nn_interaction, cos_potential, cos_cert))

    def test_d2_batch(self):
        nn, V, cert, _ = _cos2d_case()
        params = [SolveParams(lam=lam, rho=list(rho), window=40)
                  for lam in (30.0, 40.0) for rho in ((0.41, 0.53), (0.2, 0.7))]
        assert _assert_batch_matches_alone(nn, V, cert, params, 4) == ["ok"] * 4

    def test_singular_block_fails_only_its_chain(self, rng):
        n, d, K = 33, 2, 3
        lower, upper = rng.standard_normal((2, n, K, d, d))
        diag = rng.standard_normal((n, K, d, d)) + 4 * d * np.eye(d)
        diag[5, 1] = 0.0  # chain 1 meets a singular block
        rhs = rng.standard_normal((n, K, d))
        step = _cyclic_reduction(lower, diag, upper, rhs)
        assert not np.isfinite(step[:, 1]).any()
        for k in (0, 2):
            alone = _cyclic_reduction(lower[:, k], diag[:, k], upper[:, k], rhs[:, k])
            assert step[:, k].tobytes() == alone.tobytes()

    def test_rotation_distances_from_one_probe(self):
        # every converged case's distance to its rotation comes from one
        # lookup of the batch's probe sites, equal bit for bit to
        # ext_distance alone and to a per-side bisection over prefixes. At
        # rho = 1.1 the window and halo lie in the zero set's box but the
        # probe sites beyond 55 do not: that batch falls back to each
        # tail's producible prefix, at most two lookups per tail and side
        from antifk import estimate_aubry, truncated_almost_periodic
        from antifk.lattice import TAIL_PROBE

        V = truncated_almost_periodic(8, 0.5)
        estimate = estimate_aubry(V, (-60.0, 60.0))
        sampler = _CountingSampler(estimate.sampler)
        cert = AubryCertificate(sampler, estimate.covering_radius,
                                estimate.ball_radius, estimate.expansion)
        nn, n = NearestNeighborInteraction(), 24
        probe = n + np.arange(1, TAIL_PROBE + 1)
        assert 1.1 * (n + 1) < sampler.hi[0] < 1.1 * probe[-1]
        assert 0.41 * probe[-1] < sampler.hi[0]
        for rhos in ((0.13, 0.41), (0.13, 1.1, 0.41)):
            sampler.queries.clear()
            params = _grid((64.0,), rhos, n)
            outcomes = ContractionSolver(nn, V, cert, params).solve()
            # the anchor lookup and the probe, then the prefix lookups
            fallback = len(sampler.queries) - 2
            assert fallback <= 4 * len(rhos) and (fallback > 0) == (1.1 in rhos)
            for p, (u, rep) in zip(params, outcomes):
                hom = homomorphism_configuration(p.rho, p.window)
                core = float(np.linalg.norm(u.values - hom.values, axis=1).max())
                expect = _probe_by_halves(u.tail, hom.tail, probe, core)
                assert rep.distance_to_rotation == ext_distance(u, hom) == expect
                assert np.isfinite(expect)

    def test_rotation_distance_on_a_finite_2d_table(self):
        # a d = 2 chain on a finite pi Z^2 table that ends at the halo, as
        # the hyperbolicity benchmark builds it: every probe site past the
        # halo leaves the box, and each side takes two lookups of the
        # anchor tail, not a bisection, for the same distance
        from antifk.lattice import TAIL_PROBE

        n, rho = 48, np.array([0.61, 0.47])
        c = 0.65 * (n + 1)
        axis = np.pi * np.arange(-np.ceil(c / np.pi) - 1, np.ceil(c / np.pi) + 2)
        zeros = FiniteZeroSet(np.array([[x, y] for x in axis for y in axis]), -c, c)
        sampler = _CountingSampler(zeros)
        cert = AubryCertificate(sampler, np.pi / np.sqrt(2), np.pi / 4, np.cos(np.pi / 4))
        V = TrigSumPotential([(1.0, [1.0, 0.0], 0.0), (1.0, [0.0, 1.0], 0.0)])
        nn = NearestNeighborInteraction(PerturbedQuadraticCoupling(0.1))
        params = SolveParams(lam=40.0, rho=rho, window=n)
        sampler.queries.clear()
        u, rep = solve_equilibrium(params, nn, V, cert)
        assert len(sampler.queries) == 2 + 2 * 2  # anchors, probe, 2 per side
        hom = homomorphism_configuration(rho, params.window)
        core = float(np.linalg.norm(u.values - hom.values, axis=1).max())
        probe = n + np.arange(1, TAIL_PROBE + 1)
        expect = _probe_by_halves(u.tail, hom.tail, probe, core)
        assert rep.distance_to_rotation == ext_distance(u, hom) == expect

    def test_batch_must_share_window(self, nn_interaction, cos_potential,
                                     cos_cert):
        with pytest.raises(ValueError, match="shares one window"):
            ContractionSolver(nn_interaction, cos_potential, cos_cert,
                              [make_params(n=8), make_params(n=9)])


def _outside_inverse(monkeypatch, V, record):
    """Calls record(name, x) for each call of V.gradient, V.hessian and
    V.derivatives (name) made outside the solver's local inverse, x its
    argument."""
    from antifk import solver as solver_module

    inside = []
    for name in ("gradient", "hessian", "derivatives"):
        def recorded(x, f=getattr(V, name), name=name):
            if not inside:
                record(name, x)
            return f(x)
        monkeypatch.setattr(V, name, recorded)
    inverse = solver_module.local_inverse_batch

    def wrapped(*args, **kwargs):
        inside.append(True)
        try:
            return inverse(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(solver_module, "local_inverse_batch", wrapped)


def _count_rows_outside_inverse(monkeypatch, V):
    """Rows of V.gradient, V.hessian and V.derivatives evaluated outside
    the solver's local inverse, counted as they are called."""
    rows = {"gradient": 0, "hessian": 0, "derivatives": 0}

    def count(name, x):
        rows[name] += np.shape(x)[0]

    _outside_inverse(monkeypatch, V, count)
    return rows


def _runs(chains: np.ndarray) -> int:
    """Runs of bit-equal sites along the chains of a stack (n, K, d)."""
    return chains.shape[1] + int((chains[1:] != chains[:-1]).any(axis=-1).sum())


class TestDerivativeReuse:
    """Each step hands grad V and hess V at the chains it produced to the
    next. V at the start chains, once per run of equal sites along a
    chain, serves the Kantorovich test and the first Newton step (or the
    first tube-map step); the local inverse's last evaluations serve the
    next tube-map step's first local-inverse iteration, the Newton polish's
    entry force and C blocks and the residual check, and the polish's
    evaluations at its chains serve the closing step. Outside the local
    inverse V is evaluated only at the start and at the Newton steps' own
    iterates, in one fused V.derivatives call each, and only at the chains
    of running cases."""

    def test_one_case(self, monkeypatch, nn_interaction):
        from antifk import cosine_certificate, cosine_potential

        V, params = cosine_potential(), make_params(lam=40.0, rho=0.618, n=256)
        rows = _count_rows_outside_inverse(monkeypatch, V)
        solver = ContractionSolver(nn_interaction, V, cosine_certificate(), [params])
        [(_, rep)] = solver.solve()
        n, steps = 513, len(rep.newton_steps)
        assert rep.iterations == 1 and not rep.newton_fallback and steps >= 2
        # the start's runs, then per Newton step the new iterate's force
        # and next C blocks
        runs = _runs(solver.anchors.values)
        assert runs < n
        assert rows == {"gradient": 0, "hessian": 0, "derivatives": runs + n * steps}

    def test_sweep_batch(self, monkeypatch):
        # the first batch of the sweep benchmark's grid, in lockstep
        from antifk import estimate_aubry, truncated_almost_periodic

        V = truncated_almost_periodic(8, 0.5)
        cert = estimate_aubry(V, (-200.0, 200.0))
        params = _grid((24.0, 32.0), (0.1, 0.2, 0.3, 0.4, 0.5), 256)[:7]
        rows = _count_rows_outside_inverse(monkeypatch, V)
        solver = ContractionSolver(NearestNeighborInteraction(), V, cert, params)
        reps = [rep for _, rep in solver.solve()]
        steps = {len(rep.newton_steps) for rep in reps}
        assert {rep.iterations for rep in reps} == {1} and len(steps) == 1
        assert not any(rep.newton_fallback for rep in reps)
        n, [steps], runs = 7 * 513, steps, _runs(solver.anchors.values)
        assert runs < n
        assert rows == {"gradient": 0, "hessian": 0, "derivatives": runs + n * steps}

    def test_closing_step_evaluates_no_rows(self, monkeypatch):
        # the polish ends every chain of the sweep batch below tol, so the
        # closing step's local inverse ends every row on the values the
        # polish handed on; only the start and the polish evaluate V
        from antifk import estimate_aubry, truncated_almost_periodic

        V = truncated_almost_periodic(8, 0.5)
        cert = estimate_aubry(V, (-200.0, 200.0))
        params = _grid((24.0, 32.0), (0.1, 0.2, 0.3, 0.4, 0.5), 256)[:7]
        rows, step = [], ContractionSolver.phi_step

        def spy(solver, u, cases=None, derivatives=None):
            before = sum(rows)
            out = step(solver, u, cases, derivatives)
            made.append(sum(rows) - before)
            return out

        made, evaluate = [], V.derivatives
        monkeypatch.setattr(V, "derivatives", lambda x: rows.append(len(x)) or evaluate(x))
        monkeypatch.setattr(ContractionSolver, "phi_step", spy)
        outcomes = ContractionSolver(NearestNeighborInteraction(), V, cert, params).solve()
        assert all(rep.iterations == 1 for _, rep in outcomes)
        assert made == [0] and sum(rows) > 0

    def test_step_derivatives_are_fresh_values(self, monkeypatch, nn_interaction,
                                               cos_potential, cos_cert):
        # case 1 is stepped alone; case 3's target leaves the admissible
        # ball at lam = 2, so only case 1's chain comes from the step
        from antifk import solver as solver_module

        params = _grid((40.0,), (0.618, 40.0), 64) + _grid((2.0,), (0.3, 2.9), 64)
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, params)
        v, (grad, hess) = solver.phi_step(solver.anchors, [1, 3])
        assert list(solver.failures) == [3] and isinstance(solver.failures[3], DomainError)
        assert grad.shape == (129, 4, 1) and hess.shape == (129, 4, 1, 1)
        x = v.values[:, 1]
        assert grad[:, 1].tobytes() == cos_potential.gradient(x).tobytes()
        assert hess[:, 1].tobytes() == cos_potential.hessian(x).tobytes()
        # every case steps: the arrays are the local inverse's own
        made, inverse = [], solver_module.local_inverse_batch

        def kept(*args, **kwargs):
            made.append(inverse(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(solver_module, "local_inverse_batch", kept)
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, params[:2])
        v, (grad, hess) = solver.phi_step(solver.anchors)
        [(_, g, h)] = made
        assert grad.shape == (129, 2, 1) and np.shares_memory(grad, g)
        assert hess.shape == (129, 2, 1, 1) and np.shares_memory(hess, h)
        x = v.values.reshape(-1, 1)
        assert grad.tobytes() == cos_potential.gradient(x).tobytes()
        assert hess.tobytes() == cos_potential.hessian(x).tobytes()

    def test_partial_stack_residuals(self, monkeypatch, nn_interaction,
                                     cos_potential, cos_cert):
        # the stalling batch: once three cases stop, steps produce only the
        # rho = 40 chain; at each chain a step produced, the arrays that the
        # residual check reads hold fresh values
        params = _grid((40.0,), (0.618, 40.0, 20.0, 1.3), 1024)
        seen, step, polish = [], ContractionSolver.phi_step, ContractionSolver.newton_polish

        def fresh(solver, v, grad, hess, cases):
            made = [c for c in cases if c not in solver.failures]
            x = v.values[:, made].reshape(-1, 1)
            seen.append((len(made), grad[:, made].tobytes()
                         == cos_potential.gradient(x).tobytes()
                         and hess[:, made].tobytes()
                         == cos_potential.hessian(x).tobytes()))

        def spy(solver, u, cases=None, derivatives=None):
            v, (grad, hess) = step(solver, u, cases, derivatives)
            fresh(solver, v, grad, hess, cases)
            return v, (grad, hess)

        def polish_spy(solver, u, cases=None, derivatives=None, start=None):
            v, history, fallback, (grad, hess) = polish(solver, u, cases, derivatives,
                                                        start)
            fresh(solver, v, grad, hess, cases)
            return v, history, fallback, (grad, hess)

        monkeypatch.setattr(ContractionSolver, "phi_step", spy)
        monkeypatch.setattr(ContractionSolver, "newton_polish", polish_spy)
        statuses = _assert_batch_matches_alone(
            nn_interaction, cos_potential, cos_cert, params, 4)
        assert statuses == ["ok", "ConvergenceError", "ok", "ok"]
        assert {1, 4} <= {m for m, _ in seen} and all(ok for _, ok in seen)

    def test_converged_derivatives_stay(self, monkeypatch, nn_interaction,
                                        cos_potential, cos_cert):
        # the stalling batch: a converged case's derivatives are views of
        # the arrays one step handed on, which later steps only read; they
        # keep their bits while the rho = 40 case runs on
        params = _grid((40.0,), (0.618, 40.0, 20.0, 1.3), 1024)
        kept, later, step = {}, [], ContractionSolver.phi_step

        def spy(solver, u, cases=None, derivatives=None):
            for c, pair in solver.derivatives.items():
                kept.setdefault(c, [x.tobytes() for x in pair])
            later.extend(c for c in cases if kept)
            return step(solver, u, cases, derivatives)

        monkeypatch.setattr(ContractionSolver, "phi_step", spy)
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, params)
        solver.solve()
        assert sorted(kept) == [0, 2, 3] and later and set(later) == {1}
        for c, pair in solver.derivatives.items():
            assert [x.tobytes() for x in pair] == kept[c]

    def test_stopped_chains_not_evaluated(self, monkeypatch, nn_interaction,
                                          cos_potential, cos_cert):
        # the stalling batch: once a case has stopped, converged or failed,
        # V is not evaluated outside the local inverse at all (the stalled
        # case's floor takes hess V from its last step), and the local
        # inverse sees only the rows of the one case still running
        from antifk import solver as solver_module

        params = _grid((40.0,), (0.618, 40.0, 20.0, 1.3), 1024)
        n, stopped, calls, rows = 2049, set(), [], []
        for name in ("phi_step", "newton_polish"):
            def spy(solver, u, cases=None, *args, method=getattr(ContractionSolver, name)):
                stopped.update(c for c in range(len(params)) if c not in cases)
                return method(solver, u, cases, *args)
            monkeypatch.setattr(ContractionSolver, name, spy)

        _outside_inverse(monkeypatch, cos_potential,
                         lambda name, x: stopped and calls.append(name))
        inverse = solver_module.local_inverse_batch

        def sized(V, centers, *args, **kwargs):
            if stopped:
                rows.append(len(centers))
            return inverse(V, centers, *args, **kwargs)

        monkeypatch.setattr(solver_module, "local_inverse_batch", sized)
        outcomes = ContractionSolver(nn_interaction, cos_potential, cos_cert,
                                     params).solve()
        assert [type(o).__name__ for o in outcomes] == ["tuple", "ConvergenceError",
                                                         "tuple", "tuple"]
        assert sorted(stopped) == [0, 2, 3] and calls == [] and rows and set(rows) == {n}


class TestKantorovich:
    """Kantorovich's h = Lip |F(a)| / g^2 at a solve's start chain a,
    rounded outward, says whether Newton from a provably converges; the
    report also gives the least lam at which the same bounds prove. Both
    are reports only: every nearest-neighbour solve starts with Newton."""

    def test_cosine_matches_mpmath(self, nn_interaction, cos_potential, cos_cert):
        # F_i = 2 a_i - a_{i-1} - a_{i+1} - lam sin a_i and the gap |2 - lam
        # cos a_i| - 2 at the float anchors and their tail neighbours, Lip =
        # lam L with the potential's proved L, evaluated at 50 digits
        import mpmath

        params = make_params(lam=20.0, rho=0.3, n=256)
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, [params])
        [(_, rep)] = solver.solve()
        ext = solver.anchors.extended(1)[:, 0, 0].tolist()
        with mpmath.workdps(50):
            a, lam = [mpmath.mpf(x) for x in ext], mpmath.mpf(params.lam)
            inner = range(1, len(a) - 1)
            force = max(abs(2 * a[i] - a[i - 1] - a[i + 1] - lam * mpmath.sin(a[i]))
                        for i in inner)
            gap = min(abs(2 - lam * mpmath.cos(a[i])) - 2 for i in inner)
            lip = lam * mpmath.mpf(cos_potential.hessian_lipschitz_bound(1.0)[0])
            exact = lip * force / gap**2
            assert exact <= rep.kantorovich_h <= exact * (1 + mpmath.mpf("1e-12"))
        assert rep.kantorovich_h <= 0.5 and rep.iterations == 1

    def test_least_lam_is_where_h_crosses_one_half(self, nn_interaction,
                                                   cos_potential, cos_cert):
        # on the cosine with an anchor at 0 the gap is lam - 4 exactly, so
        # the quadratic's root is where h itself crosses 1/2; on either side
        # the solve is the polish and the closing step
        _, rep = solve_equilibrium(make_params(rho=0.3, n=64), nn_interaction,
                                   cos_potential, cos_cert)
        lam = rep.kantorovich_lam
        assert 13.0 < lam < 13.1
        for factor, proved in ((1 + 1e-9, True), (1 - 1e-9, False)):
            params = make_params(lam=lam * factor, rho=0.3, n=64)
            _, rep = solve_equilibrium(params, nn_interaction, cos_potential, cos_cert)
            assert (rep.kantorovich_h <= 0.5) == proved
            assert rep.iterations == 1 and not rep.newton_fallback
            assert rep.kantorovich_lam == pytest.approx(lam, rel=1e-12)

    def test_no_bound_without_a_coupling_constant(self, cos_potential, cos_cert):
        # the perturbed-quadratic coupling has no proved Lipschitz constant
        # of its hessian: no h and no least lam, but Newton from the start
        # all the same; a long-range interaction has no bound and no Newton
        nn, V, cert, params = _cos2d_case()
        _, rep = solve_equilibrium(params, nn, V, cert)
        assert rep.kantorovich_h is None and rep.kantorovich_lam is None
        assert rep.iterations == 1 and rep.newton_steps and not rep.newton_fallback
        lr = LongRangeInteraction(weights={1: 1.0, 2: 0.25}, power=2, cutoff=2)
        _, rep = solve_equilibrium(make_params(lam=40.0, n=32), lr, cos_potential,
                                   cos_cert)
        assert rep.kantorovich_h is None and rep.newton_steps == []

    def test_contraction_factor_measures_the_tube_map(self, nn_interaction,
                                                      cos_potential, cos_cert):
        # criterion 03's case solves with one tube-map step, so no two
        # steps give a ratio; the factor is the tube map's derivative
        # bound at the solution, 4 / (lam min |V''(u_i)|), which the late
        # ratios of ten tube-map steps from a perturbed solution obey
        params = make_params(lam=20.0, rho=1.0, n=64)
        u, rep = solve_equilibrium(params, nn_interaction, cos_potential, cos_cert)
        assert rep.iterations == 1 and len(rep.step_distances) == 1
        factor = rep.contraction_factor
        assert 0.0 < factor <= 1.0 / 3.0 + 0.02
        assert factor == pytest.approx(
            4.0 / (params.lam * np.abs(np.cos(u.values)).min()), rel=1e-12)
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert,
                                   [make_params(lam=20.0, rho=1.0, n=64, inner_tol=1e-15)])
        v = stack_chains([u])
        v = v.with_values(v.values + 1e-4 * np.random.default_rng(3).uniform(
            -1.0, 1.0, v.values.shape))
        steps = []
        for _ in range(10):
            w, _ = solver.phi_step(v)
            steps.append(float(np.abs(w.values - v.values).max()))
            v = w
        ratios = [b / a for a, b in zip(steps, steps[1:])]
        assert 0.0 < max(ratios[4:]) <= factor * (1 + 1e-6)


_BENCH = Path(__file__).resolve().parents[1] / "bench"


class TestSchedule:
    """Every nearest-neighbour solve polishes before its first tube-map
    step, whatever its Kantorovich h; long-range solves take the tube map
    only."""

    @pytest.mark.parametrize("name", ["solve-1d", "solve-far", "sweep-ap",
                                      "hyperbolicity-2d"])
    def test_bench_draws_solve_newton_first(self, name, tmp_path, monkeypatch):
        # the first op of seeds 1, 2 and 3 and the first latin block of
        # seed 7, drawn as bench/worker.py draws them: every case takes
        # Newton from its anchors and the closing step, and the bench
        # oracles pass. The d = 1 cases are proved; hyperbolicity-2d's
        # perturbed coupling has no bound (h is None)
        import json
        import random

        from antifk import cli
        from antifk import solver as solver_module

        monkeypatch.syspath_prepend(str(_BENCH))
        from worker import STRATA, latin_points
        from workloads import WORKLOADS

        reports, solve = [], solver_module.ContractionSolver.solve

        def spy(solver, initial=None):
            out = solve(solver, initial)
            reports.extend((o, solver.tol) for o in out)
            return out

        monkeypatch.setattr(solver_module.ContractionSolver, "solve", spy)
        workload = WORKLOADS[name]
        workload.prepare(str(tmp_path))
        for seed, ops in ((1, 1), (2, 1), (3, 1), (7, STRATA)):
            rng = random.Random(seed)
            points = latin_points(rng, workload.dims)
            for k in range(ops):
                params = workload.draw(next(points))
                config = tmp_path / f"{seed}-{k}.json"
                config.write_text(json.dumps(workload.config(params, rng.randrange(2**31))))
                out = tmp_path / f"out-{seed}-{k}"
                extra = ["--workers", "1"] if workload.command == "sweep" else []
                argv = [workload.command, "--config", str(config), "--out", str(out)]
                assert cli.main(argv + extra) == 0
                assert workload.check(params, str(out)) is None
        assert len(reports) == 7 * (25 if name == "sweep-ap" else 1)
        for outcome, tol in reports:
            u, rep = outcome
            if name == "hyperbolicity-2d":
                assert rep.kantorovich_h is None
            else:
                assert rep.kantorovich_h <= 0.5
            assert rep.iterations == 1 and rep.newton_steps
            assert not rep.newton_fallback and rep.final_residual <= tol

    def test_every_case_polishes_before_its_first_step(self, monkeypatch,
                                                       nn_interaction, cos_potential):
        # one batch: proved (lam 40) and unproved (lam 10, h > 1/2) cases,
        # one too weak for the certificate (lam 0.5) and one without
        # anchors (rho 3 leaves the zero set's box): every case with
        # anchors in the domain of the local inverse is polished, in one
        # call before the first tube-map step
        zeros = FiniteZeroSet(np.pi * np.arange(-30.0, 31.0), -60.0, 60.0)
        cert = AubryCertificate(zeros, np.pi / 2, np.pi / 4, np.cos(np.pi / 4))
        params = [SolveParams(lam=lam, rho=rho, window=24)
                  for lam, rho in ((40.0, 0.3), (10.0, 1.7), (0.5, 0.618), (40.0, 3.0))]
        calls = _spy_steps(monkeypatch)
        out = ContractionSolver(nn_interaction, cos_potential, cert, params).solve()
        assert [type(o).__name__ for o in out] == ["tuple", "tuple", "DomainError",
                                                   "CertificateError"]
        assert out[0][1].kantorovich_h <= 0.5 < out[1][1].kantorovich_h
        assert calls[0] == ("newton_polish", [0, 1])
        assert [name for name, _ in calls[1:]] == ["phi_step"] * (len(calls) - 1)
        # d = 2, where no bound exists, and the one-case call
        nn, V, cert2, p2 = _cos2d_case()
        calls.clear()
        ContractionSolver(nn, V, cert2, [p2]).solve()
        assert calls == [("newton_polish", [0]), ("phi_step", [0])]

    def test_start_outside_the_domain_fails_before_the_polish(self, monkeypatch,
                                                               nn_interaction,
                                                               cos_potential, cos_cert):
        # lam 0.5 is too weak for the cosine certificate at rho 0.618: the
        # anchors' own |Delta(a)_i / lam| exceeds r m, so the case fails
        # with the DomainError phi_step would raise at the anchors, without
        # entering newton_polish; the case beside it still solves
        params = [SolveParams(lam=lam, rho=0.618, window=24) for lam in (0.5, 40.0)]
        calls = _spy_steps(monkeypatch)
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, params)
        anchors = solver.anchors
        weak, strong = solver.solve()
        assert isinstance(weak, DomainError) and isinstance(strong, tuple)
        assert calls[0] == ("newton_polish", [1])
        assert all(0 not in cases for _, cases in calls)
        norms = np.abs(nn_interaction.delta(anchors)[:, 0, 0]) / 0.5
        assert weak.norm == norms.max()
        assert weak.site == int(norms.argmax()) - 24
        assert f"at site {weak.site};" in str(weak)

    def test_low_coupling_grid(self, nn_interaction, cos_potential, cos_cert):
        # low couplings on the cosine and the sweep potential (d = 1) and on
        # cos x + cos y with three couplings (d = 2), each case alone: the
        # statuses are those of the schedule that took two tube-map steps
        # before polishing unproved cases, and no converged case discards
        # a Newton step
        from antifk import estimate_aubry, truncated_almost_periodic

        Vs = truncated_almost_periodic(8, 0.5)
        nn2, V2, cert2, _ = _cos2d_case()
        grids = [(nn_interaction, cos_potential, cos_cert, (6.0, 10.0, 16.0), (0.3, 1.7)),
                 (nn_interaction, Vs, estimate_aubry(Vs, (-200.0, 200.0)),
                  (8.0, 12.0, 16.0), (0.3, 2.6))]
        grids += [(nn, V2, cert2, (8.0, 16.0, 40.0), ([0.41, 0.53], [1.1, 0.3]))
                  for nn in (nn_interaction, nn2,
                             NearestNeighborInteraction(PerturbedQuadraticCoupling(0.3)))]
        statuses = []
        for nn, V, cert, lams, rhos in grids:
            for lam in lams:
                for rho in rhos:
                    params = SolveParams(lam=lam, rho=rho, window=24)
                    [out] = ContractionSolver(nn, V, cert, [params]).solve()
                    statuses.append(type(out).__name__)
                    if not isinstance(out, Exception):
                        rep = out[1]
                        assert rep.iterations == 1 and rep.newton_steps
                        assert not rep.newton_fallback and rep.final_residual <= params.tol
        assert statuses == (["DomainError"] * 2 + ["tuple"] * 4) * 5

    def test_unproved_case_polishes_from_the_start(self, monkeypatch):
        # the sweep potential at lam = 12 is not proved (h > 1/2): the
        # solve is the polish and the closing step, that schedule written
        # out bit for bit, and within 10 tol of two tube-map steps, the
        # polish and tube-map steps to the stopping rule
        from antifk import estimate_aubry, truncated_almost_periodic

        V = truncated_almost_periodic(8, 0.5)
        cert = estimate_aubry(V, (-200.0, 200.0))
        nn, params = NearestNeighborInteraction(), SolveParams(lam=12.0, rho=0.3, window=256)
        calls = _spy_steps(monkeypatch)
        [(u, rep)] = ContractionSolver(nn, V, cert, [params]).solve()
        assert rep.kantorovich_h > 0.5 and rep.iterations == 1
        assert rep.newton_steps and not rep.newton_fallback
        assert calls == [("newton_polish", [0]), ("phi_step", [0])]
        monkeypatch.undo()
        replay = ContractionSolver(nn, V, cert, [params])
        v, _, _, derivatives = replay.newton_polish(replay.anchors)
        v, _ = replay.phi_step(v, None, derivatives)
        assert v.values[:, 0].tobytes() == u.values.tobytes()
        w, derivatives = replay.phi_step(replay.anchors)
        w, derivatives = replay.phi_step(w, None, derivatives)
        w, _, _, derivatives = replay.newton_polish(w, None, derivatives)
        w, _ = replay.phi_step(w, None, derivatives)
        assert np.abs(w.values[:, 0] - u.values).max() <= 10 * params.tol

    def test_uniqueness_starts_reach_the_same_chain(self, nn_interaction,
                                                    cos_potential, cos_cert):
        # criterion 06's starts, the anchors moved by r / 2 at every site,
        # are not proved (h > 1/2); the anchors are proved; both polish
        # from their start and reach one chain
        rng, r = np.random.default_rng(6), cos_cert.ball_radius
        for lam, rho in ((23.5, -2.19), (39.2, -2.75), (130.1, 0.54)):
            params = SolveParams(lam=lam, rho=rho, window=24, tol=1e-11)
            solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, [params])
            [(u, rep)] = solver.solve()
            a = solver.anchors
            signs = rng.choice((-1.0, 1.0), size=a.values.shape)
            [(u2, rep2)] = solver.solve(a.with_values(a.values + 0.5 * r * signs))
            assert rep.kantorovich_h <= 0.5 < rep2.kantorovich_h
            assert (rep.iterations, rep2.iterations) == (1, 1)
            assert not (rep.newton_fallback or rep2.newton_fallback)
            verdict = uniqueness_check(u, u2, cos_cert)
            assert verdict.same_ball and verdict.distance <= 1e-10
