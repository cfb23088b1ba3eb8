import numpy as np
import pytest

from antifk import (
    AubryCertificate,
    ContractionSolver,
    ConvergenceError,
    DomainError,
    FiniteZeroSet,
    LongRangeInteraction,
    NearestNeighborInteraction,
    PerturbedQuadraticCoupling,
    SolveParams,
    TrigSumPotential,
    Window,
    anchor_configuration,
    as_rotation,
    ext_distance,
    homomorphism_configuration,
    lambda_threshold,
    residual,
    solve_equilibrium,
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
        assert p.half_width == 12

    def test_window_object_accepted(self):
        p = SolveParams(lam=20.0, rho=1.0, window=Window(8, 1))
        assert p.half_width == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            SolveParams(lam=0.0, rho=1.0, window=8)
        with pytest.raises(ValueError):
            SolveParams(lam=20.0, rho=1.0, window=8, tol=-1.0)
        with pytest.raises(ValueError):
            SolveParams(lam=20.0, rho=1.0, window=8, max_iter=0)
        with pytest.raises(ValueError):
            SolveParams(lam=20.0, rho=1.0, window=8, tol=1e-10, inner_tol=1e-10)

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
                                   make_params(lam=20.0, rho=1.0, n=10))
        out = solver.phi_step(u)
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
            make_params(lam=lam, rho=1.0, n=10, inner_tol=1e-14), anchors=a,
        )
        for _ in range(25):
            u = a.with_values(a.values + rng.uniform(-r, r, size=a.values.shape))
            v = a.with_values(a.values + rng.uniform(-r, r, size=a.values.shape))
            fu = solver.phi_step(u)
            fv = solver.phi_step(v)
            assert ext_distance(fu, fv) <= q * ext_distance(u, v) * (1 + 1e-6) + 1e-12

    def test_domain_error_when_coupling_too_weak(self, nn_interaction,
                                                 cos_potential, cos_cert):
        a = anchor_configuration(
            as_rotation(1.0), cos_cert.sampler, cos_cert.covering_radius,
            Window(8, 1),
        )
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert,
                                   make_params(lam=0.5, rho=1.0, n=8))
        with pytest.raises(DomainError) as err:
            solver.phi_step(a)
        assert err.value.site is not None

    def test_window_mismatch(self, nn_interaction, cos_potential, cos_cert):
        params = make_params(lam=20.0, rho=1.0, n=10)
        a = anchor_configuration(
            as_rotation(1.0), cos_cert.sampler, cos_cert.covering_radius,
            Window(9, 1),
        )
        with pytest.raises(ValueError):
            ContractionSolver(nn_interaction, cos_potential, cos_cert, params,
                              anchors=a)
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, params)
        with pytest.raises(ValueError):
            solver.solve(initial=a)


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
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, params)
        u, rep = solver.solve()
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
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, params)
        vg = lambda x: -np.sin(x)
        vh = lambda x: -np.cos(x)
        ref = newton_solve_config(solver.anchors, 25.0, vg, vh, tol=1e-13)
        assert np.abs(u.values - ref).max() < 1e-9

    def test_perturbed_start_same_fixed_point(self, nn_interaction,
                                              cos_potential, cos_cert, rng):
        params = make_params()
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, params)
        u1, _ = solver.solve()
        r = cos_cert.ball_radius
        init = solver.anchors.with_values(
            solver.anchors.values
            + rng.uniform(-r / 2, r / 2, size=solver.anchors.values.shape)
        )
        u2, _ = solver.solve(initial=init)
        assert ext_distance(u1, u2) < 1e-10

    def test_below_threshold_warns_but_may_converge(self, nn_interaction,
                                                    cos_potential, cos_cert):
        u, rep = solve_equilibrium(
            make_params(lam=10.0), nn_interaction, cos_potential, cos_cert
        )
        assert rep.converged
        assert not rep.lambda_at_least_threshold
        assert any("threshold" in w for w in rep.warnings)

    def test_max_iter_exhaustion(self, nn_interaction, cos_potential, cos_cert):
        with pytest.raises(ConvergenceError) as err:
            solve_equilibrium(
                make_params(max_iter=2), nn_interaction, cos_potential, cos_cert
            )
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
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, params)
        u, rep = solver.solve()
        assert np.abs(u.values).max() > 2e4
        assert rep.converged and rep.final_residual <= params.tol
        ref = newton_solve_config(solver.anchors, 40.0, lambda x: -np.sin(x),
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
        solver = ContractionSolver(nn_interaction, cos_potential, cos_cert, params)
        u1, _ = solver.solve()
        r = cos_cert.ball_radius
        init = solver.anchors.with_values(
            solver.anchors.values
            + rng.uniform(-r / 2, r / 2, size=solver.anchors.values.shape)
        )
        u2, _ = solver.solve(initial=init)
        v = uniqueness_check(u1, u2, cos_cert)
        assert v.same_ball
        assert v.within_tolerance

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

    def newton_polish(self, u):
        return u, [], False


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
        assert rep.iterations == 3 and not rep.newton_fallback
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
        u, rep = ContractionSolver(nn_interaction, cos_potential, cos_cert,
                                   params).solve()
        v, vrep = _TubeMapOnly(nn_interaction, cos_potential, cos_cert,
                               params).solve()
        assert rep.iterations < vrep.iterations and vrep.newton_steps == []
        assert np.abs(u.values - v.values).max() <= 1e-11

    def test_d2_matches_tube_map_only(self):
        nn, V, cert, params = _cos2d_case()
        u, rep = ContractionSolver(nn, V, cert, params).solve()
        v, vrep = _TubeMapOnly(nn, V, cert, params).solve()
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
                                   params)
        u1, _ = solver.solve()
        a = solver.anchors
        signs = rng.choice((-1.0, 1.0), size=a.values.shape)
        edge = a.with_values(a.values + cos_cert.ball_radius * signs)
        u2, rep = solver.solve(initial=edge)
        assert rep.converged and not rep.newton_fallback
        assert np.abs(u2.values - u1.values).max() < 1e-11
