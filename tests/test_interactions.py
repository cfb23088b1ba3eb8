import numpy as np
import pytest

from antifk import (
    LongRangeInteraction,
    NearestNeighborInteraction,
    PerturbedQuadraticCoupling,
    QuadraticCoupling,
    Window,
    as_rotation,
    coupling_from_dict,
    delta_hom,
    ext_distance,
    homomorphism_configuration,
    interaction_from_dict,
    shift,
    translate,
)


def hom(rho, n=10):
    return homomorphism_configuration(as_rotation(rho), Window(n, 1))


def cubic():
    return LongRangeInteraction()  # weights 2^{-|k|}, power 3


class TestApplyDelta:
    def test_constant_configuration(self, nn_interaction):
        u = translate(hom(0.0), 3.7)
        assert np.abs(nn_interaction.delta(u)).max() == 0.0

    def test_homomorphism_is_annihilated(self, nn_interaction):
        for rho in (0.0, 1.0, -2.3):
            u = hom(rho)
            assert np.abs(nn_interaction.delta(u)).max() < 1e-12

    def test_spike(self, nn_interaction):
        u = hom(0.0, n=5)
        vals = np.zeros(11)
        vals[5] = 1.0
        u = u.with_values(vals)
        d = nn_interaction.delta(u)[:, 0]
        expect = np.zeros(11)
        expect[5] = 2.0
        expect[4] = expect[6] = -1.0
        assert np.array_equal(d, expect)

    def test_long_range_annihilates_homomorphisms(self):
        u = hom(0.7, n=8)
        assert np.abs(cubic().delta(u)).max() < 1e-12

    def test_long_range_spike_uses_many_neighbors(self):
        u = hom(0.0, n=8)
        vals = np.zeros(17)
        vals[8] = 1.0
        u = u.with_values(vals)
        d = cubic().delta(u)[:, 0]
        assert d[8] == pytest.approx(sum(
            2.0 ** (-abs(k)) for k in range(-32, 33) if k != 0
        ))
        # site -1 sees only the k = 1 term (0 - 1)^3 with weight 1/2
        assert d[7] == pytest.approx(-0.5)
        assert d[7] == d[9]


class TestInvariance:
    def test_horizontal(self, nn_interaction, rng):
        u = hom(0.5, n=12).with_values(rng.normal(size=25))
        for k in (-4, 3):
            lhs = nn_interaction.delta(shift(u, k))
            rhs = nn_interaction.delta(u)
            # overlapping interior sites: lhs_i corresponds to rhs_{i+k}
            n = 12
            for i in range(-n + abs(k) + 1, n - abs(k)):
                assert lhs[i + n] == pytest.approx(rhs[i + k + n], abs=1e-12)

    def test_vertical(self, nn_interaction, rng):
        u = hom(0.5, n=10).with_values(rng.normal(size=21))
        for c in rng.normal(size=5):
            assert np.allclose(
                nn_interaction.delta(translate(u, c)),
                nn_interaction.delta(u),
                atol=1e-10,
            )

    def test_vertical_long_range(self, rng):
        u = hom(0.2, n=10).with_values(rng.normal(size=21) * 0.3 + 0.2 * np.arange(-10, 11))
        assert np.allclose(
            cubic().delta(translate(u, 1.234)), cubic().delta(u), atol=1e-10
        )

    def test_delta_on_rotation_is_constant(self, rng):
        asym = LongRangeInteraction(weights={-1: 2.0, 1: 1.0}, power=3)
        for rho in rng.uniform(-2, 2, size=5):
            d = asym.delta(hom(rho, n=6))
            assert np.ptp(d) < 1e-10
            assert d[0, 0] == pytest.approx(
                float(asym.delta_hom(as_rotation(rho))[0]), abs=1e-10
            )


class TestDeltaHom:
    def test_generating_nn_zero(self, nn_interaction, rng):
        for rho in rng.uniform(-3, 3, size=10):
            assert nn_interaction.delta_hom(as_rotation(rho))[0] == 0.0

    def test_symmetric_cubic_cancels(self, rng):
        for rho in rng.uniform(-2, 2, size=10):
            assert abs(cubic().delta_hom(as_rotation(rho))[0]) < 1e-12

    def test_asymmetric_cubic_value(self):
        asym = LongRangeInteraction(weights={-1: 2.0, 1: 1.0}, power=3)
        assert asym.delta_hom(as_rotation(2.0))[0] == pytest.approx(8.0)

    def test_free_function(self, nn_interaction):
        assert delta_hom(nn_interaction, 1.5)[0] == 0.0


class TestLipschitzBound:
    def test_quadratic_nn_is_four(self, nn_interaction, rng):
        for _ in range(5):
            rho = as_rotation(rng.uniform(-3, 3))
            R = rng.uniform(0.1, 5.0)
            assert nn_interaction.lipschitz_bound(rho, R) == 4.0

    def test_long_range_zero_rotation(self):
        R = 3 * np.pi / 4
        K = cubic().lipschitz_bound(as_rotation(0.0), R)
        # series value 72 R^2; the truncated sum must land within its own
        # reported tail bound
        tail = cubic().truncation_error(as_rotation(0.0), R)
        assert abs(K - 72 * R * R) <= 6 * (2 * R) ** 2 * 2.0 ** (-32) * 4
        assert K == pytest.approx(399.71897824411906)
        assert tail > 0

    def test_long_range_unit_case(self):
        assert cubic().lipschitz_bound(as_rotation(1.0), 1.0) == pytest.approx(
            240.0, abs=1e-9
        )

    def test_perturbed_coupling_capped(self):
        nn = NearestNeighborInteraction(PerturbedQuadraticCoupling(0.1))
        K = nn.lipschitz_bound(as_rotation(1.0), 1.0)
        assert 4.0 < K <= 4.0 * 1.1 + 1e-12

    @pytest.mark.parametrize("amplitude", [0.0, 0.05, 0.1, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_perturbed_coupling_bounds_sampled_sup(self, amplitude, d, rng):
        # 4 sigma_max over the ball of radius |rho| + 2R, x = 0 included,
        # where sigma_max = 1 + amplitude is attained
        coupling = PerturbedQuadraticCoupling(amplitude)
        nn = NearestNeighborInteraction(coupling)
        for _ in range(3):
            rho, R = rng.uniform(-3, 3, size=d), rng.uniform(0.05, 5.0)
            K = nn.lipschitz_bound(as_rotation(rho), R)
            assert K == 4.0 * (1.0 + amplitude)
            raw = rng.standard_normal((2000, d))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            radius = np.linalg.norm(rho) + 2.0 * R
            pts = raw * radius * rng.uniform(0, 1, size=(2000, 1)) ** (1.0 / d)
            pts = np.concatenate([np.zeros((1, d)), pts])
            sigma = np.linalg.svd(coupling.hessian(pts), compute_uv=False).max()
            assert K >= 4.0 * sigma * (1.0 - 4 * np.finfo(float).eps)


class TestEmpiricalLipschitz:
    @pytest.mark.parametrize("make", [NearestNeighborInteraction, cubic])
    def test_never_violated(self, make, rng):
        inter = make()
        n = 8
        R = 0.8
        for _ in range(50):
            rho = rng.uniform(-1.5, 1.5)
            h = hom(rho, n=n)
            u = h.with_values(h.values + rng.uniform(-R, R, size=(2 * n + 1, 1)))
            v = h.with_values(h.values + rng.uniform(-R, R, size=(2 * n + 1, 1)))
            K = inter.lipschitz_bound(as_rotation(rho), R)
            gap = np.abs(inter.delta(u) - inter.delta(v)).max()
            assert gap <= K * ext_distance(u, v) * (1 + 1e-9)


class TestTruncation:
    def test_nn_is_exact(self, nn_interaction):
        assert nn_interaction.truncation_error(as_rotation(1.0), 1.0) == 0.0

    def test_tail_decreases_with_cutoff(self):
        rho = as_rotation(1.0)
        t16 = LongRangeInteraction(cutoff=16).truncation_error(rho, 1.0)
        t32 = LongRangeInteraction(cutoff=32).truncation_error(rho, 1.0)
        assert 0 < t32 < t16


class TestConvexityBounds:
    def test_quadratic(self):
        lo, hi = QuadraticCoupling().convexity_bounds
        assert lo == hi == 1.0

    def test_perturbed_bracket_holds(self, rng):
        c = PerturbedQuadraticCoupling(0.25)
        lo, hi = c.convexity_bounds
        xs = rng.uniform(-10, 10, size=(200, 1))
        h = c.hessian(xs).reshape(-1)
        assert np.all(h >= lo - 1e-12)
        assert np.all(h <= hi + 1e-12)


class TestSerialization:
    def test_roundtrip_nn(self, nn_interaction):
        back = interaction_from_dict(nn_interaction.to_dict())
        u = hom(1.0).with_values(np.cos(np.arange(-10, 11, dtype=float)))
        assert np.array_equal(back.delta(u), nn_interaction.delta(u))

    def test_roundtrip_long_range(self):
        for inter in (cubic(), LongRangeInteraction(weights={-1: 2.0, 1: 1.0}, power=3)):
            back = interaction_from_dict(inter.to_dict())
            u = hom(0.3, n=6).with_values(
                0.3 * np.arange(-6, 7) + 0.1 * np.sin(np.arange(13))
            )
            assert np.allclose(back.delta(u), inter.delta(u), atol=1e-14)

    def test_coupling_roundtrip(self):
        for c in (QuadraticCoupling(2.0), PerturbedQuadraticCoupling(0.15)):
            back = coupling_from_dict(c.to_dict())
            x = np.array([[0.4]])
            assert float(back.gradient(x)[0, 0]) == pytest.approx(
                float(c.gradient(x)[0, 0])
            )

    def test_numpy_scalar_roundtrip(self):
        # to_dict writes Python numbers, which the reader takes
        f, i = np.float64, np.int64
        for obj, read in (
                (QuadraticCoupling(f(2.0)), coupling_from_dict),
                (PerturbedQuadraticCoupling(f(0.15)), coupling_from_dict),
                (NearestNeighborInteraction(PerturbedQuadraticCoupling(f(0.2))),
                 interaction_from_dict),
                (LongRangeInteraction(power=i(1), cutoff=i(4), weight_base=f(0.25)),
                 interaction_from_dict),
                (LongRangeInteraction(weights={i(-1): f(2.0), i(2): f(1.0)}, power=i(3)),
                 interaction_from_dict)):
            d = obj.to_dict()
            assert read(d).to_dict() == d

    def test_unknown_kind(self):
        with pytest.raises((KeyError, ValueError)):
            interaction_from_dict({"kind": "nope"})
