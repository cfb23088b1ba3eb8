import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from antifk import (
    AubryCertificate,
    CertificateError,
    CertificationError,
    ConvergenceError,
    DeloneBumpPotential,
    DomainError,
    FiniteZeroSet,
    PeriodicZeroSet,
    TrigSumPotential,
    cosine_potential,
    estimate_aubry,
    local_inverse,
    local_inverse_batch,
    potential_from_dict,
    sampler_from_dict,
    truncated_almost_periodic,
)

from antifk import potentials
from antifk.hyperbolicity import _sv
from antifk.potentials import _ball_expansion_radius, _polish_zeros_1d
from oracles import bisect, fd_gradient


def sin4_potential():
    # sin^4(x) up to a constant: -(1/2) cos 2x + (1/8) cos 4x
    return TrigSumPotential([(-0.5, [2.0], 0.0), (0.125, [4.0], 0.0)])


class TestDerivatives:
    def test_cosine_at_zero(self, cos_potential):
        x = np.array([0.0])
        assert cos_potential.value(x) == pytest.approx(1.0)
        assert cos_potential.gradient(x)[0] == pytest.approx(0.0)
        assert cos_potential.hessian(x)[0, 0] == pytest.approx(-1.0)

    def test_truncated_series_at_zero(self):
        V = truncated_almost_periodic(term_count=3)
        x = np.array([0.0])
        assert V.value(x) == pytest.approx(1.75)
        assert V.gradient(x)[0] == pytest.approx(0.0, abs=1e-15)
        expected = -(1.0 + 0.5 / np.pi**2 + 0.25 / np.pi**4)
        assert V.hessian(x)[0, 0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "make",
        [
            cosine_potential,
            lambda: truncated_almost_periodic(term_count=5),
            sin4_potential,
            lambda: DeloneBumpPotential([0.0, 1.0, 2.618, 4.236], width=0.6),
        ],
    )
    def test_gradient_matches_finite_differences(self, make, rng):
        V = make()
        for _ in range(100):
            x = rng.uniform(-8, 8, size=1)
            g = V.gradient(x)
            g_fd = fd_gradient(lambda y: float(V.value(y)), x, h=1e-5)
            scale = max(1.0, float(np.abs(g).max()))
            assert np.abs(g - g_fd).max() / scale < 1e-6

    def test_hessian_matches_finite_differences(self, rng):
        V = truncated_almost_periodic(term_count=4)
        for _ in range(100):
            x = rng.uniform(-8, 8, size=1)
            h = V.hessian(x)[0, 0]
            h_fd = fd_gradient(lambda y: float(V.gradient(y)[0]), x, h=1e-5)[0]
            assert abs(h - h_fd) / max(1.0, abs(h)) < 1e-6

    @pytest.mark.parametrize(
        "make",
        [cosine_potential,
         lambda: TrigSumPotential([(1.0, [1.0, 0.0], 0.0), (1.0, [0.0, 1.0], 0.0)])]
        + [lambda n=n: truncated_almost_periodic(n) for n in range(4, 11)],
        ids=["cosine", "cos-x-plus-cos-y"] + [f"ap-terms-{n}" for n in range(4, 11)],
    )
    def test_gradient_batch_invariant(self, make, rng):
        # bisection of many brackets at once relies on this bit for bit
        V = make()
        for n in (1, 2, 3, 7, 8, 17, 64, 127, 4001):
            x = rng.uniform(-300, 300, size=(n, V.dimension))
            rows = np.concatenate([V.gradient(x[k:k + 1]) for k in range(n)])
            assert np.array_equal(V.gradient(x), rows)

    @pytest.mark.parametrize(
        "make",
        [cosine_potential, sin4_potential, lambda: truncated_almost_periodic(8),
         lambda: TrigSumPotential([(1.0, [1.0, 0.0], 0.0), (0.5, [0.3, 1.0], 0.2)]),
         lambda: DeloneBumpPotential([0.0, 1.0, 2.618, 4.236], width=0.6),
         lambda: DeloneBumpPotential([[0.0, 0.0], [1.0, 0.5], [2.6, -1.0]], 0.7, 1.5)],
        ids=["cosine", "sin4", "ap-terms-8", "trig-2d", "delone", "delone-2d"],
    )
    def test_fused_derivatives_match(self, make, rng):
        # the local inverse takes both from one call; it must see the floats
        # the separate calls give
        V = make()
        for n in (1, 64, 513, 3591):
            x = rng.uniform(-300, 300, size=(n, V.dimension))
            g, H = V.derivatives(x)
            assert np.array_equal(g, V.gradient(x))
            assert np.array_equal(H, V.hessian(x))

    def test_hessian_sup_bound(self, rng):
        for V in (cosine_potential(), truncated_almost_periodic(term_count=6)):
            bound = V.hessian_sup_bound()
            xs = rng.uniform(-50, 50, size=(500, 1))
            observed = np.abs(V.hessian(xs)).max()
            assert observed <= bound * (1 + 1e-12)


# both potential families in d = 1 and d = 2, each with several terms
BLOCKED = {
    "trig-1d": truncated_almost_periodic(8, 0.5),
    "trig-2d": TrigSumPotential([(1.0, [1.0, 0.0], 0.3), (0.5, [0.7, 1.3], 0.0),
                                 (-0.25, [0.0, 2.0], -1.0)]),
    "bump-1d": DeloneBumpPotential([0.0, 1.0, 2.618, 3.618, 5.236], 0.45),
    "bump-2d": DeloneBumpPotential([[0.0, 0.0], [1.0, 0.5], [0.3, 1.7]], 0.6, 1.5),
}


class TestBlockedEvaluator:
    """V evaluates its rows in blocks of at most V._block_rows; every row
    must come out as it does alone, at any count of rows around a block's
    edge."""

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(sorted(BLOCKED)),
           count=st.sampled_from(["1", "b-1", "b", "b+1", "3b+5"]),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_match_one_row_calls(self, name, count, seed):
        V = BLOCKED[name]
        b = V._block_rows
        n = {"1": 1, "b-1": b - 1, "b": b, "b+1": b + 1, "3b+5": 3 * b + 5}[count]
        x = np.random.default_rng(seed).uniform(-6.0, 6.0, size=(n, V.dimension))
        x[0] = 0.0  # where the angles of a phase-free term are zero
        g, H = V.derivatives(x)
        assert g.shape == (n, V.dimension) and H.shape == (n, V.dimension, V.dimension)
        assert g.tobytes() == V.gradient(x).tobytes()
        assert H.tobytes() == V.hessian(x).tobytes()
        # one unblocked kernel call over the whole batch
        whole = V._kernel(x, True, True)
        assert g.tobytes() == whole[0].tobytes() and H.tobytes() == whole[1].tobytes()
        alone = [V.derivatives(row[None]) for row in x]
        assert g.tobytes() == np.concatenate([a for a, _ in alone]).tobytes()
        assert H.tobytes() == np.concatenate([a for _, a in alone]).tobytes()
        assert g.tobytes() == np.concatenate([V.gradient(row[None]) for row in x]).tobytes()
        assert H.tobytes() == np.concatenate([V.hessian(row[None]) for row in x]).tobytes()
        # leading axes of the points stay in the outputs
        g2, H2 = V.derivatives(x[None])
        assert g2.shape == (1, n, V.dimension) and g2.tobytes() == g.tobytes()
        assert H2.shape == (1, n, V.dimension, V.dimension) and H2.tobytes() == H.tobytes()

    def test_one_point(self):
        for V in BLOCKED.values():
            x = np.full(V.dimension, 0.7)
            g, H = V.derivatives(x)
            assert g.shape == (V.dimension,) and H.shape == (V.dimension, V.dimension)
            assert g.tobytes() == V.gradient(x[None])[0].tobytes()
            assert H.tobytes() == V.hessian(x[None])[0].tobytes()

    def test_no_rows(self):
        for V in BLOCKED.values():
            g, H = V.derivatives(np.empty((0, V.dimension)))
            assert g.shape == (0, V.dimension) and H.shape == (0, V.dimension, V.dimension)
            assert V.value(np.empty((0, V.dimension))).shape == (0,)

    def test_d2_rows_alone(self):
        # the d > 1 angles are a matmul, which numpy runs otherwise for one
        # row than for many: each row, alone or as a point, keeps its bits
        V = BLOCKED["trig-2d"]
        x = np.random.default_rng(8).uniform(-50.0, 50.0, size=(200, 2))
        g, H = V.derivatives(x)
        value = V.value(x)
        for k, row in enumerate(x):
            for one, at in ((row[None], slice(k, k + 1)), (row, k)):
                g1, H1 = V.derivatives(one)
                assert g1.tobytes() == g[at].tobytes() and H1.tobytes() == H[at].tobytes()
                assert V.value(one).tobytes() == value[at].tobytes()

    def test_angles_match_matmul_in_d1(self):
        # the d = 1 angles are a product, bit for bit the matmul's, and
        # adding the zero phases turns -0.0 into +0.0
        V = BLOCKED["trig-1d"]
        x = np.random.default_rng(5).uniform(-1e4, 1e4, size=(10**5, 1))
        x[:3, 0] = 0.0, -0.0, 5e-324
        th = V._angles(x)
        assert th.tobytes() == (x @ V.frequencies.T + V.phases).tobytes()
        assert not np.signbit(th[1]).any()

    def test_memory_is_outputs_and_a_block(self):
        # one derivatives call on 10^5 rows of the 8-term series holds its
        # outputs and a few block-sized temporaries, not (rows, terms) ones
        V = BLOCKED["trig-1d"]
        x = np.random.default_rng(6).uniform(-300, 300, size=(10**5, 1))
        V.derivatives(x[:10])
        tracemalloc.start()
        try:
            g, H = V.derivatives(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * V._block_rows * len(V.amplitudes)
        assert block <= 8 * potentials._BLOCK
        assert peak <= g.nbytes + H.nbytes + 6 * block


class TestEstimateAubry:
    def test_cosine_certificate_numbers(self, cos_potential):
        cert = estimate_aubry(cos_potential, (-10.0, 10.0))
        assert cert.ball_radius == pytest.approx(np.pi / 4, rel=1e-6)
        assert cert.expansion == pytest.approx(np.sqrt(2) / 2, rel=1e-6)
        assert cert.covering_radius == pytest.approx(np.pi / 2, rel=1e-6)
        zeros = cert.representative_zeros()[:, 0]
        k = np.round(zeros / np.pi)
        assert np.abs(zeros - k * np.pi).max() < 1e-9

    def test_degenerate_zeros_rejected(self):
        # the gradient of sin^4 vanishes at k pi/2 but k pi is degenerate
        cert = estimate_aubry(sin4_potential(), (-10.0, 10.0))
        zeros = cert.representative_zeros()[:, 0]
        half_grid = np.abs(zeros - np.round(zeros / np.pi) * np.pi)
        assert half_grid.min() > 1.0  # every retained zero is near pi/2 + k pi
        assert np.abs(half_grid - np.pi / 2).max() < 1e-7

    def test_quasiperiodic_mix_certifies(self):
        V = TrigSumPotential([(1.0, [1.0], 0.0), (0.3, [np.sqrt(2.0)], 0.0)])
        cert = estimate_aubry(V, (-20.0, 20.0))
        assert len(cert.representative_zeros()) >= 2
        assert cert.expansion > 0
        # raises CertificationError on failure
        assert cert.verify(V) == {"zeros_checked": len(cert.representative_zeros())}

    def test_zero_free_window_fails(self, cos_potential):
        with pytest.raises(CertificationError):
            estimate_aubry(cos_potential, (0.2, 0.8))

    @pytest.mark.parametrize("points", [1, 0, -3])
    def test_grid_points_at_least_two(self, cos_potential, points):
        with pytest.raises(ValueError, match="grid_points must be >= 2"):
            estimate_aubry(cos_potential, (-10.0, 10.0), grid_points=points)

    @pytest.mark.parametrize("window", [(5.0, 5.0), (20.0, -20.0), (np.nan, 1.0)])
    def test_search_window_lo_below_hi(self, cos_potential, window):
        with pytest.raises(ValueError, match="search_window must have lo < hi"):
            estimate_aubry(cos_potential, window)

    def test_delone_bump_certifies(self):
        # short Fibonacci-spaced segment; wells of the bump sum are
        # nondegenerate minima of V, i.e. zeros of the gradient
        pts = np.cumsum([0.0, 1.0, 1.618, 1.0, 1.618, 1.618, 1.0, 1.618])
        V = DeloneBumpPotential(pts, width=0.45)
        cert = estimate_aubry(V, (float(pts[0]) - 1.0, float(pts[-1]) + 1.0))
        assert len(cert.representative_zeros()) >= 4
        assert cert.verify(V)["zeros_checked"] >= 4


def _bisection_ball_radius_1d(V, zeros, m, r_cap, radius_samples):
    """Sampled reference for the d = 1 ball radius: bisection over r of the
    check sigma_min(hessian) >= m at linspace(-r, r, radius_samples) around
    every zero."""

    def ok(r):
        for z in zeros:
            pts = z + np.linspace(-r, r, radius_samples)[:, None]
            if _sv(V.hessian(pts)).min() < m:
                return False
        return True

    lo_r, hi_r = 0.0, r_cap
    if not ok(hi_r * 1e-6):
        raise CertificationError("expansion fails arbitrarily close to a zero")
    if ok(hi_r):
        return hi_r
    for _ in range(60):
        mid = 0.5 * (lo_r + hi_r)
        if ok(mid):
            lo_r = mid
        else:
            hi_r = mid
    return lo_r


_DELONE_PTS = np.cumsum([0.0, 1.0, 1.618, 1.0, 1.618, 1.618, 1.0, 1.618])
_SCAN_CASES = (
    [("cosine", cosine_potential, (-10.0, 10.0)),
     ("sin4", sin4_potential, (-10.0, 10.0)),
     ("delone", lambda: DeloneBumpPotential(_DELONE_PTS, width=0.45),
      (_DELONE_PTS[0] - 1.0, _DELONE_PTS[-1] + 1.0))]
    + [(f"ap-ratio-{a:.3f}", lambda a=a: truncated_almost_periodic(8, a),
        (-60.0, 60.0)) for a in np.linspace(0.45, 0.55, 21)]
    # the sweep benchmark's window and default potential (8 terms)
    + [(f"ap-terms-{n}", lambda n=n: truncated_almost_periodic(n), (-200.0, 200.0))
       for n in (4, 6, 8, 10)]
)


def _fibonacci_bumps(count):
    """count bumps (width 0.45) spaced 1 and 1.618 along the Fibonacci word,
    floor(n / phi) - floor((n - 1) / phi) choosing 1.618; the first eight
    are _DELONE_PTS."""
    phi = (1 + np.sqrt(5)) / 2
    n = np.arange(1, count)
    long = np.floor(n / phi) - np.floor((n - 1) / phi)
    return np.cumsum(np.concatenate([[0.0], np.where(long == 1, 1.618, 1.0)]))


# many bumps: the Lipschitz bound L sums every bump's sup, so the proof
# needs short blocks (P = 8 is the "delone" case above)
_FIBONACCI_CASES = [
    (f"fibonacci-{count}", lambda p=p: DeloneBumpPotential(p, width=0.45),
     (p[0] - 1.0, p[-1] + 1.0))
    for count, p in ((c, _fibonacci_bumps(c)) for c in (30, 100))]


def _fine_scan_radius(V, zeros, m, r_cap):
    """A d = 1 ball radius from a 512-offset scan: the scan stops in the
    first block where some side fails, only the sides failing first at the
    least failing offset k walk, t += (|V''| - m - e) / L from s_{k-1} for
    at most 64 steps, and every other side holds h / 2 past its last
    passing offset. The reference the proof by bisection must keep."""
    samples = 512
    s = np.linspace(0.0, r_cap, samples)
    h, reach = r_cap / (samples - 1), float(np.abs(zeros).max()) + r_cap
    lip, e = V.hessian_lipschitz_bound(reach)
    e += lip * np.finfo(float).eps * reach

    def curvature(x):
        return np.abs(V.hessian(x[:, None])[:, 0, 0])

    centre, sign = np.repeat(zeros[:, 0], 2), np.tile([1.0, -1.0], len(zeros))
    block = max(1, 2 * samples // len(sign))
    k, radius = samples, r_cap
    for b in range(0, samples, block):
        x = (centre[:, None] + sign[:, None] * s[b:b + block]).ravel()
        fail = (curvature(x) < m + e + lip * h / 2).reshape(len(sign), -1)
        if fail.any():
            first = np.where(fail.any(axis=1), fail.argmax(axis=1), fail.shape[1])
            k, least = b + first.min(), first == first.min()
            if not least.all():
                radius = min(s[b + first[~least].min() - 1] + h / 2, r_cap)
            centre, sign = centre[least], sign[least]
            break
    if k < samples:
        t, going = np.full(len(sign), s[max(k - 1, 0)]), np.arange(len(sign))
        for _ in range(64):
            x = centre[going] + sign[going] * t[going]
            new = np.minimum(t[going] + (curvature(x) - m - e) / lip, radius)
            moved = new > t[going]
            t[going[moved]] = new[moved]
            going = going[moved & (new < radius)]
            if going.size == 0:
                break
        radius = min(radius, float(t.min()))
    return float(radius)


def _block_scan_radius(V, zeros, m, r_cap):
    """Reference for the d = 1 ball radius, bit for bit: the proof by
    bisection written as a scan of blocks [c - h, c + h], a list a round.
    A block near enough to its zero z to lower the radius is checked at its
    centre c: |V''(c)| below m + e bounds the radius by |c - z|, and a block
    is proved where it is at least m + e + L (h + slack); the rest split in
    two until none is left or the rounds run out."""
    eps, tol = np.finfo(float).eps, potentials._BALL_TOL_1D
    rounds = potentials._CELL_ROUNDS_1D
    lip, e = V.hessian_lipschitz_bound(float(np.abs(zeros).max()) + 2 * r_cap)
    side = 2.0 * r_cap
    slack = (rounds + 2) * eps * (float(np.abs(zeros).max()) + side)
    blocks = [(z, z) for z in zeros[:, 0].tolist()]  # (zero, centre)
    bound, left = r_cap, np.inf
    for k in range(rounds + 1):
        delta = 0.5 * side + slack
        near = [(z, c) for z, c in blocks if abs(c - z) - delta < bound * (1 - tol)]
        curv = np.abs(V.hessian(np.array([c for _, c in near]).reshape(-1, 1))[:, 0, 0])
        blocks = []
        for (z, c), v in zip(near, (v - 2 * eps * v for v in curv.tolist())):
            if not v >= m + e:
                bound = min(bound, abs(c - z))
            if not v >= m + e + lip * delta:
                blocks.append((z, c))
        left = min((abs(c - z) - delta for z, c in blocks), default=np.inf)
        if k == rounds or not blocks:
            break
        blocks = [(z, c + q * side) for z, c in blocks for q in (-0.25, 0.25)]
        side /= 2
    radius = min(bound * (1 - tol), left)
    if radius < 1e-6 * r_cap:
        raise CertificationError(potentials._NEAR_ZERO_FAILURE)
    return float(radius)


def _same_radius(V, zeros, m, r_cap):
    """The proof's radius equals the block scan's, bit for bit, or both
    raise the same CertificationError."""
    got, want = (_outcome(f, V, np.asarray(zeros, dtype=float), m, r_cap)
                 for f in (_ball_expansion_radius, _block_scan_radius))
    assert got == want and type(got) is type(want)


class TestBallRadiusScan:
    @pytest.mark.parametrize("make, window",
                             [c[1:] for c in _SCAN_CASES + _FIBONACCI_CASES],
                             ids=[c[0] for c in _SCAN_CASES + _FIBONACCI_CASES])
    def test_matches_block_scan(self, make, window, monkeypatch):
        seen = []

        def spy(*args):
            seen.append(args)
            return _ball_expansion_radius(*args)

        monkeypatch.setattr(potentials, "_ball_expansion_radius", spy)
        V = make()
        estimate_aubry(V, window)
        (_, zeros, m, r_cap), = seen
        _same_radius(V, zeros, m, r_cap)

    @pytest.mark.parametrize("make, window",
                             [c[1:] for c in _SCAN_CASES + _FIBONACCI_CASES],
                             ids=[c[0] for c in _SCAN_CASES + _FIBONACCI_CASES])
    def test_coarse_scan_not_below_fine(self, make, window, monkeypatch):
        # the proof keeps the 512-offset scan's r to within 2^-22 relative,
        # twice its own stop, or beats it where the scan's walks stall; R and
        # m do not depend on the ball radius; |V''| >= m on every ball
        V = make()
        cert = estimate_aubry(V, window)
        monkeypatch.setattr(potentials, "_ball_expansion_radius", _fine_scan_radius)
        fine = estimate_aubry(V, window)
        assert cert.ball_radius >= fine.ball_radius * (1 - 2**-22)
        assert cert.covering_radius == fine.covering_radius
        assert cert.expansion == fine.expansion
        r, m = cert.ball_radius, cert.expansion
        for z in cert.representative_zeros():
            ball = z + np.linspace(-r, r, 2001)[:, None]
            assert _sv(V.hessian(ball)).min() >= m

    @pytest.mark.parametrize("make, window", [c[1:] for c in _SCAN_CASES],
                             ids=[c[0] for c in _SCAN_CASES])
    def test_matches_bisection(self, make, window, monkeypatch):
        # the proved constants against the sampled ones: r at most the
        # sampled bisection's radius and within 1% of it, R at least half
        # the largest gap, m the sampled m bit for bit
        seen = []

        def spy(*args):
            seen.append((args, _ball_expansion_radius(*args)))
            return seen[-1][1]

        monkeypatch.setattr(potentials, "_ball_expansion_radius", spy)
        V = make()
        cert = estimate_aubry(V, window)
        (_, zeros, m, r_cap), r = seen[0]
        sampled = _bisection_ball_radius_1d(V, zeros, m, r_cap, 128)
        w = cert.metadata["zero_error"]
        assert cert.ball_radius == np.nextafter(r - w, 0.0)
        assert 0.99 * sampled <= cert.ball_radius <= r <= sampled
        found = potentials._scan_zeros_1d(V, *window, 4001)[:, None]
        curvature = np.abs(V.hessian(found)[:, 0, 0])
        kept = curvature[curvature >= 0.1 * curvature.max()]
        assert cert.expansion == m == 2**-0.5 * kept.min()
        pts = np.sort(cert.representative_zeros()[:, 0])
        if isinstance(cert.sampler, PeriodicZeroSet):
            pts = np.append(pts, pts[0] + cert.sampler.period)
        half_gap = np.diff(pts).max() / 2
        assert half_gap + w <= cert.covering_radius <= half_gap + w + 1e-12

    @pytest.mark.parametrize("m, r_cap", [(0.1, 1.0), (0.5, 3.0), (0.9, 0.3),
                                          (0.999, 2.0), (0.7, np.pi)])
    # off-zero centres make the two sides differ: -0.3 binds on its left
    @pytest.mark.parametrize("zeros", [[[0.0], [np.pi]], [[-0.3]], [[0.3], [2.9]]])
    def test_cosine_direct(self, cos_potential, m, r_cap, zeros):
        # below the sampled bisection by less than 2^-22 relative, and
        # |V''| >= m on a dense grid of every ball
        zeros = np.array(zeros)
        _same_radius(cos_potential, zeros, m, r_cap)
        if np.abs(np.cos(zeros)).min() < m:  # fails at a centre: both refuse
            with pytest.raises(CertificationError):
                _bisection_ball_radius_1d(cos_potential, zeros, m, r_cap, 64)
            with pytest.raises(CertificationError, match="arbitrarily close"):
                _ball_expansion_radius(cos_potential, zeros, m, r_cap)
            return
        r = _ball_expansion_radius(cos_potential, zeros, m, r_cap)
        sampled = _bisection_ball_radius_1d(cos_potential, zeros, m, r_cap, 64)
        assert sampled * (1 - 2**-22) <= r <= sampled
        balls = (zeros + np.linspace(-r, r, 20001)).reshape(-1, 1)
        assert _sv(cos_potential.hessian(balls)).min() >= m

    @pytest.mark.parametrize("m", [1.5, 1.0 - 1e-14])
    @pytest.mark.parametrize("zeros", [[[0.0]], [[np.pi], [0.0]]])
    def test_fails_near_the_zero(self, cos_potential, zeros, m):
        # |V''(z + s)| = cos(s) at a zero z of the cosine: below m = 1.5 at
        # every s, below m = 1 - 1e-14 from s = 1.4e-7 (under 1e-6 r_cap) on
        zeros = np.array(zeros)
        with pytest.raises(CertificationError, match="arbitrarily close"):
            _ball_expansion_radius(cos_potential, zeros, m, 1.0)
        with pytest.raises(CertificationError):
            _bisection_ball_radius_1d(cos_potential, zeros, m, 1.0, 512)
        _same_radius(cos_potential, zeros, m, 1.0)

    def test_hessian_rows_bounded(self, monkeypatch):
        V = truncated_almost_periodic(8, 0.5)
        calls = []
        hessian = V.hessian

        def counting(x):
            calls.append(np.shape(x)[0])
            return hessian(x)

        monkeypatch.setattr(V, "hessian", counting)
        cert = estimate_aubry(V, (-200.0, 200.0))
        sides = 2 * cert.metadata["zeros_retained"]
        # one call at the zeros found; then one a round of the bisection,
        # which splits only the blocks at each ball's two crossings once the
        # first rounds have proved the rest
        assert calls[0] == cert.metadata["zeros_found"]
        assert max(calls[1:]) <= 2 * sides
        assert len(calls) <= 30
        assert sum(calls) < 2500


def _polish_zero_1d(V, a, b, iters=200):
    """Reference for one row of _polish_zeros_1d: the one-bracket scalar
    bisection estimate_aubry ran before the brackets were batched."""
    fa = float(V.gradient(np.array([a]))[0])
    fb = float(V.gradient(np.array([b]))[0])
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise ValueError("not a bracket")
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        fm = float(V.gradient(np.array([mid]))[0])
        if fm == 0.0:
            return mid
        if fa * fm < 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _brackets(V, window, grid_points=4001):
    """The sign-change brackets of estimate_aubry's grid scan."""
    xs = np.linspace(*window, grid_points)
    g = V.gradient(xs[:, None])[:, 0]
    j = np.nonzero(g[:-1] * g[1:] < 0)[0]
    return xs[j], xs[j + 1]


class TestZeroPolish:
    @pytest.mark.parametrize("make, window", [c[1:] for c in _SCAN_CASES],
                             ids=[c[0] for c in _SCAN_CASES])
    def test_matches_one_bracket_bisection(self, make, window):
        V = make()
        a, b = _brackets(V, window)
        assert a.size > 0
        expect = [_polish_zero_1d(V, x, y) for x, y in zip(a, b)]
        assert np.array_equal(_polish_zeros_1d(V, a, b), expect)

    @pytest.mark.parametrize("iters", [0, 1, 5, 30])
    def test_step_cap(self, iters):
        V = truncated_almost_periodic(8, 0.5)
        a, b = _brackets(V, (-60.0, 60.0))
        expect = [_polish_zero_1d(V, x, y, iters) for x, y in zip(a, b)]
        assert np.array_equal(_polish_zeros_1d(V, a, b, iters), expect)

    def test_exact_zero_endpoints(self, cos_potential):
        # psi = -sin is exactly 0 at 0.0: an exact-zero end wins, a before b
        a = np.array([0.0, -1.0, 0.0, 2.0, -0.5, 3.0])
        b = np.array([1.0, 0.0, 0.0, 4.0, 0.5, 3.5])
        expect = [_polish_zero_1d(cos_potential, x, y) for x, y in zip(a, b)]
        got = _polish_zeros_1d(cos_potential, a, b)
        assert np.array_equal(got, expect)
        assert np.array_equal(got[:3], [0.0, 0.0, 0.0])
        assert abs(got[3] - np.pi) < 1e-15 and got[4] == 0.0

    def test_not_a_bracket(self, cos_potential):
        # -sin is negative at 0.5 and at 1.0
        with pytest.raises(ValueError, match="not a bracket"):
            _polish_zero_1d(cos_potential, 0.5, 1.0)
        with pytest.raises(ValueError, match="not a bracket"):
            _polish_zeros_1d(cos_potential, np.array([2.0, 0.5]), np.array([4.0, 1.0]))

    def test_gradient_calls_bounded(self, monkeypatch):
        # one scan, one call for the bracket ends, one per bisection step
        # (under 64 to adjacent floats here), then one for the zero check
        V = truncated_almost_periodic(8, 0.5)
        calls = []
        gradient = V.gradient

        def counting(x):
            calls.append(np.shape(x)[0])
            return gradient(x)

        monkeypatch.setattr(V, "gradient", counting)
        cert = estimate_aubry(V, (-200.0, 200.0))
        assert cert.metadata["verification"] == {"zeros_checked": calls[-1]}
        assert calls[-1] == cert.metadata["zeros_retained"]
        assert len(calls) <= 2 + 64 + 1
        assert max(calls) <= 4001  # the grid scan


def _scan_zeros_nd_loop(V, lo, hi, grid_points, zero_tol):
    """Reference for potentials._scan_zeros_nd: the same Newton scan, with
    its roots deduplicated one root at a time against every root kept."""
    d = lo.shape[0]
    per_dim = max(8, int(round(grid_points ** (1.0 / d))))
    mesh = np.meshgrid(*[np.linspace(lo[j], hi[j], per_dim) for j in range(d)], indexing="ij")
    y = np.stack([m.ravel() for m in mesh], axis=1)
    for _ in range(60):
        g, H = V.derivatives(y)
        if np.linalg.norm(g, axis=1).max() <= zero_tol * 1e-3:
            break
        ok = _sv(H).prod(axis=-1) > 1e-12
        step = np.zeros_like(y)
        step[ok] = potentials._solve(H[ok], g[ok])
        y = np.clip(y - step, lo, hi)
    inside = ((y > lo + 1e-9) & (y < hi - 1e-9)).all(axis=1)
    roots = y[(np.linalg.norm(V.gradient(y), axis=1) <= zero_tol) & inside]
    tol = max(1e-8 * float(np.linalg.norm(hi - lo)), 1e-10)
    kept = []
    for p in roots:
        if all(np.linalg.norm(p - q) > tol for q in kept):
            kept.append(p)
    return np.array(kept).reshape(-1, d)


_COS2 = [(1.0, [1.0, 0.0], 0.0), (1.0, [0.0, 1.0], 0.0)]


@pytest.mark.parametrize("terms, lo, hi", [
    (_COS2, -10.0, 10.0),
    (_COS2 + [(0.3, [1.0, 1.0], 0.5)], -10.0, 10.0),
    ([(1.0, [1.0, 0.3, 0.0], 0.0), (1.0, [0.0, 1.0, 0.2], 0.1), (0.7, [0.0, 0.0, 1.0], 0.5)],
     -7.0, 7.0),
    (_COS2, 0.2, 0.8)])  # no zero in the window
def test_scan_zeros_nd_matches_the_root_loop(terms, lo, hi):
    V = TrigSumPotential(terms)
    lo, hi = np.full(V.dimension, lo), np.full(V.dimension, hi)
    got = potentials._scan_zeros_nd(V, lo, hi, 4001, 1e-9)
    want = _scan_zeros_nd_loop(V, lo, hi, 4001, 1e-9)
    assert got.shape == want.shape and np.array_equal(got, want)
    if hi[0] < 1:
        with pytest.raises(CertificationError, match="no zeros"):
            estimate_aubry(V, (lo, hi))


def _outcome(verify, *args):
    """verify(*args)'s dict, or the text of the CertificationError it raises."""
    try:
        return verify(*args)
    except CertificationError as exc:
        return str(exc)


class TestCertificateInvariants:
    def test_listed_zeros_have_small_gradient(self, cos_potential):
        cert = estimate_aubry(cos_potential, (-10.0, 10.0))
        for z in cert.representative_zeros():
            assert abs(cos_potential.gradient(z)[0]) <= cert.zero_tol

    def test_sampled_expansion(self, cos_potential, cos_cert, rng):
        r, m = cos_cert.ball_radius, cos_cert.expansion
        z = 0.0
        x = rng.uniform(z - r, z + r, size=1000)
        y = rng.uniform(z - r, z + r, size=1000)
        lhs = np.abs(np.sin(x) - np.sin(y))
        assert np.all(lhs >= m * np.abs(x - y) - 1e-12)

    def test_covering(self, cos_cert, rng):
        R = cos_cert.covering_radius
        centers = rng.uniform(-10 + R, 10 - R, size=1000)
        for c in centers:
            pts = cos_cert.sampler.points_near(c, R)
            assert len(pts) >= 1

    def test_verify_passes_and_counts(self, cos_potential, cos_cert):
        assert cos_cert.verify(cos_potential) == {"zeros_checked": 1}

    def test_verify_rejects_wrong_potential(self, cos_cert):
        # the cosine certificate is false for a potential whose gradient
        # does not vanish on pi Z
        shifted = TrigSumPotential([(1.0, [1.0], 0.4)])
        with pytest.raises(CertificationError, match="at a reported zero exceeds zero_tol"):
            cos_cert.verify(shifted)

    def test_json_roundtrip(self, cos_cert):
        d = cos_cert.to_json_dict()
        back = AubryCertificate.from_json_dict(d)
        assert back.ball_radius == cos_cert.ball_radius
        assert back.covering_radius == cos_cert.covering_radius
        assert back.expansion == cos_cert.expansion
        assert np.array_equal(
            back.representative_zeros(), cos_cert.representative_zeros()
        )


class TestLocalInverse:
    def test_zero_target_returns_anchor(self, cos_potential, cos_cert):
        y = local_inverse(cos_potential, np.array([0.0]), np.array([0.0]), cos_cert)
        assert y[0] == pytest.approx(0.0, abs=1e-13)

    def test_against_bisection_oracle(self, cos_potential, cos_cert):
        target = 0.1
        y = local_inverse(
            cos_potential, np.array([0.0]), np.array([target]), cos_cert
        )
        y_oracle = bisect(
            lambda t: -np.sin(t) - target, -np.pi / 4, np.pi / 4
        )
        assert y[0] == pytest.approx(y_oracle, abs=1e-11)
        assert y[0] == pytest.approx(-np.arcsin(target), abs=1e-11)

    def test_right_inverse_property(self, cos_potential, cos_cert, rng):
        rm = cos_cert.admissible_radius
        targets = rng.uniform(-rm, rm, size=200)
        for t in targets:
            y = local_inverse(
                cos_potential, np.array([0.0]), np.array([t]), cos_cert, tol=1e-12
            )
            assert abs(-np.sin(y[0]) - t) <= 1e-12

    def test_lipschitz_constant(self, cos_potential, cos_cert, rng):
        rm = cos_cert.admissible_radius
        m = cos_cert.expansion
        t1 = rng.uniform(-rm, rm, size=300)
        t2 = rng.uniform(-rm, rm, size=300)
        z = np.array([0.0])
        for a, b in zip(t1, t2):
            ya = local_inverse(cos_potential, z, np.array([a]), cos_cert)
            yb = local_inverse(cos_potential, z, np.array([b]), cos_cert)
            assert abs(ya[0] - yb[0]) <= abs(a - b) / m + 1e-11

    def test_inadmissible_target(self, cos_potential, cos_cert):
        with pytest.raises(DomainError):
            local_inverse(
                cos_potential,
                np.array([0.0]),
                np.array([cos_cert.admissible_radius * 1.01]),
                cos_cert,
            )

    def test_batch_matches_scalar(self, cos_potential, cos_cert, rng):
        centers = np.array([[0.0], [np.pi], [-np.pi]])
        targets = rng.uniform(-0.5, 0.5, size=(3, 1))
        batch = local_inverse_batch(cos_potential, centers, targets, cos_cert)
        for k in range(3):
            single = local_inverse(
                cos_potential, centers[k], targets[k], cos_cert
            )
            assert batch[k, 0] == pytest.approx(single[0], abs=1e-13)


    def test_far_rows_reach_the_float_floor(self, cos_potential, cos_cert, rng):
        # at |z| ~ 2e4 an absolute tol of 1e-15 lies below the float
        # spacing of y; every row stops at the floor instead
        k = rng.integers(6300, 6400, size=400) * np.where(
            np.arange(400) % 2, 1, -1)
        centers = (k * np.pi)[:, None]
        rm = cos_cert.admissible_radius
        targets = rng.uniform(-rm, rm, size=(400, 1))
        y = local_inverse_batch(cos_potential, centers, targets, cos_cert,
                                tol=1e-15)
        defect = np.abs(cos_potential.gradient(y) - targets)[:, 0]
        floor = (0.5 * np.spacing(np.abs(y[:, 0]))
                 * np.abs(cos_potential.hessian(y)[:, 0, 0])
                 + 4 * np.finfo(float).eps)
        assert (defect <= floor).all()
        root = k * np.pi - (-1.0) ** k * np.arcsin(targets[:, 0])
        assert np.abs(y[:, 0] - root).max() <= 2 * np.spacing(2.1e4)

    @pytest.mark.parametrize("d", [1, 2])
    def test_warm_start_projected_onto_ball(self, d, rng):
        # starts on the ball edge, inside it and far outside it (projected
        # back onto the edge) reach the cold start's roots
        V = TrigSumPotential([(1.0, np.eye(d)[j], 0.0) for j in range(d)])
        r = np.pi / 4
        cert = AubryCertificate(
            sampler=FiniteZeroSet(np.zeros((1, d)), -1.0, 1.0),
            covering_radius=np.pi / 2 * np.sqrt(d), ball_radius=r,
            expansion=np.cos(np.pi / 4),
        )
        centers = np.pi * rng.integers(-3, 4, size=(300, d))
        rm = cert.admissible_radius / np.sqrt(d)
        targets = rng.uniform(-rm, rm, size=(300, d))
        cold = local_inverse_batch(V, centers, targets, cert, tol=1e-14)
        dirs = rng.standard_normal((300, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        scale = np.array([r, 0.5 * r, 40.0])[np.arange(300) % 3, None]
        warm = local_inverse_batch(V, centers, targets, cert, tol=1e-14,
                                   start=centers + scale * dirs)
        assert np.abs(warm - cold).max() <= 1e-13
        assert np.linalg.norm(warm - centers, axis=1).max() <= r

    @pytest.mark.parametrize("d", [1, 2])
    def test_values_at_start_serve_the_first_step(self, d, rng):
        # rows started at their roots with V's values there end in the
        # first step without a V row; three rows placed r (1 + 1e-10) from
        # their anchor are moved onto the ball (clip or projection), and
        # only those are evaluated, first at the moved point
        V = TrigSumPotential([(1.0, np.eye(d)[j], 0.0) for j in range(d)])
        r = np.pi / 4
        cert = AubryCertificate(
            sampler=FiniteZeroSet(np.zeros((1, d)), -1.0, 1.0),
            covering_radius=np.pi / 2 * np.sqrt(d), ball_radius=r,
            expansion=np.cos(np.pi / 4),
        )
        n, moved = 64, [5, 17, 40]
        centers = np.pi * rng.integers(-3, 4, size=(n, d))
        rm = cert.admissible_radius / np.sqrt(d)
        targets = rng.uniform(-rm, rm, size=(n, d))
        start, grad, hess = local_inverse_batch(V, centers, targets, cert, tol=1e-14,
                                                derivatives=True)
        dirs = rng.standard_normal((3, d))
        start[moved] = centers[moved] + r * (1 + 1e-10) * dirs / np.linalg.norm(
            dirs, axis=1, keepdims=True)
        grad[moved], hess[moved] = V.derivatives(start[moved])
        handed = [x.tobytes() for x in (start, grad, hess)]
        calls, evaluate = [], V.derivatives
        V.derivatives = lambda x: calls.append(np.array(x)) or evaluate(x)
        y, g, h = local_inverse_batch(V, centers, targets, cert, tol=1e-14, start=start,
                                      derivatives=True, at_start=(grad, hess))
        assert [x.tobytes() for x in (start, grad, hess)] == handed  # only read
        assert calls and len(calls[0]) == 3 and all(len(x) <= 3 for x in calls)
        assert np.abs(calls[0] - start[moved]).max() <= 1e-9
        assert np.linalg.norm(calls[0] - centers[moved], axis=1).max() <= r * (1 + 1e-15)
        still = np.setdiff1d(np.arange(n), moved)
        for a, b in ((y, start), (g, grad), (h, hess)):
            assert a[still].tobytes() == b[still].tobytes()
        assert g.tobytes() == V.gradient(y).tobytes()  # a row does not
        assert h.tobytes() == V.hessian(y).tobytes()   # depend on its batch
        # all rows at their roots and no row moved: no V row at all
        calls.clear()
        again = local_inverse_batch(V, centers, targets, cert, tol=1e-14, start=y,
                                    derivatives=True, at_start=(g, h))
        assert calls == [] and again[0].tobytes() == y.tobytes()
        assert np.shares_memory(again[1], g) and np.shares_memory(again[2], h)

    def test_singular_hessian_raises_naming_its_row(self):
        # V = cos x in d = 2 has a singular hessian everywhere: the rows
        # that need a Newton step fail, the first one named
        V = TrigSumPotential([(1.0, [1.0, 0.0], 0.0)])
        cert = AubryCertificate(
            sampler=FiniteZeroSet(np.zeros((1, 2)), -1.0, 1.0),
            covering_radius=np.pi, ball_radius=np.pi / 4, expansion=np.cos(np.pi / 4))
        targets = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0], [-0.2, 0.0]])
        with pytest.raises(ConvergenceError, match="row 2: singular hessian") as got:
            local_inverse_batch(V, np.zeros((4, 2)), targets, cert)
        assert got.value.row == 2

    @pytest.mark.parametrize("d", [1, 2])
    def test_row_without_root_raises_naming_it(self, d):
        # the second target has no preimage in the ball (its norm exceeds
        # r*m), so projected Newton (d = 2) or the bracket (d = 1) fails
        V = TrigSumPotential([(1.0, np.eye(d)[j], 0.0) for j in range(d)])
        cert = AubryCertificate(
            sampler=FiniteZeroSet(np.zeros((1, d)), -1.0, 1.0),
            covering_radius=np.pi / 2 * np.sqrt(d), ball_radius=np.pi / 4,
            expansion=np.cos(np.pi / 4),
        )
        centers = np.zeros((3, d))
        targets = np.zeros((3, d))
        targets[0, 0], targets[1, 0], targets[2, 0] = 0.1, 0.9, -0.2
        with pytest.raises(ConvergenceError, match="row 1"):
            local_inverse_batch(V, centers, targets, cert)


def _unit_cert(d, r=np.pi / 4):
    return AubryCertificate(sampler=FiniteZeroSet(np.zeros((1, d)), -1.0, 1.0),
                            covering_radius=np.pi / 2 * np.sqrt(d), ball_radius=r,
                            expansion=np.cos(np.pi / 4))


class _SingularBeyond:
    """psi(y) = y + y^3 in d = 2, whose hessian diag(1 + 3 y^2) is replaced
    by 0 where y_0 > 1/2: a row whose first step lands there fails in the
    second step with a singular hessian."""

    dimension = 2

    def derivatives(self, x):
        x = np.asarray(x, dtype=float)
        H = np.zeros(x.shape + (2,))
        H[..., [0, 1], [0, 1]] = (1 + 3 * x**2) * (x[..., :1] <= 0.5)
        return x + x**3, H


class _PathDependent:
    """psi(y) = y in d = 1 with hessians chosen so that Newton from 0.625
    and from -0.5 meets at 0.5, each with its own bracket, and leaves both
    brackets there."""

    dimension = 1

    def derivatives(self, x):
        x = np.asarray(x, dtype=float)
        return x, np.select([x == 0.625, x == -0.5, x == 0.5], [5.0, 0.5, 0.125], 1.0)[..., None]


class TestRepeatedRows:
    """Rows that repeat one local problem bit for bit come out of
    local_inverse_batch as the problem does alone, bit for bit, and an
    error names the lowest failing row. A solver hands the first step V at
    its start chains from _at_runs, which evaluates V once per run of
    bit-equal rows along a chain."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_repeats_get_the_distinct_rows_bytes(self, d, rng):
        V = TrigSumPotential([(1.0, np.eye(d)[j], 0.0) for j in range(d)])
        cert, distinct = _unit_cert(d), 12
        centers = np.pi * rng.integers(-3, 4, size=(distinct, d))
        rm = cert.admissible_radius / np.sqrt(d)
        targets = rng.uniform(-rm, rm, size=(distinct, d))
        start = centers + rng.uniform(-0.5, 0.5, size=(distinct, d))
        tol = np.where(np.arange(distinct) % 3, 1e-12, 1e-14)
        # the first six rows twice with another tolerance
        pick = np.concatenate([rng.integers(0, distinct, 300), np.arange(6)])
        tols = np.concatenate([tol[pick[:300]], np.full(6, 1e-10)])
        got = local_inverse_batch(V, centers[pick], targets[pick], cert, tol=tols,
                                  start=start[pick], derivatives=True)
        alone = local_inverse_batch(V, centers, targets, cert, tol=tol, start=start,
                                    derivatives=True)
        loose = local_inverse_batch(V, centers[:6], targets[:6], cert, tol=1e-10,
                                    start=start[:6], derivatives=True)
        for a, c, e in zip(got, alone, loose):
            assert a[:300].tobytes() == c[pick[:300]].tobytes()
            assert a[300:].tobytes() == e.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_first_step_evaluates_each_run_once(self, d, rng):
        # three chains, site-major, started at their anchors, which stay on
        # one zero for runs of sites: _at_runs takes the first row of each
        # run along a chain, and every row comes out as from V's values at
        # all the start rows, or from V evaluated by the local inverse
        V = TrigSumPotential([(1.0, np.eye(d)[j], 0.0) for j in range(d)])
        cert, K = _unit_cert(d), 3
        anchors = np.pi * np.repeat(rng.integers(-2, 3, size=(12, K, d)), 4, axis=0)
        runs = K + int((anchors[1:] != anchors[:-1]).any(axis=-1).sum())
        rm = cert.admissible_radius / np.sqrt(d)
        centers = anchors.reshape(-1, d)
        targets = rng.uniform(-rm, rm, size=centers.shape)
        want = local_inverse_batch(V, centers, targets, cert, start=centers, derivatives=True,
                                   at_start=V.derivatives(centers))
        fresh = local_inverse_batch(V, centers, targets, cert, start=centers,
                                    derivatives=True)
        calls, evaluate = [], V.derivatives
        V.derivatives = lambda x: calls.append(len(x)) or evaluate(x)
        at_start = potentials._at_runs(V, centers, K)
        assert calls == [runs] and runs < len(centers)
        got = local_inverse_batch(V, centers, targets, cert, start=centers,
                                  derivatives=True, at_start=at_start)
        for a, b, c in zip(got, want, fresh):
            assert a.tobytes() == b.tobytes() == c.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("repeat", [1, 3])
    def test_runs_match_a_fresh_evaluation(self, d, repeat, rng):
        # with no row repeating the one before it along its chain, the one
        # V call takes the rows as they are; with repeats, fewer rows
        V = TrigSumPotential([(1.0, np.eye(d)[j], 0.5 * j) for j in range(d)])
        y = np.repeat(rng.uniform(-5.0, 5.0, size=(40, d)), repeat, axis=0)
        calls, evaluate = [], V.derivatives
        V.derivatives = lambda x: calls.append(x) or evaluate(x)
        got = potentials._at_runs(V, y, 2)
        for a, b in zip(got, evaluate(y)):
            assert a.tobytes() == b.tobytes()
        assert len(calls) == 1
        assert calls[0] is y if repeat == 1 else len(calls[0]) < len(y)

    def test_bracket_is_part_of_a_row(self):
        # both rows are at 0.5 after the first step, brackets [-1, 0.625]
        # and [-0.5, 1]; bisection then ends them at -0.25 (within tol) and
        # 0, each as it ends alone
        args = (_PathDependent(), np.zeros((2, 1)), np.zeros((2, 1)), _unit_cert(1, r=1.0))
        start = np.array([[0.625], [-0.5]])
        y = local_inverse_batch(*args, tol=0.3, start=start)
        assert y.tolist() == [[-0.25], [0.0]]
        for j in range(2):
            alone = local_inverse_batch(args[0], args[1][:1], args[2][:1], args[3],
                                        tol=0.3, start=start[j:j + 1])
            assert alone.tobytes() == y[j:j + 1].tobytes()

    @pytest.mark.parametrize("kind", ["no-root-1d", "max-iter-2d", "singular-2d"])
    def test_errors_name_the_lowest_repeat(self, kind):
        # rows 1, 3 and 5 repeat one failing row, rows 0 and 4 a good one;
        # without rows 0 and 1 the batch fails at its row 1, the old row 3
        if kind == "singular-2d":
            V, cert, bad, match = _SingularBeyond(), _unit_cert(2, r=1.0), 0.6, "singular"
        else:
            d = 1 if kind == "no-root-1d" else 2
            V = TrigSumPotential([(1.0, np.eye(d)[j], 0.0) for j in range(d)])
            cert, bad = _unit_cert(d), 0.9
            match = "no root" if d == 1 else "after 100 steps"
        d = V.dimension
        targets = np.zeros((6, d))
        targets[:, 0] = 0.3, bad, -0.2, bad, 0.3, bad
        for first in (0, 2):
            with pytest.raises(ConvergenceError, match=f"row 1\\b.*{match}") as got:
                local_inverse_batch(V, np.zeros((6 - first, d)), targets[first:], cert)
            assert got.value.row == 1


class TestSigmaMin:
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_svd(self, d, rng):
        # the certificate reads sigma_min(H) as the last singular value:
        # bit for bit LAPACK's in d = 1; in d = 2 the closed form is within
        # 2 eps sigma_max of the exact value (hyperbolicity._sv) and
        # LAPACK's 2 x 2 SVD within a few ulps, so the two lie within
        # 4 eps sigma_max of each other
        H = rng.standard_normal((2000, d, d))
        svd = np.linalg.svd(H, compute_uv=False)
        got = _sv(H)
        if d == 1:
            assert np.array_equal(got[:, -1], svd.min(axis=-1))
        else:
            assert (got[:, 0] >= got[:, 1]).all()
            gap = np.abs(got - svd).max(axis=-1)
            assert (gap <= 4 * np.finfo(float).eps * svd[:, 0]).all()


def _nearest_by_lookup(sampler, x, radius):
    """Per-site reference: every zero within radius, closest first, ties
    (1e-12 relative) to the lowest."""
    pts = sampler.points_near(x, radius)[:, 0]
    if pts.size == 0:
        raise CertificateError("empty")
    dists = np.abs(pts - x)
    best = dists.min()
    return pts[dists <= best + 1e-12 * (1.0 + best)].min()


class TestNearest:
    @pytest.mark.parametrize("base, period", [
        ([0.0], np.pi), ([0.0, 1.0], 3.0), ([0.3, 1.7, 2.2], 2.5)])
    def test_periodic_matches_lookup(self, base, period, rng):
        s = PeriodicZeroSet(base, period)
        b = np.sort(base)
        R = np.diff(np.concatenate([b, [b[0] + period]])).max() / 2
        radius = R * (1 + 1e-12) + 1e-12
        sites = np.arange(-40, 41, dtype=float)
        rhos = np.concatenate([rng.uniform(-50, 50, 20),
                               [0.0, np.pi / 2, -np.pi / 2, period / 2,
                                period, -period / 4, 0.5, 1.5, 40.0]])
        # rotations times sites, plus exact midpoints between zeros
        mids = [z + k * period + g / 2 for z, g in
                zip(b, np.diff(np.concatenate([b, [b[0] + period]])))
                for k in range(-5, 6)]
        xs = np.concatenate([np.multiply.outer(sites, rhos).ravel(), mids])
        got = s.nearest(xs[:, None], radius)
        expect = [_nearest_by_lookup(s, x, radius) for x in xs]
        assert got.shape == (xs.size, 1)
        assert got[:, 0].tobytes() == np.array(expect).tobytes()

    def test_periodic_radius_too_small(self):
        s = PeriodicZeroSet([0.0, 1.0], 3.0)
        assert s.nearest(np.array([[0.4], [2.0]]), 1.0)[:, 0].tolist() == [0.0, 1.0]
        with pytest.raises(CertificateError):
            s.nearest(np.array([[0.4], [2.0]]), 0.9)
        with pytest.raises(CertificateError):
            _nearest_by_lookup(s, 2.0, 0.9)

    def test_finite_matches_periodic(self, rng):
        pts = np.arange(-20, 21) * np.pi
        finite = FiniteZeroSet(pts, pts[0], pts[-1])
        periodic = PeriodicZeroSet([0.0], np.pi)
        xs = np.concatenate([rng.uniform(-60, 60, 200), [np.pi / 2, 0.0]])
        assert np.array_equal(finite.nearest(xs[:, None], np.pi / 2 + 1e-12),
                              periodic.nearest(xs[:, None], np.pi / 2 + 1e-12))
        with pytest.raises(CertificateError):
            finite.nearest(np.array([[70.0]]), np.pi)


def _finite_nearest_by_rows(sampler, xs, radius):
    """Per-row reference for FiniteZeroSet.nearest: one points_near per
    row, ties (1e-12 relative) to the lexicographically smallest."""
    out = np.empty_like(xs)
    for j, x in enumerate(xs):
        pts = sampler.points_near(x, radius)
        if pts.shape[0] == 0:
            raise CertificateError(f"no zero within radius {radius} of {x}")
        dists = np.linalg.norm(pts - x, axis=1)
        best = dists.min()
        candidates = pts[dists <= best + 1e-12 * (1.0 + best)]
        out[j] = candidates[np.lexsort(candidates.T[::-1])[0]]
    return out


def _finite_nearest_slab_reduce(s, xs, radius, block=32, gap=1024):
    """Reference kernel for FiniteZeroSet.nearest: it builds the (rows,
    slab, d) difference array and reduces it over its last axis, and
    starts a new block of rows where more than ``gap`` points lie between
    two sorted rows. The column-by-column kernel, one block every
    ``block`` rows (d > 1), and the one-searchsorted lookup (d = 1) must
    match it bit for bit, errors included."""
    xs = np.asarray(xs, dtype=float).reshape(-1, s.dimension)
    s._check_box(xs)
    pts = s.points[np.lexsort(s.points.T[::-1])]
    keys = pts[:, 0]
    pad = radius * (1.0 + 1e-9) + 1e-9 * (1.0 + np.abs(keys).max(initial=0.0))
    out = np.empty_like(xs)
    order = np.argsort(xs[:, 0], kind="stable")
    between = np.diff(keys.searchsorted(xs[order, 0]))
    bounds = np.r_[0, np.flatnonzero(between > gap) + 1, len(xs)]
    missing = len(xs)
    for start, end in zip(bounds[:-1], bounds[1:]):
        for lo in range(start, end, block):
            rows = order[lo:min(lo + block, end)]
            x = xs[rows]
            ends = np.fmin.reduce(x[:, 0]) - pad, np.fmax.reduce(x[:, 0]) + pad
            cand = pts[slice(*keys.searchsorted(ends))]
            diff = cand - x[:, None]
            dist = np.sqrt(np.add.reduce(diff * diff, axis=-1))
            dist = np.where(dist <= radius, dist, np.inf)
            best = dist.min(axis=1, initial=np.inf, keepdims=True)
            if best.max() == np.inf:
                missing = min(missing, int(rows[np.isinf(best[:, 0])].min()))
                continue
            keep = dist <= best + 1e-12 * (1.0 + best)
            out[rows] = cand[keep.argmax(axis=1)]
    if missing < len(xs):
        raise CertificateError(f"no zero within radius {radius} of {xs[missing]}")
    return out


def _assert_matches_slab_reduce(s, xs, radius):
    try:
        expect = _finite_nearest_slab_reduce(s, xs, radius)
    except CertificateError as exc:
        with pytest.raises(CertificateError) as got:
            s.nearest(xs, radius)
        assert str(got.value) == str(exc)
    else:
        assert s.nearest(xs, radius).tobytes() == expect.tobytes()


def _pi_grid(k=6):
    axis = np.pi * np.arange(-k, k + 1)
    return np.array([[x, y] for x in axis for y in axis])


class TestFiniteNearest:
    def test_d1_midpoints(self, rng):
        pts = np.sort(rng.uniform(-50, 50, 130))
        s = FiniteZeroSet(pts, pts[0], pts[-1])
        radius = np.diff(pts).max() / 2 * (1 + 1e-12) + 1e-12
        xs = np.concatenate([(pts[1:] + pts[:-1]) / 2, pts,
                             rng.uniform(pts[0], pts[-1], 200)])[:, None]
        got = s.nearest(xs, radius)
        assert got.tobytes() == _finite_nearest_by_rows(s, xs, radius).tobytes()
        # one row per call: the slab is that row's alone
        one_by_one = np.concatenate([s.nearest(x, radius) for x in xs])
        assert one_by_one.tobytes() == got.tobytes()
        _assert_matches_slab_reduce(s, xs, radius)

    def test_d2_cell_centres_tie_four_ways(self):
        s = FiniteZeroSet(_pi_grid(), -6 * np.pi, 6 * np.pi)
        c = np.pi * (np.arange(-5, 5) + 0.5)
        xs = np.array([[x, y] for x in c for y in c])
        radius = np.pi / np.sqrt(2) * (1 + 1e-12) + 1e-12
        got = s.nearest(xs, radius)
        assert got.tobytes() == _finite_nearest_by_rows(s, xs, radius).tobytes()
        _assert_matches_slab_reduce(s, xs, radius)
        # each centre has four zeros at equal distance: the lowest corner wins
        assert np.array_equal(got, xs - np.pi / 2)

    def test_duplicated_points(self, rng):
        grid = _pi_grid()
        pts = np.concatenate([grid, grid[rng.permutation(len(grid))[:60]]])
        s = FiniteZeroSet(pts, -6 * np.pi, 6 * np.pi)
        xs = np.concatenate([rng.uniform(-15, 15, (100, 2)), grid[:40]])
        radius = 2.3
        got = s.nearest(xs, radius)
        assert got.tobytes() == _finite_nearest_by_rows(s, xs, radius).tobytes()
        _assert_matches_slab_reduce(s, xs, radius)

    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 65])
    def test_rows_across_block_edges(self, rows, rng):
        s = FiniteZeroSet(_pi_grid(), -6 * np.pi, 6 * np.pi)
        # rows spread over the whole box, so each block's slab is wide
        xs = rng.uniform(-17, 17, (rows, 2))
        got = s.nearest(xs, 2.3)
        assert got.shape == (rows, 2)
        assert got.tobytes() == _finite_nearest_by_rows(s, xs, 2.3).tobytes()
        _assert_matches_slab_reduce(s, xs, 2.3)

    @pytest.mark.parametrize("rows", [1, 31, 32, 33])
    def test_d3_rows_with_ties(self, rows, rng):
        # a duplicated integer grid: every row ties with its duplicate,
        # and rows at cell centres tie eight ways
        axis = np.arange(-4.0, 5.0)
        grid = np.array([[x, y, z] for x in axis for y in axis for z in axis])
        s = FiniteZeroSet(np.concatenate([grid, grid[::7]]), -4.0, 4.0)
        xs = rng.uniform(-3.5, 3.5, (rows, 3))
        xs[::3] = np.floor(xs[::3]) + 0.5
        _assert_matches_slab_reduce(s, xs, 0.9)
        _assert_matches_slab_reduce(s, xs, 0.4)  # no zero for most rows

    def test_far_apart_rows_share_blocks(self, rng):
        # two clusters with about 2000 zeros between them share blocks
        # (one slab over the whole set): the lookup still answers every
        # row as the gap-splitting reference does, and names the first
        # row (input order) with no zero
        s = FiniteZeroSet(_pi_grid(24), -24 * np.pi, 24 * np.pi)
        xs = np.concatenate([rng.uniform(-74, -60, (20, 2)),
                             rng.uniform(60, 74, (20, 2))])[rng.permutation(40)]
        got = s.nearest(xs, 2.3)
        assert got.tobytes() == _finite_nearest_by_rows(s, xs, 2.3).tobytes()
        _assert_matches_slab_reduce(s, xs, 2.3)
        xs = np.array([[71.5, 0.0], [-70.0, 0.0], [0.0, 0.0]])
        with pytest.raises(CertificateError) as got:
            s.nearest(xs, 0.5)
        with pytest.raises(CertificateError) as expect:
            _finite_nearest_by_rows(s, xs, 0.5)
        assert str(got.value) == str(expect.value)
        assert "of [71.5  0. ]" in str(got.value)

    def test_first_out_of_box_row_named(self):
        s = FiniteZeroSet(_pi_grid(), -6 * np.pi, 6 * np.pi)
        xs = np.zeros((50, 2))
        xs[7] = [30.0, 0.0]
        xs[40] = [0.0, -30.0]
        with pytest.raises(CertificateError, match=r"query \[30\.0, 0\.0\] outside"):
            s.nearest(xs, 2.3)
        with pytest.raises(CertificateError, match=r"query \[30\.0, 0\.0\] outside"):
            _finite_nearest_by_rows(s, xs, 2.3)
        _assert_matches_slab_reduce(s, xs, 2.3)
        # the box is checked for every row before any lookup
        xs[3] = [0.5 * np.pi, 0.5 * np.pi]
        with pytest.raises(CertificateError, match="outside the validity box"):
            s.nearest(xs, 0.1)

    def test_radius_too_small_names_first_row(self):
        s = FiniteZeroSet(np.arange(-20, 21) * np.pi, -20 * np.pi, 20 * np.pi)
        xs = np.array([[0.1], [3.0], [np.pi / 2], [-7.0], [np.pi * 1.5]])
        with pytest.raises(CertificateError) as got:
            s.nearest(xs, 0.5)
        with pytest.raises(CertificateError) as expect:
            _finite_nearest_by_rows(s, xs, 0.5)
        assert str(got.value) == str(expect.value)
        assert "of [1.57079633]" in str(got.value)
        _assert_matches_slab_reduce(s, xs, 0.5)

    def test_nan_row_named(self):
        # a NaN row has no zero; the rows beside it in its block still do
        s = FiniteZeroSet(np.arange(-20, 21) * np.pi, -20 * np.pi, 20 * np.pi)
        xs = np.array([[0.1], [3.0], [np.nan], [-7.0]])
        with pytest.raises(CertificateError, match=r"of \[nan\]"):
            s.nearest(xs, 2.0)
        with pytest.raises(CertificateError, match=r"of \[nan\]"):
            _finite_nearest_by_rows(s, xs, 2.0)
        assert s.nearest(xs[[0, 1, 3]], 2.0)[:, 0].tolist() == [0.0, np.pi, -2 * np.pi]


def _finite_nearest_brute(s, xs, radius):
    """Brute-force reference for FiniteZeroSet.nearest: every row against
    every point, the distance summed column by column, ties (1e-12
    relative) to the lexicographically smallest; errors as nearest's."""
    xs = np.asarray(xs, dtype=float).reshape(-1, s.dimension)
    s._check_box(xs)
    pts = s.points[np.lexsort(s.points.T[::-1])]
    dist = np.sqrt(sum((pts[:, k] - xs[:, k, None]) ** 2 for k in range(s.dimension)))
    dist = np.where(dist <= radius, dist, np.inf)
    best = dist.min(axis=1, initial=np.inf, keepdims=True)
    if np.isinf(best).any():
        missing = int(np.isinf(best[:, 0]).argmax())
        raise CertificateError(f"no zero within radius {radius} of {xs[missing]}")
    return pts[(dist <= best + 1e-12 * (1.0 + best)).argmax(axis=1)]


def _assert_matches_brute(s, xs, radius):
    try:
        expect = _finite_nearest_brute(s, xs, radius)
    except CertificateError as exc:
        with pytest.raises(CertificateError) as got:
            s.nearest(xs, radius)
        assert str(got.value) == str(exc)
    else:
        assert s.nearest(xs, radius).tobytes() == expect.tobytes()


class TestFiniteNearestGrid:
    """The d > 1 cell-grid lookup against brute force, bit for bit."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_points_and_radii(self, d, rng):
        # scattered points with duplicates; radii below, near and well
        # above the point spacing (a query then visits many cells)
        pts = rng.uniform(-10, 10, (40 * 3 ** d, d))
        pts = np.concatenate([pts, pts[::9]])
        s = FiniteZeroSet(pts, -10.0, 10.0)
        xs = np.concatenate([rng.uniform(-10, 10, (200, d)), pts[:20]])
        for radius in (0.3, 1.5, 4.0, 25.0):
            _assert_matches_brute(s, xs, radius)

    @pytest.mark.parametrize("d", [2, 3])
    def test_exact_ties_on_cell_boundaries(self, d):
        # the integer lattice {0, 1, 3, 4}^d has cell side exactly 1, so
        # every point and every query below lies on cell boundaries; rows
        # at lattice midpoints and centres tie two to 2^d ways
        axis = np.array([0.0, 1.0, 3.0, 4.0])
        pts = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), -1).reshape(-1, d)
        s = FiniteZeroSet(pts[::-1], 0.0, 4.0)
        assert s._grid[1] == 1.0
        grid = np.arange(0.0, 4.5, 0.5)
        xs = np.stack(np.meshgrid(*[grid] * d, indexing="ij"), -1).reshape(-1, d)
        for radius in (0.5 * np.sqrt(d) * (1 + 1e-12), 1.0, np.sqrt(d) + 1e-9, 3.0):
            _assert_matches_brute(s, xs, radius)

    def test_box_edges_and_first_missing_row(self, rng):
        # queries on the box's faces and corners, where the cell range is
        # clipped to the grid; a radius that leaves rows 3 and 5 without a
        # zero names row 3, as does a NaN row
        axis = np.pi * np.arange(-4, 5)
        s = FiniteZeroSet(np.array([[x, y] for x in axis for y in axis]), -13.0, 13.0)
        edge = np.array([[-13.0, -13.0], [13.0, 13.0], [-13.0, 13.0], [13.0, 0.3],
                         [0.0, -13.0], [-13.0, 2.0]])
        xs = np.concatenate([edge, rng.uniform(-13, 13, (50, 2))])
        for radius in (2.3, 3.0, 40.0):
            _assert_matches_brute(s, xs, radius)
        xs = np.array([[0.0, 0.0], [3.1, 0.1], [6.3, 6.2], [1.6, 1.6], [0.1, 0.0],
                       [-13.0, 1.6]])
        with pytest.raises(CertificateError, match=r"of \[1\.6 1\.6\]") as got:
            s.nearest(xs, 1.0)
        assert got.value.row == 3
        _assert_matches_brute(s, xs, 1.0)
        xs[1] = np.nan
        with pytest.raises(CertificateError, match=r"of \[nan nan\]") as got:
            s.nearest(xs, 2.3)
        assert got.value.row == 1


class TestFiniteNearest1d:
    """The d = 1 lookup (one searchsorted) against the slab loop."""

    @staticmethod
    def _points(rng):
        # duplicated points, and clusters closer together than the 1e-12
        # tie margin
        pts = np.sort(rng.uniform(-40, 40, 150))
        near = pts[::10] + rng.choice([1e-13, 3e-13, 2e-12], size=15)
        return np.concatenate([pts, pts[::7], near])

    def test_random_queries(self, rng):
        pts = self._points(rng)
        s = FiniteZeroSet(pts, pts.min(), pts.max())
        radius = np.diff(np.sort(pts)).max() / 2 * (1 + 1e-12) + 1e-12
        xs = np.concatenate([rng.uniform(pts.min(), pts.max(), 500), pts])[:, None]
        _assert_matches_slab_reduce(s, xs, radius)
        assert s.nearest(xs, radius).tobytes() == \
            _finite_nearest_by_rows(s, xs, radius).tobytes()

    def test_midpoints_tie_to_the_lower_point(self, rng):
        pts = np.sort(rng.uniform(-40, 40, 90))
        s = FiniteZeroSet(pts, pts[0], pts[-1])
        mids = 0.5 * (pts[1:] + pts[:-1])
        radius = np.diff(pts).max()
        got = s.nearest(mids[:, None], radius)
        _assert_matches_slab_reduce(s, mids[:, None], radius)
        # where both neighbours are equally far, the lower one wins
        even = np.abs(mids - pts[:-1]) == np.abs(pts[1:] - mids)
        assert even.sum() > 10
        assert np.array_equal(got[even, 0], pts[:-1][even])

    def test_near_ties_walk_to_the_lowest(self):
        # four points within the tie margin of each other: every query
        # between them answers the lowest one
        base = 10.0
        pts = np.array([base, base + 2e-13, base + 4e-13, base + 6e-13, 12.0, 8.0])
        s = FiniteZeroSet(pts, 8.0, 12.0)
        xs = np.array([[base + 3e-13], [base + 7e-13], [base - 1e-3], [10.9]])
        got = s.nearest(xs, 1.5)
        _assert_matches_slab_reduce(s, xs, 1.5)
        assert got[:, 0].tolist() == [base, base, base, base]

    def test_no_zero_names_the_first_row(self, rng):
        pts = np.arange(-20, 21) * np.pi
        s = FiniteZeroSet(pts, pts[0], pts[-1])
        xs = rng.uniform(-60, 60, (200, 1))
        xs[[17, 150]] = [[np.pi / 2], [-5 * np.pi / 2]]
        _assert_matches_slab_reduce(s, xs, 1.2)
        with pytest.raises(CertificateError, match=r"of \[1\.57079633\]"):
            s.nearest(np.concatenate([xs[:17] * 0, xs[17:]]), 1.2)

    def test_box_checked_first(self):
        pts = np.arange(-5, 6) * np.pi
        s = FiniteZeroSet(pts, pts[0], pts[-1])
        xs = np.array([[0.5], [np.pi / 2], [30.0], [1.0]])
        with pytest.raises(CertificateError, match="outside the validity box"):
            s.nearest(xs, 0.1)  # row 1 has no zero, but row 2 is out of box
        _assert_matches_slab_reduce(s, xs, 0.1)

    def test_empty_set_and_empty_query(self):
        s = FiniteZeroSet(np.empty((0, 1)), -1.0, 1.0)
        with pytest.raises(CertificateError, match="no zero"):
            s.nearest(np.array([[0.0]]), 1.0)
        assert s.nearest(np.empty((0, 1)), 1.0).shape == (0, 1)


class TestSerialization:
    def test_potential_roundtrip(self):
        for V in (
            cosine_potential(),
            truncated_almost_periodic(term_count=4),
            DeloneBumpPotential([0.0, 1.0, 2.618], width=0.5),
        ):
            back = potential_from_dict(V.to_dict())
            x = np.array([0.7])
            assert back.value(x) == pytest.approx(float(V.value(x)))
            assert back.gradient(x)[0] == pytest.approx(float(V.gradient(x)[0]))

    def test_numpy_scalar_roundtrip(self):
        # to_dict writes Python numbers and lists, which the reader takes
        f = np.float64
        for V in (truncated_almost_periodic(np.int64(4), f(0.5), f(0.3)),
                  DeloneBumpPotential(np.array([0.0, 1.0]), f(0.5), f(2.0)),
                  TrigSumPotential([(f(1.0), np.array([f(1.0), f(0.5)]), f(0.25))])):
            d = V.to_dict()
            assert potential_from_dict(d).to_dict() == d
        cert = AubryCertificate(FiniteZeroSet(np.array([0.0, 3.0]), f(-1.0), f(4.0)),
                                f(1.6), f(0.7), f(0.6), f(1.0), f(1e-9))
        for s in (cert.sampler, PeriodicZeroSet(np.array([0.0]), f(np.pi))):
            assert sampler_from_dict(s.to_dict()).to_dict() == s.to_dict()
        d = cert.to_json_dict()
        assert AubryCertificate.from_json_dict(d).to_json_dict() == d

    def test_cosine_alias(self):
        V = potential_from_dict({"family": "cosine"})
        assert V.value(np.array([0.0])) == pytest.approx(1.0)

    def test_unknown_family(self):
        with pytest.raises((KeyError, ValueError)):
            potential_from_dict({"family": "nope"})

    def test_sampler_roundtrip(self):
        periodic = PeriodicZeroSet(np.array([0.0, 1.0]), 4.0)
        finite = FiniteZeroSet(np.array([0.0, 2.0, 5.0]), -1.0, 6.0)
        for s in (periodic, finite):
            back = sampler_from_dict(s.to_dict())
            a = np.asarray(back.points_near(1.0, 2.5))
            b = np.asarray(s.points_near(1.0, 2.5))
            assert np.array_equal(a, b)

    def test_unknown_keys_are_rejected(self):
        # the keys of a zero set are those its to_dict writes, and a
        # certificate's those of to_json_dict; any other is named
        from antifk import cosine_certificate
        from antifk.potentials import _ZERO_SETS

        cert = cosine_certificate().to_json_dict()
        for s in (PeriodicZeroSet(np.array([0.0, 1.0]), 4.0),
                  FiniteZeroSet(np.array([0.0, 2.0, 5.0]), -1.0, 6.0)):
            d = s.to_dict()
            assert type(s) is _ZERO_SETS[d["kind"]][0]
            with pytest.raises(ValueError, match="unknown keys in zero_set: extra"):
                sampler_from_dict({**d, "extra": 2})
            with pytest.raises(ValueError, match="unknown keys in zero_set: extra"):
                AubryCertificate.from_json_dict({**cert, "zero_set": {**d, "extra": 2}})
        with pytest.raises(ValueError, match="unknown keys in certificate: bogus"):
            AubryCertificate.from_json_dict({**cert, "bogus": 1})
        for kind in ("nope", ["finite"], None):
            with pytest.raises(ValueError, match="unknown zero_set kind"):
                sampler_from_dict({"kind": kind})
        assert AubryCertificate.from_json_dict(cert).to_json_dict() == cert
