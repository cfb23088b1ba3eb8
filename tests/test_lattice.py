import numpy as np
import pytest

from antifk import (
    AnchorTail,
    AubryCertificate,
    CertificateError,
    Configuration,
    DerivedTail,
    FiniteZeroSet,
    HomomorphismTail,
    PeriodicZeroSet,
    RotationVector,
    SolveParams,
    Window,
    anchor_configuration,
    anchor_stack,
    as_rotation,
    configuration_from_csv,
    configuration_to_csv,
    cosine_potential,
    ext_distance,
    homomorphism_configuration,
    rotation_vector_estimate,
    shift,
    solve_equilibrium,
    stack_chains,
    translate,
)
from antifk.lattice import TAIL_PROBE, _norms


def hom(rho, n=10):
    return homomorphism_configuration(as_rotation(rho), Window(n, 1))


class TestNorms:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bits_of_numpy_norm(self, d, rng):
        # random rows over many scales, zero rows of either sign, inf and
        # NaN, as (n, d) and as a stack (n, K, d); x * x does not underflow
        # or overflow for any of them, where |x| and sqrt(x * x) agree
        x = rng.standard_normal((400, d)) * 10.0 ** rng.integers(-100, 100, (400, 1))
        x[:4] = [[0.0], [-0.0], [np.inf], [-np.inf]]
        x[4:6] = np.nan
        x[6, 0] = -np.nan
        x[7, -1] = np.inf
        for rows in (x, x.reshape(100, 4, d)):
            got, want = _norms(rows), np.linalg.norm(rows, axis=-1)
            assert got.shape == want.shape
            nan = np.isnan(want)
            assert (np.isnan(got) == nan).all()
            assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_one_row_and_one_column(self):
        assert float(_norms(np.array([-3.0]))) == 3.0
        assert float(_norms(np.array([3.0, -4.0]))) == 5.0
        # |x| where x * x underflows to zero or overflows to inf
        assert _norms(np.array([[1e-200], [-1e200]])).tolist() == [1e-200, 1e200]


class TestWindow:
    def test_sites(self):
        w = Window(3, 1)
        assert list(w.sites()) == [-3, -2, -1, 0, 1, 2, 3]
        assert w.n_sites == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            Window(0, 1)
        with pytest.raises(ValueError):
            Window(3, 0)


class TestExtDistance:
    def test_identity(self):
        u = hom(1.0)
        assert ext_distance(u, u) == 0.0

    def test_constant_offset(self):
        u = hom(0.0)
        v = translate(u, 2.0)
        assert ext_distance(u, v) == pytest.approx(2.0, abs=1e-15)

    def test_window_max_attained_at_edge(self):
        # same tail rule, window values i vs 1.1 i on N = 10: the sup is
        # over the window and sits at the edge sites
        u = hom(1.0, n=10)
        v = u.with_values(1.1 * np.arange(-10, 11, dtype=float))
        assert ext_distance(u, v) == pytest.approx(1.0, abs=1e-12)

    def test_diverging_tails_give_infinity(self):
        u = hom(1.0)
        v = hom(1.1)
        assert ext_distance(u, v) == np.inf

    def test_metric_properties_on_random_triples(self, rng):
        w = Window(6, 1)
        tail = HomomorphismTail(as_rotation(0.0))
        for _ in range(50):
            a, b, c = (
                Configuration(w, rng.normal(size=13), tail) for _ in range(3)
            )
            dab = ext_distance(a, b)
            assert dab >= 0
            assert dab == ext_distance(b, a)
            assert dab <= ext_distance(a, c) + ext_distance(c, b) + 1e-12

    def test_window_mismatch(self):
        with pytest.raises(ValueError):
            ext_distance(hom(1.0, n=10), hom(1.0, n=11))


def _ext_distance_by_site(u, v):
    """Per-site reference for ext_distance on two tails with one slope:
    probe site by site, stopping where a tail cannot produce a value."""
    worst = float(np.linalg.norm(u.values - v.values, axis=1).max())
    n = u.window.half_width
    for side in (1, -1):
        for k in range(1, TAIL_PROBE + 1):
            i = side * (n + k)
            try:
                gap = float(np.linalg.norm(u.tail.values([i])[0]
                                           - v.tail.values([i])[0]))
            except CertificateError:
                break
            worst = max(worst, gap)
    return worst


class TestExtDistanceTailProbe:
    @pytest.mark.parametrize("rho, zeros, lo, hi", [
        (0.9, np.pi * np.arange(-25, 26)[:, None], -50.0, 40.0),
        ([0.4, 0.55], np.pi * np.array([[a, b] for a in range(-15, 16)
                                        for b in range(-15, 16)]), -30.0, 38.0),
    ])
    def test_tail_leaves_box_mid_probe(self, rho, zeros, lo, hi):
        rot = as_rotation(rho)
        R = np.pi / np.sqrt(2) if rot.dimension == 2 else np.pi / 2
        w = Window(20, rot.dimension)
        u = anchor_configuration(rot, FiniteZeroSet(zeros, lo, hi), R, w)
        v = homomorphism_configuration(rot, w)
        # the finite tail runs out of its box inside the probe, on both sides
        with pytest.raises(CertificateError):
            u.tail.values([20 + TAIL_PROBE])[0]
        with pytest.raises(CertificateError):
            u.tail.values([-20 - TAIL_PROBE])[0]
        assert ext_distance(u, v) == _ext_distance_by_site(u, v)
        assert ext_distance(v, u) == _ext_distance_by_site(v, u)

    @pytest.mark.parametrize("offset", [None, 5, -7])
    def test_producible_prefix_from_the_failing_row(self, offset):
        # the longest prefix of each probe side that a tail produces, from
        # the row its failing lookup names: for an anchor tail, and through
        # a shifted configuration whose tail reads some sites from its
        # parent's window and the rest from the parent's tail
        from antifk.lattice import _producible

        zeros = np.pi * np.arange(-25, 26)[:, None]
        u = anchor_configuration(0.9, FiniteZeroSet(zeros, -50.0, 40.0), np.pi / 2,
                                 Window(20, 1))
        tail = u.tail if offset is None else shift(u, offset).tail
        for sites in (20 + np.arange(1, TAIL_PROBE + 1), -20 - np.arange(1, TAIL_PROBE + 1)):
            k = 0
            while k < len(sites):
                try:
                    tail.values(sites[k:k + 1])
                except CertificateError:
                    break
                k += 1
            assert 0 < k < len(sites)
            got = _producible(tail, sites)
            assert got.tobytes() == tail.values(sites[:k]).tobytes()

    def test_interior_gap_stops_the_probe(self):
        # anchors sit exactly on rho * i up to site 39; site 40 has no zero
        # within R, and the zeros beyond it are offset by 0.5
        n, R = 20, np.pi / 2
        k = np.arange(-90, 91)
        zeros = np.where(k < 41, np.pi * k, np.pi * k + 0.5)[k != 40]
        u = anchor_configuration(np.pi, FiniteZeroSet(zeros, -300.0, 300.0), R,
                                 Window(n, 1))
        v = hom(np.pi, n=n)
        with pytest.raises(CertificateError):
            u.tail.values([40])[0]
        assert u.tail.values([41])[0][0] - np.pi * 41 == pytest.approx(0.5)
        assert ext_distance(u, v) == _ext_distance_by_site(u, v) == 0.0


class TestShiftTranslate:
    def test_shift_zero_is_identity(self):
        u = hom(1.0)
        assert np.array_equal(shift(u, 0).values, u.values)

    def test_shift_homomorphism(self):
        u = hom(1.0)
        s = shift(u, 3)
        expect = np.arange(-10, 11, dtype=float) + 3
        assert np.allclose(s.values[:, 0], expect)

    def test_shift_spike(self):
        u = hom(0.0, n=5)
        vals = np.zeros(11)
        vals[5] = 1.0  # spike at site 0
        u = u.with_values(vals)
        s = shift(u, 1)
        assert s.value(-1)[0] == 1.0
        assert np.count_nonzero(s.values) == 1

    def test_shift_range_error(self):
        with pytest.raises(ValueError):
            shift(hom(1.0, n=4), 5)

    def test_translate_zero_and_constant(self):
        u = hom(0.0)
        assert np.array_equal(translate(u, 0.0).values, u.values)
        assert np.all(translate(u, 5.0).values == 5.0)

    def test_shift_translate_commute(self, rng):
        w = Window(8, 1)
        u = Configuration(w, rng.normal(size=17), HomomorphismTail(as_rotation(0.5)))
        for k in (-3, 2):
            c = rng.normal()
            a = shift(translate(u, c), k)
            b = translate(shift(u, k), c)
            assert np.allclose(a.values, b.values, atol=1e-15)

    def test_shift_reads_tail(self):
        u = hom(2.0, n=3)
        s = shift(u, 2)
        # site 3 of the shifted configuration needs u_5 from the tail
        assert s.value(3)[0] == pytest.approx(10.0)


class TestNearestAnchor:
    def test_origin_in_anchor_set(self, cos_cert):
        rho = as_rotation(0.0)
        for i in (-4, 0, 7):
            tail = AnchorTail(rho, cos_cert.sampler, cos_cert.covering_radius)
            a = tail.values([i])[0]
            assert a[0] == pytest.approx(0.0, abs=1e-12)

    def test_pi_set_prefers_closest_multiple(self, cos_cert):
        a = AnchorTail(
            as_rotation(1.0), cos_cert.sampler, cos_cert.covering_radius
        ).values([2])[0]
        assert a[0] == pytest.approx(np.pi, abs=1e-12)

    def test_exact_hit(self, cos_cert):
        a = AnchorTail(
            as_rotation(np.pi), cos_cert.sampler, cos_cert.covering_radius
        ).values([3])[0]
        assert a[0] == pytest.approx(3 * np.pi, abs=1e-12)

    def test_empty_query_raises(self):
        sampler = PeriodicZeroSet(np.array([[0.0]]), np.pi)
        with pytest.raises(CertificateError):
            AnchorTail(as_rotation(1.0), sampler, 0.05).values([1])

    def test_tie_breaks_to_smaller_point(self, cos_cert):
        # rho(i) = pi/2 is equidistant from 0 and pi
        a = AnchorTail(
            as_rotation(np.pi / 2), cos_cert.sampler, cos_cert.covering_radius
        ).values([1])[0]
        assert a[0] == pytest.approx(0.0, abs=1e-12)

    def test_anchor_within_covering_radius(self, cos_cert, rng):
        for _ in range(100):
            rho = as_rotation(rng.uniform(-4, 4))
            i = int(rng.integers(-20, 21))
            tail = AnchorTail(rho, cos_cert.sampler, cos_cert.covering_radius)
            a = tail.values([i])[0]
            assert abs(a[0] - rho(float(i))[0]) <= cos_cert.covering_radius + 1e-12


class TestAnchorConfiguration:
    def test_within_covering_radius_of_rotation(self, cos_cert, rng):
        for _ in range(20):
            rho = as_rotation(rng.uniform(-3, 3))
            a = anchor_configuration(
                rho, cos_cert.sampler, cos_cert.covering_radius, Window(12, 1)
            )
            h = homomorphism_configuration(rho, Window(12, 1))
            assert ext_distance(a, h) <= cos_cert.covering_radius + 1e-12

    def test_values_lie_in_zero_set(self, cos_cert):
        a = anchor_configuration(
            as_rotation(1.0), cos_cert.sampler, cos_cert.covering_radius, Window(10, 1)
        )
        assert np.allclose(np.sin(a.values), 0.0, atol=1e-12)

    def test_stack_holds_each_chain(self, cos_cert):
        # one lookup for K rotation vectors gives each chain as its own
        # lookup does, tail included
        w, args = Window(9, 1), (cos_cert.sampler, cos_cert.covering_radius)
        rhos = [0.3, -1.7, 2.9]
        stack = anchor_stack(rhos, *args, w)
        assert stack.values.shape == (19, 3, 1)
        halo = np.array([-11, -10, 10, 11])
        assert stack.tail.values(halo).shape == (4, 3, 1)
        for k, rho in enumerate(rhos):
            alone = anchor_configuration(rho, *args, w)
            assert stack.chain(k).values.tobytes() == alone.values.tobytes()
            tail = stack.chain(k).tail
            assert tail.rotation.rho.tobytes() == alone.tail.rotation.rho.tobytes()
            assert tail.sampler is alone.tail.sampler and tail.radius == alone.tail.radius
            assert stack.tail.values(halo)[:, k].tobytes() == alone.tail.values(halo).tobytes()
        again = stack_chains([stack.chain(k) for k in range(3)])
        assert again.values.tobytes() == stack.values.tobytes()
        with pytest.raises(ValueError, match="one window"):
            stack_chains([stack.chain(0), anchor_configuration(0.3, *args, Window(8, 1))])


class TestRotationEstimate:
    def test_exact_homomorphism(self):
        assert rotation_vector_estimate(hom(np.pi))[0] == pytest.approx(np.pi)

    def test_zero(self):
        assert rotation_vector_estimate(hom(0.0))[0] == 0.0

    def test_error_bound_near_rotation(self, cos_cert, rng):
        # any u within r + R of the homomorphism obeys the (r+R)/N bound
        n = 16
        bound = cos_cert.ball_radius + cos_cert.covering_radius
        for _ in range(20):
            rho = rng.uniform(-3, 3)
            h = hom(rho, n=n)
            u = h.with_values(
                h.values + rng.uniform(-bound, bound, size=(2 * n + 1, 1))
            )
            est = rotation_vector_estimate(u)[0]
            assert abs(est - rho) <= bound / n + 1e-12


class TestRotationVector:
    def test_homomorphism_is_exact(self):
        rho = RotationVector(np.array([0.3]))
        assert rho(7.0)[0] == pytest.approx(2.1)

    def test_as_rotation_idempotent(self):
        r = as_rotation(0.5)
        assert as_rotation(r) is r

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_rotation(np.zeros((2, 2)))


def _check_csv_bytes(window, tmp_path, rng):
    """configuration_to_csv writes the bytes csv.writer writes for the
    repr of every value, on a homomorphism chain with -0.0 and a tiny
    value planted."""
    import csv

    d = window.dimension
    u = homomorphism_configuration(as_rotation(np.full(d, 0.7)), window)
    u = u.with_values(u.values * rng.uniform(0.5, 2.0, size=u.values.shape))
    u.values[0, 0], u.values[1, -1] = -0.0, 1e-300
    path, ref = tmp_path / "u.csv", tmp_path / "ref.csv"
    configuration_to_csv(u, path)
    with open(ref, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["site"] + [f"u_{j}" for j in range(d)])
        for i, row in zip(u.window.sites(), u.values):
            w.writerow([int(i)] + [repr(float(x)) for x in row])
    assert path.read_bytes() == ref.read_bytes()


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        u = hom(1.0, n=5)
        u = u.with_values(u.values + 1e-17)  # exercise full-precision floats
        path = tmp_path / "u.csv"
        configuration_to_csv(u, path)
        v = configuration_from_csv(path, u.tail)
        assert np.array_equal(u.values, v.values)
        assert v.window == u.window

    @pytest.mark.parametrize("d", [1, 3])
    def test_csv_bytes_match_csv_writer(self, d, tmp_path, rng):
        _check_csv_bytes(Window(40, d), tmp_path, rng)

    @pytest.mark.parametrize("d", [1, 2])
    def test_csv_bytes_across_blocks(self, d, tmp_path, rng):
        # 8201 sites span three blocks of the writer, the last one partial
        _check_csv_bytes(Window(4100, d), tmp_path, rng)

    def test_csv_rejects_asymmetric_window(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("site,u_0\n0,1.0\n1,2.0\n")
        with pytest.raises(ValueError):
            configuration_from_csv(path, HomomorphismTail(as_rotation(0.0)))

    @pytest.mark.parametrize("text, what", [("", "header"), ("\n", "header"),
                                            ("site,u_0\n", "rows")])
    def test_csv_without_rows_names_the_file(self, text, what, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"empty.csv has no {what}"):
            configuration_from_csv(path, HomomorphismTail(as_rotation(0.0)))


class TestTails:
    @pytest.mark.parametrize("kind", ["anchor", "homomorphism", "derived"])
    def test_extended_halo_matches_per_side_lookup(self, kind, cos_cert, rng):
        n, halo = 7, 4
        if kind == "anchor":
            u = anchor_configuration(as_rotation(0.9), cos_cert.sampler,
                                     cos_cert.covering_radius, Window(n, 1))
        else:
            u = hom(0.9, n=n)
        if kind == "derived":
            u = translate(shift(u, 3), rng.normal())
        u = u.with_values(u.values + rng.uniform(-0.3, 0.3, size=u.values.shape))
        expect = np.concatenate([
            u.values_at(np.arange(-n - halo, -n)), u.values,
            u.values_at(np.arange(n + 1, n + halo + 1))])
        assert np.array_equal(u.extended(halo), expect)

    def test_anchor_tail_values(self, cos_cert):
        tail = AnchorTail(as_rotation(1.0), cos_cert.sampler, cos_cert.covering_radius)
        assert tail.values([2])[0][0] == pytest.approx(np.pi)

    def test_anchor_tail_memo_is_invisible(self, cos_cert):
        fresh = AnchorTail(as_rotation(1.0), cos_cert.sampler,
                           cos_cert.covering_radius)
        used = AnchorTail(as_rotation(1.0), cos_cert.sampler,
                          cos_cert.covering_radius)
        first = used.values([3, -3])
        first[:] = 99.0  # the caller's own array
        assert used == fresh
        assert repr(used) == repr(fresh)
        assert used.values([3, -3]).tolist() == [[np.pi], [-np.pi]]
        assert used.values([2]).tolist() == [[np.pi]]

    def test_solve_looks_up_the_halo_once(self, cos_cert, nn_interaction):
        # the anchor lookup fills the configuration's halo: the two halo
        # anchors read by every Delta and coefficient assembly of a solve
        # are looked up once, in the anchor lookup, and agree bit for bit
        # with a fresh lookup
        class CountingSampler:
            def __init__(self, inner):
                self.inner, self.queries = inner, []

            def nearest(self, xs, radius):
                self.queries.append(np.array(xs))
                return self.inner.nearest(xs, radius)

        sampler = CountingSampler(cos_cert.sampler)
        cert = AubryCertificate(sampler, cos_cert.covering_radius,
                                cos_cert.ball_radius, cos_cert.expansion)
        params = SolveParams(lam=40.0, rho=0.618, window=64)
        u, report = solve_equilibrium(params, nn_interaction, cosine_potential(),
                                      cert)
        assert report.converged
        rot = as_rotation(0.618)
        halo = rot(np.array([-65.0, 65.0]))
        lookups = [q for q in sampler.queries
                   if q.shape == halo.shape and np.array_equal(q, halo)]
        assert lookups == []
        anchors = rot(np.arange(-65.0, 66.0))
        assert sampler.queries[0].tobytes() == anchors.tobytes()
        expect = cos_cert.sampler.nearest(
            halo, cos_cert.covering_radius * (1 + 1e-12) + 1e-12)
        ext = u.extended(1)
        assert ext[[0, -1]].tobytes() == expect.tobytes()

    def test_derived_tail_reads_parent_window(self):
        u = hom(1.0, n=4)
        s = shift(u, -2)
        # site 5 of the shifted configuration is parent site 3: inside
        # the parent window even though 5 is outside the shifted one
        assert s.value(5)[0] == pytest.approx(3.0)


def _derived_by_site(tail, sites):
    """Per-site reference for DerivedTail.values: each site read from the
    parent one at a time, through nested derived tails."""
    parent, rows = tail.parent, []
    for i in sites:
        j = int(i) + tail.site_offset
        if abs(j) <= parent.window.half_width:
            row = parent.values[j + parent.window.half_width]
        elif isinstance(parent.tail, DerivedTail):
            row = _derived_by_site(parent.tail, [j])[0]
        else:
            row = parent.tail.values([j])[0]
        rows.append(row + tail.translation)
    return np.array(rows)


class TestDerivedTailBatch:
    @pytest.mark.parametrize("parent", ["homomorphism", "anchor"])
    @pytest.mark.parametrize("k", [-3, 2])
    @pytest.mark.parametrize("order", ["shift-translate", "translate-shift"])
    def test_matches_per_site(self, parent, k, order, cos_cert, rng):
        n = 6
        if parent == "anchor":
            u = anchor_configuration(as_rotation(0.9), cos_cert.sampler,
                                     cos_cert.covering_radius, Window(n, 1))
        else:
            u = hom(0.9, n=n)
        u = u.with_values(u.values + rng.uniform(-0.3, 0.3, size=u.values.shape))
        c = rng.normal()
        if order == "shift-translate":
            v = shift(translate(u, c), k)
        else:
            v = translate(shift(u, k), c)
        assert isinstance(v.tail, DerivedTail)
        # |i| <= n + |k| reads the parent window, the rest its tail
        sites = rng.permutation(np.r_[-4 * n:-n, n + 1:4 * n + 1])
        assert np.array_equal(v.tail.values(sites), _derived_by_site(v.tail, sites))
        halo = np.r_[-n - 5:-n, n + 1:n + 6]
        ext = v.extended(5)
        assert np.array_equal(np.r_[ext[:5], ext[-5:]],
                              _derived_by_site(v.tail, halo))
