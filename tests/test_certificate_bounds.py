"""The certificate's proved constants: closed forms, the bounds on the
hessian's Lipschitz constant and on the rounding of gradient and hessian
they rest on, 50-digit ball-radius crossings in d = 1, dense references in
d = 2, and property tests."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from antifk import (
    AubryCertificate,
    CertificationError,
    DeloneBumpPotential,
    FiniteZeroSet,
    NearestNeighborInteraction,
    PeriodicZeroSet,
    TrigSumPotential,
    cosine_potential,
    estimate_aubry,
    lambda_threshold,
    truncated_almost_periodic,
)
from antifk import potentials
from antifk.hyperbolicity import _sv

COS2 = TrigSumPotential([(1.0, [1.0, 0.0], 0.0), (1.0, [0.0, 1.0], 0.0)])
# not a sum of one-variable terms: the third term couples x and y
MIXED2 = TrigSumPotential([(1.0, [1.0, 0.0], 0.0), (1.0, [0.0, 1.0], 0.0),
                           (0.3, [1.0, 1.0], 0.5)])
BOX2 = ([-10.0, -10.0], [10.0, 10.0])


def test_cosine_closed_form():
    # zeros pi Z, R = pi/2, r = pi/4 (where |cos| falls to m = cos(pi/4))
    cert = estimate_aubry(cosine_potential(), (-10.0, 10.0))
    assert cert.covering_radius >= math.pi / 2
    assert math.pi / 4 * (1 - 1e-6) <= cert.ball_radius <= math.pi / 4
    assert cert.expansion == 2**-0.5
    assert cert.metadata["provenance"] == dict.fromkeys(
        ("zeros", "covering_radius", "ball_radius", "expansion"), "bounded")
    assert cert.metadata["verification"] == {"zeros_checked": 2}


def test_cosine_2d_closed_form():
    # cos x + cos y on [-10, 10]^2: zeros pi Z^2 (saddles too, as |hess V|
    # is 1 at every one), R = pi / sqrt(2) (the centre of a lattice square),
    # r = pi / 4 (where the ball first meets |cos x| = m or |cos y| = m)
    cert = estimate_aubry(COS2, BOX2)
    R, r = math.pi / math.sqrt(2), math.pi / 4
    assert R <= cert.covering_radius <= R * (1 + 1e-3)
    assert 0.95 * r <= cert.ball_radius <= r
    assert cert.expansion == pytest.approx(2**-0.5, rel=1e-15)
    assert cert.metadata["provenance"] == dict.fromkeys(
        ("zeros", "covering_radius", "ball_radius", "expansion"), "bounded")
    assert cert.metadata["verification"] == {"zeros_checked": 49}
    assert 0 < cert.metadata["zero_error"] < 1e-12
    zeros = cert.representative_zeros()
    assert np.abs(zeros - np.pi * np.round(zeros / np.pi)).max() < 1e-12
    assert lambda_threshold(NearestNeighborInteraction(), [0.41, 0.53], cert) <= 23


def test_box_budget_refuses(monkeypatch):
    # a proof that would need more boxes a round than the budget fails,
    # rather than growing without bound
    monkeypatch.setattr(potentials, "_CELL_BOXES", 64)
    with pytest.raises(CertificationError, match="needs over 64 boxes"):
        estimate_aubry(COS2, BOX2)


def test_mixed_2d_against_dense_references():
    # each proved constant against a dense sampled one: r at most the
    # first radius where sigma_min(hess V) < m on a polar grid of a ball,
    # R at least the largest nearest-zero distance over a grid of the box
    cert = estimate_aubry(MIXED2, BOX2)
    zeros, m = cert.representative_zeros(), cert.expansion
    radii, angles = np.linspace(0.0, 1.0, 1001)[1:], np.linspace(0, 2 * np.pi, 361)
    ring = np.stack([np.outer(radii, np.cos(angles)), np.outer(radii, np.sin(angles))], -1)
    low = _sv(MIXED2.hessian(zeros[:, None, None] + ring))[..., -1].min(axis=(0, 2))
    sampled = radii[np.argmax(low < m)]
    assert 0.98 * sampled <= cert.ball_radius <= sampled
    lo, hi = cert.sampler.lo, cert.sampler.hi
    grid = np.stack(np.meshgrid(*(np.linspace(lo[k], hi[k], 401) for k in range(2))),
                    -1).reshape(-1, 2)
    deepest = np.linalg.norm(grid[:, None] - zeros, axis=-1).min(axis=1).max()
    # and within 2^-11 of the covering radius the grid's half-diagonal allows
    slack = np.linalg.norm(hi - lo) / 400 / 2
    assert deepest <= cert.covering_radius <= (deepest + slack) * (1 + 2**-11)
    assert set(cert.metadata["provenance"].values()) == {"bounded"}


@pytest.mark.parametrize("make", [
    cosine_potential,
    lambda: truncated_almost_periodic(8, 0.55),
    lambda: TrigSumPotential([(0.7, [2.3], 1.1), (-0.4, [0.9], -2.0)]),
    lambda: DeloneBumpPotential([0.0, 1.0, 2.618, 3.618], width=0.45, depth=1.3),
])
def test_third_derivative_bound(make):
    # |V'''| by central differences of V'' stays below L on a dense grid
    V = make()
    lip, _ = V.hessian_lipschitz_bound(0.0)
    x = np.linspace(-6.0, 10.0, 200001)
    step = 1e-4
    third = (V.hessian((x + step)[:, None]) - V.hessian((x - step)[:, None]))[:, 0, 0]
    observed = np.abs(third).max() / (2 * step)
    assert observed <= lip
    assert observed >= 0.05 * lip  # the bound is not vacuous here


# d > 1: a non-separable trig sum in d = 2 and 3, and Gaussian bumps in d = 2
_MULTI = [MIXED2,
          TrigSumPotential([(0.7, [2.3, -0.4, 1.0], 1.1), (-0.4, [0.9, 1.5, 0.0], -2.0)]),
          DeloneBumpPotential([[0.0, 0.0], [1.0, 0.3], [0.2, 1.4]], width=0.6, depth=1.3)]


@pytest.mark.parametrize("V", _MULTI)
def test_hessian_lipschitz_in_operator_norm(V):
    # |hess V(x) - hess V(y)| <= L |x - y| on close pairs, in d > 1
    lip, _ = V.hessian_lipschitz_bound(0.0)
    rng = np.random.default_rng(5)
    x = rng.uniform(-3.0, 3.0, size=(20000, V.dimension))
    y = x + rng.normal(scale=1e-3, size=x.shape)
    step = np.linalg.norm(V.hessian(x) - V.hessian(y), ord=2, axis=(1, 2))
    ratio = step / np.linalg.norm(x - y, axis=1)
    assert ratio.max() <= lip
    assert ratio.max() >= 0.05 * lip


@pytest.mark.parametrize("V, reach", zip(_MULTI, (40.0, 20.0, 4.0)))
def test_rounding_bound_multi(V, reach):
    # the computed gradient (in norm) and hessian (in Frobenius norm, an
    # upper bound on the operator norm) against 40-digit arithmetic at the
    # same floats, |x| <= reach
    _, e = V.hessian_lipschitz_bound(reach)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(150, V.dimension))
    x *= rng.uniform(0.0, reach, size=(150, 1)) / np.linalg.norm(x, axis=1, keepdims=True)

    def vec(a):
        return mpmath.matrix([mpmath.mpf(float(c)) for c in a])

    def exact(xi):  # (grad V, hess V) at xi
        g, H = mpmath.zeros(len(xi), 1), mpmath.zeros(len(xi))
        if isinstance(V, DeloneBumpPotential):
            for p in V.points:
                t = xi - vec(p)
                w = 2 * mpmath.mpf(V.depth) / V.width**2 * mpmath.exp(
                    -sum(c * c for c in t) / V.width**2)
                g += w * t
                H += w * (mpmath.eye(len(xi)) - 2 * t * t.T / V.width**2)
            return g, H
        for a, f, ph in zip(V.amplitudes, V.frequencies, V.phases):
            f = vec(f)
            th = sum(fi * xj for fi, xj in zip(f, xi)) + mpmath.mpf(ph)
            g -= mpmath.mpf(a) * mpmath.sin(th) * f
            H -= mpmath.mpf(a) * mpmath.cos(th) * f * f.T
        return g, H

    grads, hessians = V.derivatives(x)
    worst = 0.0
    with mpmath.workdps(40):
        for xi, g, H in zip(x, grads, hessians):
            eg, eH = exact(vec(xi))
            worst = max(worst, float(mpmath.norm(vec(g) - eg)),
                        float(mpmath.mnorm(mpmath.matrix(H.tolist()) - eH, "f")))
    assert worst <= e


def test_zeros_within_the_zero_error_2d():
    # each listed zero of the mixed sum lies within the Kantorovich w of a
    # zero of psi found in 40-digit arithmetic
    cert = estimate_aubry(MIXED2, BOX2)
    w = cert.metadata["zero_error"]
    assert 0 < w < 1e-10
    terms = [(mpmath.mpf(a), [mpmath.mpf(c) for c in f], mpmath.mpf(p))
             for a, f, p in zip(MIXED2.amplitudes, MIXED2.frequencies, MIXED2.phases)]
    with mpmath.workdps(40):
        def psi(x, y):
            return [-sum(a * f[k] * mpmath.sin(f[0] * x + f[1] * y + p) for a, f, p in terms)
                    for k in range(2)]

        gaps = [mpmath.norm(mpmath.findroot(psi, tuple(mpmath.mpf(c) for c in z))
                            - mpmath.matrix([mpmath.mpf(c) for c in z]))
                for z in cert.representative_zeros()]
    assert float(max(gaps)) <= w


@pytest.mark.parametrize("make, reach", [
    (lambda: truncated_almost_periodic(8, 0.5), 200.0),
    (lambda: TrigSumPotential([(0.7, [2.3], 1.1), (-0.4, [0.9], -2.0)]), 50.0),
    (lambda: DeloneBumpPotential([0.0, 1.0, 2.618, 3.618], width=0.45), 5.0),
    (lambda: DeloneBumpPotential([0.0, 2.5, 6.0], width=1.7, depth=-0.8), 9.0),
])
def test_rounding_bound(make, reach):
    # the computed V' and V'' against 40-digit arithmetic at the same floats
    V = make()
    _, e = V.hessian_lipschitz_bound(reach)
    x = np.random.default_rng(4).uniform(-reach, reach, size=300)

    def exact(xi):  # [V'(xi), V''(xi)]
        if isinstance(V, DeloneBumpPotential):
            c = 2 * mpmath.mpf(V.depth) / V.width
            ts = [(mpmath.mpf(xi) - p) / V.width for p in V.points[:, 0]]
            return [sum(c * t * mpmath.exp(-t * t) for t in ts),
                    sum(c / V.width * (1 - 2 * t * t) * mpmath.exp(-t * t) for t in ts)]
        rows = [(mpmath.mpf(a), f, ph) for a, f, ph in
                zip(V.amplitudes, V.frequencies[:, 0], V.phases)]
        xi = mpmath.mpf(xi)
        return [sum(-a * f * mpmath.sin(xi * f + ph) for a, f, ph in rows),
                sum(-a * f * f * mpmath.cos(xi * f + ph) for a, f, ph in rows)]

    got = np.stack([V.gradient(x[:, None])[:, 0], V.hessian(x[:, None])[:, 0, 0]], axis=1)
    with mpmath.workdps(40):
        err = max(abs(mpmath.mpf(g) - v) for xi, row in zip(x, got)
                  for g, v in zip(row, exact(xi)))
    assert float(err) <= e


def test_zeros_within_the_zero_error():
    # each listed zero of the sweep benchmark's potential lies within w of
    # a zero of psi found in 40-digit arithmetic
    V = truncated_almost_periodic(8, 0.5)
    cert = estimate_aubry(V, (-200.0, 200.0))
    w = cert.metadata["zero_error"]
    terms = [(mpmath.mpf(a), f) for a, f in zip(V.amplitudes, V.frequencies[:, 0])]
    with mpmath.workdps(40):
        psi = lambda y: -sum(a * f * mpmath.sin(y * f) for a, f in terms)
        gaps = [abs(mpmath.findroot(psi, mpmath.mpf(z)) - z)
                for z in cert.representative_zeros()[:, 0]]
    assert float(max(gaps)) <= w


def _second_derivative(V):
    """V'' at an mpf x in the working precision, from V's float parameters."""
    if isinstance(V, DeloneBumpPotential):
        width = mpmath.mpf(V.width)
        c = 2 * mpmath.mpf(V.depth) / width**2
        return lambda x: sum(c * (1 - 2 * t * t) * mpmath.exp(-t * t)
                             for t in ((x - p) / width for p in V.points[:, 0]))
    rows = list(zip(V.amplitudes, V.frequencies[:, 0], V.phases))
    return lambda x: sum(-mpmath.mpf(a) * f * f * mpmath.cos(x * f + ph) for a, f, ph in rows)


def _first_crossings(V, zeros, m, r_cap):
    """Each zero z's first t <= r_cap on each side with |V''(z +- t)| = m,
    in 50-digit arithmetic: bracketed on a 4097-point grid of [0, r_cap],
    the bracket's signs checked and the root found in it."""
    curvature, t = _second_derivative(V), np.linspace(0.0, r_cap, 4097)
    crossings = []
    with mpmath.workdps(50):
        for z in zeros[:, 0]:
            for sign in (1, -1):
                low = np.abs(V.hessian((z + sign * t)[:, None])[:, 0, 0]) < m
                if not low.any():
                    continue
                k = int(np.argmax(low))
                assert k > 0

                def excess(s, z=mpmath.mpf(z), sign=sign):
                    return abs(curvature(z + sign * s)) - m

                a, b = mpmath.mpf(t[k - 1]), mpmath.mpf(t[k])
                assert excess(a) > 0 > excess(b)
                crossings.append(mpmath.findroot(excess, (a, b), solver="anderson"))
    return crossings


_DELONE = np.cumsum([0.0, 1.0, 1.618, 1.0, 1.618, 1.618, 1.0, 1.618])


@pytest.mark.parametrize("make, window", [
    (cosine_potential, (-10.0, 10.0)),
    (lambda: TrigSumPotential([(-0.5, [2.0], 0.0), (0.125, [4.0], 0.0)]), (-10.0, 10.0)),
    (lambda: truncated_almost_periodic(8, 0.45), (-200.0, 200.0)),
    (lambda: truncated_almost_periodic(8, 0.5), (-200.0, 200.0)),
    (lambda: truncated_almost_periodic(8, 0.55), (-200.0, 200.0)),
    (lambda: DeloneBumpPotential(_DELONE, width=0.45), (_DELONE[0] - 1.0, _DELONE[-1] + 1.0)),
], ids=["cosine", "sin4", "ap-0.45", "ap-0.50", "ap-0.55", "delone-8"])
def test_ball_radius_against_mpmath_crossings(make, window, monkeypatch):
    # r + w reaches no zero's first crossing of |V''| = m, found in 50-digit
    # arithmetic, and falls short of the nearest by at most 2^-21 of it
    seen, prove = [], potentials._ball_expansion_radius

    def spy(*args):
        seen.append(args)
        return prove(*args)

    monkeypatch.setattr(potentials, "_ball_expansion_radius", spy)
    V = make()
    cert = estimate_aubry(V, window)
    (_, zeros, m, r_cap), = seen
    crossing = min(_first_crossings(V, zeros, m, r_cap))
    r, w = cert.ball_radius, cert.metadata["zero_error"]
    with mpmath.workdps(50):
        assert mpmath.mpf(r) + w <= crossing
        assert r >= (1 - mpmath.mpf(2)**-21) * crossing - w


finite = st.floats(0.01, 100.0, allow_nan=False)


@st.composite
def certificates(draw):
    n = draw(st.integers(1, 5))
    pts = draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        sampler = PeriodicZeroSet(np.mod(pts, 7.0), 7.0)
    else:
        sampler = FiniteZeroSet(pts, min(pts), max(pts))
    return AubryCertificate(sampler, draw(finite), draw(finite), draw(finite),
                            safety=draw(st.floats(1.0, 2.0)),
                            zero_tol=draw(st.floats(1e-15, 1e-6)),
                            metadata={"provenance": {"all": "drawn"},
                                      "zero_error": draw(st.floats(0.0, 1e-12))})


@settings(max_examples=60, deadline=None)
@given(certificates())
def test_json_roundtrip(cert):
    text = json.dumps(cert.to_json_dict())
    back = AubryCertificate.from_json_dict(json.loads(text))
    assert json.dumps(back.to_json_dict()) == text
    assert back.admissible_radius == cert.admissible_radius


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.lists(st.tuples(st.floats(0.2, 2.0), st.floats(0.3, 3.0),
                          st.floats(-math.pi, math.pi)), min_size=1, max_size=3))
def test_expansion_holds_on_every_ball(terms):
    V = TrigSumPotential([(a, [f], p) for a, f, p in terms])
    try:
        cert = estimate_aubry(V, (-12.0, 12.0), grid_points=2001)
    except CertificationError:
        assume(False)
    zeros = cert.representative_zeros()
    balls = (zeros + np.linspace(-cert.ball_radius, cert.ball_radius, 4001)).reshape(-1, 1)
    # the computed V'' lies within the rounding bound e of the exact one
    _, e = V.hessian_lipschitz_bound(float(np.abs(balls).max()))
    assert np.abs(V.hessian(balls)[:, 0, 0]).min() >= cert.expansion - e
    assert np.abs(V.gradient(zeros)).max() <= cert.zero_tol
