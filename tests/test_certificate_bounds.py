"""The d = 1 certificate's proved constants: closed forms, the bounds on
|V'''| and on the rounding of V' and V'' they rest on, and property tests."""

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
    PeriodicZeroSet,
    TrigSumPotential,
    cosine_potential,
    estimate_aubry,
    truncated_almost_periodic,
)


def test_cosine_closed_form():
    # zeros pi Z, R = pi/2, r = pi/4 (where |cos| falls to m = cos(pi/4))
    cert = estimate_aubry(cosine_potential(), (-10.0, 10.0))
    assert cert.covering_radius >= math.pi / 2
    assert math.pi / 4 * (1 - 1e-6) <= cert.ball_radius <= math.pi / 4
    assert cert.expansion == 2**-0.5
    assert cert.metadata["provenance"] == dict.fromkeys(
        ("zeros", "covering_radius", "ball_radius", "expansion"), "bounded")
    assert cert.metadata["verification"] == {"zeros_checked": 2}


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
