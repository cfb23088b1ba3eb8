"""The four benchmark workloads: input generation and per-op checks.

Each workload runs one ``antifk`` CLI command. Static inputs (certificate
files) are written once per run; every op then draws its own rotation
vector (and, for the sweep, its own amplitude ratio) from the run's seeded
generator, so no two ops of a run share inputs. ``draw`` maps a point of
the unit cube of ``dims`` coordinates to an op's inputs. ``check``
validates an op's artifacts with the numpy oracles in ``oracle.py``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import oracle

TOL = 1e-10
NEAREST_QUADRATIC = {"kind": "nearest-neighbor",
                     "coupling": {"name": "quadratic", "scale": 1.0}}


def _scale(x, interval):
    lo, hi = interval
    return lo + (hi - lo) * x


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Solve1D:
    """``antifk solve``: cosine V, closed-form certificate, unit quadratic
    nearest-neighbour coupling, lam = 40."""

    command = "solve"
    lam = 40.0

    def __init__(self, half_width, rho_range):
        self.half_width = half_width
        self.rho_range = rho_range

    def prepare(self, workdir):
        """Write the run's static inputs; the solve needs none."""

    dims = 1

    def draw(self, u):
        return {"rho": _scale(u[0], self.rho_range)}

    def config(self, params, seed):
        return {
            "seed": seed,
            "potential": {"family": "cosine"},
            "interaction": NEAREST_QUADRATIC,
            "solve": {"lam": self.lam, "rho": params["rho"],
                      "half_width": self.half_width, "tol": TOL},
        }

    def sites(self, params):
        return 2 * self.half_width + 1

    def check(self, params, outdir):
        report = _load_json(os.path.join(outdir, "report.json"))["report"]
        if report["converged"] is not True:
            return "report.json says not converged"
        if not report["final_residual"] <= TOL:
            return f"reported residual {report['final_residual']:.3e} > tol"
        header, table = oracle.read_table(os.path.join(outdir, "solution.csv"))
        n = self.half_width
        if header != ["site", "u_0"] or table.shape[0] != 2 * n + 1:
            return "solution.csv does not cover the window"
        if (table[:, 0] != range(-n, n + 1)).any():
            return "solution.csv sites out of order"
        return oracle.check_chain(table[:, 1:], params["rho"], self.lam, TOL,
                                  oracle.cosine(), oracle.quadratic_force,
                                  math.pi / 4)


class Hyperbolicity2D:
    """``antifk hyperbolicity`` with a solve block and the splitting:
    V = cos x + cos y, perturbed-quadratic coupling (amplitude 0.1),
    lam = 40, and a closed-form finite zero set pi Z^2 written by the
    benchmark (the CLI cannot estimate a 2-D certificate)."""

    command = "hyperbolicity"
    lam = 40.0
    half_width = 256
    horizon = 20
    rho_range = (0.35, 0.65)
    coupling_amplitude = 0.1

    def prepare(self, workdir):
        # query centres rho(i), |i| <= N + 1, stay inside [-c, c]^2; the
        # zeros extend one period beyond so every R-ball is complete
        c = self.rho_range[1] * (self.half_width + 1)
        k = math.ceil(c / math.pi) + 1
        axis = [j * math.pi for j in range(-k, k + 1)]
        cert = {
            "zero_set": {"kind": "finite",
                         "points": [[x, y] for x in axis for y in axis],
                         "lo": [-c, -c], "hi": [c, c]},
            "covering_radius": math.pi / math.sqrt(2.0),
            "ball_radius": math.pi / 4,
            "expansion": math.cos(math.pi / 4),
            "safety": 1.0,
            "zero_tol": 1e-12,
            "metadata": {"provenance": {
                "all": "closed form for cos x + cos y: zeros pi Z^2, "
                       "R = pi/sqrt(2), r = pi/4, m = cos(pi/4)"}},
        }
        self.cert_path = os.path.join(workdir, "certificate-2d.json")
        with open(self.cert_path, "w", encoding="utf-8") as fh:
            json.dump(cert, fh)

    dims = 2

    def draw(self, u):
        return {"rho": [_scale(x, self.rho_range) for x in u]}

    def config(self, params, seed):
        return {
            "seed": seed,
            "potential": {"family": "trig-sum", "terms": [
                {"amplitude": 1.0, "frequency": [1.0, 0.0], "phase": 0.0},
                {"amplitude": 1.0, "frequency": [0.0, 1.0], "phase": 0.0}]},
            "interaction": {"kind": "nearest-neighbor", "coupling": {
                "name": "perturbed-quadratic",
                "amplitude": self.coupling_amplitude}},
            "certificate": {"path": self.cert_path},
            "solve": {"lam": self.lam, "rho": params["rho"],
                      "half_width": self.half_width, "tol": TOL},
            "hyperbolicity": {"horizon": self.horizon, "splitting": True},
        }

    def sites(self, params):
        return 2 * self.half_width + 1

    def check(self, params, outdir):
        hyp = _load_json(os.path.join(outdir, "hyperbolicity.json"))
        if hyp["all_pass"] is not True or hyp["orbit_pass"] is not True:
            return "hyperbolicity verdict or orbit check failed"
        n_sites = 2 * self.half_width + 1
        if len(hyp["verdict"]["sites"]) != n_sites:
            return "cone verdict does not cover the window"
        split = hyp["splitting"]
        if not (0 < len(split["sites"]) <= n_sites and split["min_angle"] > 0.0):
            return "splitting missing or degenerate"
        header, table = oracle.read_table(os.path.join(outdir, "orbit.csv"))
        if header != ["site", "u_0", "u_1", "p_0", "p_1"] or (
                table.shape[0] != n_sites):
            return "orbit.csv does not cover the window"
        u, p = table[:, 1:3], table[:, 3:5]
        potential = oracle.cosine_2d()
        force = oracle.perturbed_quadratic_force(self.coupling_amplitude)
        reason = oracle.check_chain(u, params["rho"], self.lam, TOL,
                                    potential, force, math.pi / 4)
        if reason:
            return reason
        # p_i = -force(u_i - u_{i+1}) - lam grad V(u_i), the last site
        # reading its right neighbour from the anchor tail
        right = oracle.lattice_anchor(
            (self.half_width + 1) * np.asarray(params["rho"]))
        nxt = np.concatenate([u[1:], right[None]])
        expect = -force(u - nxt) - self.lam * potential.gradient(u)
        gap = float(np.abs(p - expect).max())
        if not gap <= 1e-12 * (1.0 + float(np.abs(expect).max())):
            return f"momenta disagree with the recomputation by {gap:.3e}"
        return None


class SweepAP:
    """``antifk sweep --workers 1`` with hyperbolicity checks: the truncated
    almost-periodic potential (8 terms, certificate estimated over
    [-200, 200]), unit quadratic coupling, a 5 x 5 (lam, rho) grid at
    half_width 256."""

    command = "sweep"
    lams = (24.0, 32.0, 48.0, 64.0, 96.0)
    half_width = 256
    rho_range = (0.1, 0.5)
    ratio_range = (0.45, 0.55)
    term_count = 8
    frequency_ratio = 1.0 / math.pi
    search_window = (-200.0, 200.0)

    def prepare(self, workdir):
        """Write the run's static inputs; the sweep needs none."""

    dims = 6

    def draw(self, u):
        return {"amplitude_ratio": _scale(u[0], self.ratio_range),
                "rhos": [_scale(x, self.rho_range) for x in u[1:]]}

    def config(self, params, seed):
        return {
            "seed": seed,
            "potential": {"family": "almost-periodic-truncated",
                          "term_count": self.term_count,
                          "amplitude_ratio": params["amplitude_ratio"],
                          "frequency_ratio": self.frequency_ratio},
            "interaction": NEAREST_QUADRATIC,
            "certification": {"search_window": list(self.search_window)},
            "sweep": {"lams": list(self.lams), "rhos": params["rhos"],
                      "half_width": self.half_width, "tol": TOL,
                      "hyperbolicity": True},
        }

    def sites(self, params):
        return len(self.lams) * len(params["rhos"]) * (2 * self.half_width + 1)

    def check(self, params, outdir):
        with open(os.path.join(outdir, "sweep.csv"), encoding="utf-8") as fh:
            header, *lines = fh.read().splitlines()
        cols = header.split(",")
        rows = [dict(zip(cols, line.split(","))) for line in lines]
        grid = sorted((lam, rho) for lam in self.lams for rho in params["rhos"])
        if [(float(r["lam"]), float(r["rho"])) for r in rows] != grid:
            return "sweep.csv rows do not match the requested grid"
        potential = oracle.almost_periodic(
            self.term_count, params["amplitude_ratio"], self.frequency_ratio)
        threshold = oracle.contraction_threshold(potential, self.search_window)
        for r in rows:
            if float(r["lam"]) <= threshold:
                continue
            if r["status"] != "ok" or r["hyperbolic_pass"] != "true":
                return (f"case lam={r['lam']} rho={r['rho']} above the "
                        f"threshold {threshold:.4g}: {r['status']}, "
                        f"hyperbolic_pass={r['hyperbolic_pass']}")
            if not float(r["final_residual"]) <= TOL:
                return f"case lam={r['lam']} rho={r['rho']}: residual > tol"
        return None


WORKLOADS = {
    "solve-1d": Solve1D(half_width=4096, rho_range=(0.55, 0.65)),
    "solve-far": Solve1D(half_width=2048, rho_range=(2.45, 2.8)),
    "hyperbolicity-2d": Hyperbolicity2D(),
    "sweep-ap": SweepAP(),
}
