"""Time each solver and hyperbolicity layer against the window size.

    PYTHONPATH=src python3 scripts/scale_check.py [--out FILE]

The chain is the ROADMAP baseline: cosine V, unit quadratic
nearest-neighbour coupling, lam = 40, rho = 0.618, tol = 1e-10, at
half_width 32, 512, 4096 and 16384. Each layer is timed in process, best
of REPEATS rounds, on the inputs the solver hands it: the tube-map and
Newton layers at the anchors, where solve starts its polish,
``phi_step.warm`` (the closing step) and ``residual`` at the chain the
polish hands on, and the cone verdict and the horizon-20 splitting at
the solved chain. A round times every layer at every size in turn, so
drift of the host between rounds spreads over all sizes instead of
tilting the slopes. The JSON written is the
``scale_check`` block of a BENCH file: seconds and microseconds per site
for every layer and size, and each layer's log-log slope of time against
sites over the three largest sizes, which reads 1 for linear growth.

A further row times ``estimate_aubry`` on the sweep benchmark's potential
(the 8-term truncated almost-periodic series, amplitude ratio 0.5) over
the search windows [-w, w] for w in 50, 200 and 800, with its log-log
slope against the number of zeros found and the calls and rows of
V.gradient and V.hessian that one estimate makes. Its ``stages_s`` splits
the time into the zero scan (grid scan and bisection polish), the ball
radius (the proof by box bisection) and the zero check, each the best of
REPEATS estimates, timed by wrapping the stage's function. The
``estimate_aubry_delone`` row does the same for one estimate on each of
the Delone media whose ball radius costs most: DELONE_BUMPS (8, 30 and
100) Gaussian bumps of width 0.45 on a Fibonacci chain (spacings 1 and
1.618), window one unit past the ends, with the ball radius it proves.
The ``estimate_aubry_2d`` row times one d = 2 estimate, V = cos x + cos y
over [-10, 10]^2, best of REPEATS, with the constants R, r and m it
proves and ``lambda_threshold`` for the unit quadratic coupling (about
pi / sqrt 2, pi / 4, 2^-0.5 and 22 for an ideal certificate).

The ``sweep`` row solves the sweep benchmark's 5 x 5 (lam, rho) grid on
that potential at half_width 256 in stacked batches of 1, 7 and 25 cases
(25, one batch, is what ``antifk sweep`` uses at this window), and a 5 x
10 grid (the rhos twice as dense) in one batch of 50 cases, with the
rows per batch and the peak memory the solves allocate (tracemalloc):
the time per case shows the per-call overhead a batch shares, the
memory what a batch costs per row, which bounds the batch size; the rows
of V.gradient and V.hessian that the solves evaluate (a fused
V.derivatives call counting for both) show the kernel work, and
``inverse_rows`` and ``outside_inverse_rows`` split them into those
evaluated inside the solver's local_inverse_batch and those outside it
(the Newton polish). Its
``epilogue_s`` times, at the same batch sizes, the work ``antifk
sweep`` does on each batch after the solve: the solve reports (whose
distances to the rotation share one tail probe) and the hyperbolicity
checks of the batch's stacked chains, which take grad V and hess V from
the solve; ``epilogue_rows`` counts the rows of V they evaluate all the
same, 0 while the handover works. Its ``mixed_stop`` block times a batch
whose cases stop at different steps: cosine V at lam = 64 and half_width
1024, 24 rhos in [0.1, 2.4] that converge at step 3 and rho = 50, whose
residual stalls at its float floor after step 5. Until then the batch
still evaluates the stopped chains in every interaction.delta and
residual call; ``stopped_chains_s``, the batch's time less that of the
24 cases alone and of rho = 50 alone, puts that cost on record.

The ``d2`` row times the d = 2 chain of the hyperbolicity benchmark:
V = cos x + cos y on the finite zero set pi Z^2 that the benchmark
writes (the table reaches one period past the query box [-c, c]^2, c =
0.65 (half_width + 1)), perturbed-quadratic coupling of amplitude 0.1,
lam = 40, rho = (0.47, 0.58), at half_width 128, 512 and 2048, in rounds
as above: the anchor lookup, the first Newton step's cyclic reduction (at
the anchors), the cone verdict and the horizon-20 splitting (at the
solved chain), each with its log-log slope against sites.

``src_lines`` is the line count of the library's modules
(``src/antifk/*.py``), which the BENCH files track beside the timings;
``src_lines_by_module`` gives it per module, so that a deletion can be
told from a move.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import antifk
from antifk import (
    AubryCertificate,
    ContractionSolver,
    DeloneBumpPotential,
    FiniteZeroSet,
    NearestNeighborInteraction,
    PerturbedQuadraticCoupling,
    SolveParams,
    anchor_configuration,
    cone_splitting,
    cosine_certificate,
    cosine_potential,
    estimate_aubry,
    lambda_threshold,
    local_inverse_batch,
    residual,
    TrigSumPotential,
    truncated_almost_periodic,
    verify_cone_conditions,
)
from antifk import potentials
from antifk import solver as solver_module
from antifk.cli import _hyperbolic_checks
from antifk.hyperbolicity import _coefficients
from antifk.lattice import stack_chains
from antifk.solver import _cyclic_reduction, _force

HALF_WIDTHS = (32, 512, 4096, 16384)
REPEATS = 5
LAM, RHO, TOL = 40.0, 0.618, 1e-10
AUBRY_WINDOWS = (50.0, 200.0, 800.0)
SWEEP_LAMS = (24.0, 32.0, 48.0, 64.0, 96.0)
SWEEP_RHOS = (0.1, 0.2, 0.3, 0.4, 0.5)
SWEEP_HALF_WIDTH = 256
SWEEP_BATCHES = (1, 7, 25, 50)  # 50: one batch of the 5 x 10 grid
MIXED_LAM, MIXED_HALF_WIDTH, MIXED_RHOS, MIXED_STALL = 64.0, 1024, (0.1, 2.4, 24), 50.0
D2_HALF_WIDTHS, D2_RHO = (128, 512, 2048), (0.47, 0.58)
DELONE_BUMPS = (8, 30, 100)
# the stages of a d = 1 estimate_aubry: (owner, attribute) of each function
AUBRY_STAGES = {"scan": (potentials, "_scan_zeros_1d"),
                "ball_radius": (potentials, "_ball_expansion_radius"),
                "zero_check": (AubryCertificate, "verify")}


def count_rows(V, fn, calls=None) -> tuple:
    """(gradient rows, hessian rows, rows evaluated inside the solver's
    local_inverse_batch) of the potential instance V during fn(), counted
    by wrapping its methods and the solver's local_inverse_batch for the
    call; a fused derivatives call (the local inverse's, the Newton
    polish's) counts its rows for both. Given a dict calls, it also counts
    the calls into calls["gradient"] and calls["hessian"], a fused call
    for both."""
    rows = {"gradient": 0, "hessian": 0, "inverse": 0}
    counts = {"gradient": ("gradient",), "hessian": ("hessian",),
              "derivatives": ("gradient", "hessian")}
    inside, inverse = [], solver_module.local_inverse_batch

    def counted(name, method):
        def wrapped(x):
            for kind in counts[name] + (("inverse",) if inside else ()):
                rows[kind] += np.shape(x)[0]
            for kind in counts[name] if calls is not None else ():
                calls[kind] = calls.get(kind, 0) + 1
            return method(x)
        return wrapped

    def within(*args, **kwargs):
        inside.append(True)
        try:
            return inverse(*args, **kwargs)
        finally:
            inside.pop()

    for name in counts:
        setattr(V, name, counted(name, getattr(V, name)))
    solver_module.local_inverse_batch = within
    try:
        fn()
    finally:
        for name in counts:
            delattr(V, name)  # the class's methods again
        solver_module.local_inverse_batch = inverse
    return rows["gradient"], rows["hessian"], rows["inverse"]


def stage_times(fn) -> dict:
    """Seconds spent in each function of AUBRY_STAGES during fn(), timed
    by wrapping the functions for the call."""
    spent = dict.fromkeys(AUBRY_STAGES, 0.0)

    def timed(name, method):
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t0
        return wrapped

    originals = {name: getattr(*where) for name, where in AUBRY_STAGES.items()}
    for name, (owner, attr) in AUBRY_STAGES.items():
        setattr(owner, attr, timed(name, originals[name]))
    try:
        fn()
    finally:
        for name, (owner, attr) in AUBRY_STAGES.items():
            setattr(owner, attr, originals[name])
    return spent


def best_of(fn) -> float:
    """Shortest wall time of REPEATS calls of fn()."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def interleaved(calls) -> list:
    """Per size, each layer's shortest wall time over REPEATS rounds;
    calls holds, per size, the layers as calls of no arguments. A round
    times every layer at every size in turn."""
    best = [dict.fromkeys(layers, np.inf) for layers in calls]
    for _ in range(REPEATS):
        for layers, times in zip(calls, best):
            for name, fn in layers.items():
                t0 = time.perf_counter()
                fn()
                times[name] = min(times[name], time.perf_counter() - t0)
    return best


def layer_calls(half_width: int) -> dict:
    V, cert = cosine_potential(), cosine_certificate()
    nn = NearestNeighborInteraction()
    params = SolveParams(lam=LAM, rho=RHO, window=half_width, tol=TOL)
    solver = ContractionSolver(nn, V, cert, [params])
    a = solver.anchors.chain(0)
    targets = -nn.delta(a) / LAM
    # the solver's steps run on stacked chains (n, 1, d)
    _, A, B, C = _coefficients(solver.anchors, nn, V, LAM)
    force = _force(solver.anchors, nn, V, LAM)
    polished, _, _, derivatives = solver.newton_polish(solver.anchors)
    [(u, _)] = solver.solve()
    return {
        "anchor_configuration": lambda: anchor_configuration(
            params.rho, cert.sampler, cert.covering_radius, params.window),
        "delta": lambda: nn.delta(a),
        "local_inverse_batch.cold": lambda: local_inverse_batch(
            V, a.values, targets, cert, tol=params.inner_tol),
        "phi_step.warm": lambda: solver.phi_step(polished, None, derivatives),
        "residual": lambda: residual(polished.chain(0), nn, V, LAM),
        "coefficients": lambda: _coefficients(solver.anchors, nn, V, LAM),
        "cyclic_reduction": lambda: _cyclic_reduction(-B, A + B + C, -A, force),
        "newton_polish": lambda: solver.newton_polish(solver.anchors),
        "solve": solver.solve,
        "verify_cone_conditions": lambda: verify_cone_conditions(u, nn, V, LAM, cert),
        "cone_splitting": lambda: cone_splitting(u, nn, V, LAM),
    }


def _slopes(sites, per_size) -> dict:
    """Each layer's seconds, microseconds per site and log-log slope of
    time against sites over the three largest sizes."""
    layers = {}
    for name in per_size[0]:
        s = np.array([t[name] for t in per_size])
        slope = np.polyfit(np.log(sites[-3:]), np.log(s[-3:]), 1)[0]
        layers[name] = {"s": s.tolist(), "us_per_site": (1e6 * s / sites).tolist(),
                        "loglog_slope": round(float(slope), 3)}
    return layers


def layer_calls_2d(half_width: int) -> dict:
    c = 0.65 * (half_width + 1)
    axis = np.pi * np.arange(-np.ceil(c / np.pi) - 1, np.ceil(c / np.pi) + 2)
    zeros = FiniteZeroSet(np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2),
                          -c, c)
    cert = AubryCertificate(zeros, np.pi / np.sqrt(2), np.pi / 4, np.cos(np.pi / 4))
    V = TrigSumPotential([(1.0, [1.0, 0.0], 0.0), (1.0, [0.0, 1.0], 0.0)])
    nn = NearestNeighborInteraction(PerturbedQuadraticCoupling(0.1))
    params = SolveParams(lam=LAM, rho=D2_RHO, window=half_width, tol=TOL)
    solver = ContractionSolver(nn, V, cert, [params])
    _, A, B, C = _coefficients(solver.anchors, nn, V, LAM)
    force = _force(solver.anchors, nn, V, LAM)
    [(u, _)] = solver.solve()
    return {
        "anchor_configuration": lambda: anchor_configuration(
            params.rho, zeros, cert.covering_radius, params.window),
        "cyclic_reduction": lambda: _cyclic_reduction(-B, A + B + C, -A, force),
        "verify_cone_conditions": lambda: verify_cone_conditions(u, nn, V, LAM, cert),
        "cone_splitting": lambda: cone_splitting(u, nn, V, LAM),
    }


def d2_times() -> dict:
    sites = np.array([2 * n + 1 for n in D2_HALF_WIDTHS], dtype=float)
    return {
        "what": (f"d = 2 layers in process, best of {REPEATS} rounds over the "
                 "sizes: V = cos x + cos y, the benchmark's finite pi Z^2 zero set, "
                 f"perturbed-quadratic coupling 0.1, lam = {LAM}, rho = "
                 f"{list(D2_RHO)}, tol = {TOL}; cyclic reduction at the "
                 "anchors, cone verdict and horizon-20 splitting at the "
                 "solved chain"),
        "half_widths": list(D2_HALF_WIDTHS),
        "sites": sites.astype(int).tolist(),
        "layers": _slopes(sites, interleaved([layer_calls_2d(n) for n in D2_HALF_WIDTHS])),
    }


def estimate_aubry_times() -> dict:
    V = truncated_almost_periodic(8, 0.5)
    zeros, s, rows, calls = [], [], [], []
    stages = {name: [] for name in AUBRY_STAGES}
    for w in AUBRY_WINDOWS:
        calls.append({})
        rows.append(count_rows(V, lambda: zeros.append(
            estimate_aubry(V, (-w, w)).metadata["zeros_found"]), calls[-1]))
        s.append(best_of(lambda: estimate_aubry(V, (-w, w))))
        runs = [stage_times(lambda: estimate_aubry(V, (-w, w))) for _ in range(REPEATS)]
        for name in AUBRY_STAGES:
            stages[name].append(min(run[name] for run in runs))
    slope = np.polyfit(np.log(zeros), np.log(s), 1)[0]
    return {
        "what": ("estimate_aubry in process, best of "
                 f"{REPEATS}: 8-term truncated almost-periodic V, amplitude "
                 "ratio 0.5, default grid, search window [-w, w]"),
        "half_windows": list(AUBRY_WINDOWS),
        "zeros_found": zeros,
        "s": s,
        "stages_s": stages,
        "ms_per_zero": [1e3 * t / z for t, z in zip(s, zeros)],
        "loglog_slope_vs_zeros": round(float(slope), 3),
        "gradient_calls": [c.get("gradient", 0) for c in calls],
        "hessian_calls": [c.get("hessian", 0) for c in calls],
        "gradient_rows": [g for g, *_ in rows],
        "hessian_rows": [h for _, h, _ in rows],
    }


def delone_times() -> dict:
    phi = (1 + np.sqrt(5)) / 2
    rows = []
    for bumps in DELONE_BUMPS:
        n = np.arange(1, bumps)
        long = np.floor(n / phi) - np.floor((n - 1) / phi)  # 1: a spacing of 1.618
        points = np.cumsum(np.concatenate([[0.0], np.where(long == 1, 1.618, 1.0)]))
        V = DeloneBumpPotential(points, width=0.45)
        window, calls = (points[0] - 1.0, points[-1] + 1.0), {}
        gradient_rows, hessian_rows, _ = count_rows(V, lambda: estimate_aubry(V, window), calls)
        runs = [stage_times(lambda: estimate_aubry(V, window)) for _ in range(REPEATS)]
        rows.append({
            "bumps": bumps,
            "s": best_of(lambda: estimate_aubry(V, window)),
            "stages_s": {name: min(run[name] for run in runs) for name in AUBRY_STAGES},
            "gradient_calls": calls.get("gradient", 0),
            "hessian_calls": calls.get("hessian", 0),
            "gradient_rows": gradient_rows,
            "hessian_rows": hessian_rows,
            "ball_radius": estimate_aubry(V, window).ball_radius,
        })
    return {
        "what": (f"estimate_aubry in process, best of {REPEATS}: {list(DELONE_BUMPS)} "
                 "Gaussian bumps of width 0.45 on a Fibonacci chain (spacings 1 "
                 "and 1.618), search window one unit past the ends"),
        "runs": rows,
    }


def estimate_aubry_2d_times() -> dict:
    V = TrigSumPotential([(1.0, [1.0, 0.0], 0.0), (1.0, [0.0, 1.0], 0.0)])
    window = ([-10.0, -10.0], [10.0, 10.0])
    cert = estimate_aubry(V, window)
    return {
        "what": (f"estimate_aubry in process, best of {REPEATS}: V = cos x + cos y, "
                 "search window [-10, 10]^2; lambda_threshold for the unit quadratic "
                 "coupling"),
        "s": best_of(lambda: estimate_aubry(V, window)),
        "covering_radius": cert.covering_radius,
        "ball_radius": cert.ball_radius,
        "expansion": cert.expansion,
        "lambda_threshold": lambda_threshold(NearestNeighborInteraction(), D2_RHO, cert),
    }


def mixed_stop_times() -> dict:
    V, cert, nn = cosine_potential(), cosine_certificate(), NearestNeighborInteraction()
    fast = [SolveParams(lam=MIXED_LAM, rho=float(rho), window=MIXED_HALF_WIDTH, tol=TOL)
            for rho in np.linspace(*MIXED_RHOS)]
    stall = [SolveParams(lam=MIXED_LAM, rho=MIXED_STALL, window=MIXED_HALF_WIDTH, tol=TOL)]
    steps = [len(out.trace) if isinstance(out, Exception) else out[1].iterations
             for out in ContractionSolver(nn, V, cert, fast + stall).solve()]
    s = {name: best_of(lambda: ContractionSolver(nn, V, cert, cases).solve())
         for name, cases in (("batch", fast + stall), ("fast_alone", fast),
                             ("stall_alone", stall))}
    tracemalloc.start()
    ContractionSolver(nn, V, cert, fast + stall).solve()
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return {
        "what": (f"one batch of {len(fast) + 1} cases in process, best of {REPEATS}: "
                 f"cosine V, closed-form certificate, unit quadratic coupling, lam = "
                 f"{MIXED_LAM}, half_width {MIXED_HALF_WIDTH}, tol = {TOL}, rhos "
                 f"linspace{MIXED_RHOS} and {MIXED_STALL}; s of the batch, of its "
                 f"converging cases alone and of rho = {MIXED_STALL} alone; "
                 "stopped_chains_s is the batch's s less the other two"),
        "cases": len(fast) + 1,
        "steps_per_case": {"converging": sorted(set(steps[:-1])), "stalling": steps[-1]},
        "s": s,
        "ms_per_case": 1e3 * s["batch"] / (len(fast) + 1),
        "stopped_chains_s": s["batch"] - s["fast_alone"] - s["stall_alone"],
        "peak_mb": peak,
    }


def sweep_times() -> dict:
    V = truncated_almost_periodic(8, 0.5)
    cert = estimate_aubry(V, (-200.0, 200.0))
    nn = NearestNeighborInteraction()
    grid = [SolveParams(lam=lam, rho=rho, window=SWEEP_HALF_WIDTH, tol=TOL)
            for lam in SWEEP_LAMS for rho in SWEEP_RHOS]
    dense = [SolveParams(lam=lam, rho=float(rho), window=SWEEP_HALF_WIDTH, tol=TOL)
             for lam in SWEEP_LAMS for rho in np.linspace(SWEEP_RHOS[0], SWEEP_RHOS[-1], 10)]

    def grid_of(k):  # the 5 x 5 grid, or the 5 x 10 one for a batch of more cases
        return grid if k <= len(grid) else dense

    def solve_all(k):
        cases = grid_of(k)
        for lo in range(0, len(cases), k):
            ContractionSolver(nn, V, cert, cases[lo:lo + k]).solve()

    def solved(k):
        """(solver, converged cases as its report step takes them) per batch"""
        batches, cases = [], grid_of(k)
        for lo in range(0, len(cases), k):
            solver = ContractionSolver(nn, V, cert, cases[lo:lo + k])
            batches.append((solver, {
                c: (u, rep.final_residual, rep.step_distances, rep.newton_steps,
                    rep.newton_fallback, rep.kantorovich_h, rep.kantorovich_lam)
                for c, (u, rep) in enumerate(solver.solve())}))
        return batches

    def epilogue_all(batches):
        for solver, done in batches:
            solver._reports(done)
            _hyperbolic_checks(
                stack_chains([u for u, *_ in done.values()]), nn, V,
                [solver.cases[c].lam for c in done], cert, TOL,
                derivatives=tuple(np.stack(x, axis=1) for x in zip(
                    *(solver.derivatives[c] for c in done))))

    s, peak, epilogue, rows, epilogue_rows = [], [], [], [], []
    for k in SWEEP_BATCHES:
        rows.append(count_rows(V, lambda: solve_all(k)))
        s.append(best_of(lambda: solve_all(k)))
        tracemalloc.start()
        solve_all(k)
        peak.append(tracemalloc.get_traced_memory()[1] / 2**20)
        tracemalloc.stop()
        batches = solved(k)
        epilogue.append(best_of(lambda: epilogue_all(batches)))
        epilogue_rows.append(count_rows(V, lambda: epilogue_all(batches))[:2])
    sites, counts = 2 * SWEEP_HALF_WIDTH + 1, [len(grid_of(k)) for k in SWEEP_BATCHES]
    return {
        "what": (f"the {len(grid)} solves of a sweep in process, best of "
                 f"{REPEATS}: 8-term truncated almost-periodic V, amplitude "
                 "ratio 0.5, certificate estimated over [-200, 200], lams "
                 f"{list(SWEEP_LAMS)}, rhos {list(SWEEP_RHOS)}, half_width "
                 f"{SWEEP_HALF_WIDTH}, in stacked batches of k cases; for k = "
                 f"{len(dense)} the {len(dense)} solves of the rhos linspace(0.1, 0.5, 10); "
                 "peak_mb is the most memory the solves hold at once (tracemalloc); "
                 "epilogue_s is each batch's reports and stacked hyperbolicity "
                 "checks after its solve, on the solve's derivatives, and "
                 "epilogue_rows the [gradient, hessian] rows of V they "
                 "evaluate; gradient_rows and hessian_rows are the rows of "
                 "V the solves evaluate, fused derivatives calls included, "
                 "inverse_rows and outside_inverse_rows those of them inside "
                 "and outside local_inverse_batch"),
        "cases": counts,
        "cases_per_batch": list(SWEEP_BATCHES),
        "rows_per_batch": [k * sites for k in SWEEP_BATCHES],
        "s": s,
        "ms_per_case": [1e3 * t / n for t, n in zip(s, counts)],
        "peak_mb": peak,
        "peak_bytes_per_row": [2**20 * mb / (k * sites) for mb, k in zip(peak, SWEEP_BATCHES)],
        "epilogue_s": epilogue,
        "epilogue_ms_per_case": [1e3 * t / n for t, n in zip(epilogue, counts)],
        "epilogue_rows": epilogue_rows,
        "gradient_rows": [g for g, *_ in rows],
        "hessian_rows": [h for _, h, _ in rows],
        "inverse_rows": [i for *_, i in rows],
        "outside_inverse_rows": [g - i for g, _, i in rows],
        "mixed_stop": mixed_stop_times(),
    }


def src_lines() -> dict:
    """Lines of each of the library's modules, src/antifk/*.py, by file name."""
    return {p.name: len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted(Path(antifk.__file__).parent.glob("*.py"))}


def scale_check() -> dict:
    sites = np.array([2 * n + 1 for n in HALF_WIDTHS], dtype=float)
    layers = _slopes(sites, interleaved([layer_calls(n) for n in HALF_WIDTHS]))
    lines = src_lines()
    return {
        "what": (f"solver layers in process, best of {REPEATS} rounds over the "
                 f"sizes: cosine V, unit quadratic coupling, lam = {LAM}, rho = "
                 f"{RHO}, tol = {TOL}; Newton layers at the anchors, phi_step.warm "
                 "(the closing step) and residual at the chain the polish hands "
                 "on; cone verdict and horizon-20 splitting at the solved chain"),
        "half_widths": list(HALF_WIDTHS),
        "sites": sites.astype(int).tolist(),
        "layers": layers,
        "estimate_aubry": estimate_aubry_times(),
        "estimate_aubry_delone": delone_times(),
        "estimate_aubry_2d": estimate_aubry_2d_times(),
        "sweep": sweep_times(),
        "d2": d2_times(),
        "src_lines": sum(lines.values()),
        "src_lines_by_module": lines,
        "machine": {"python": platform.python_version(),
                    "numpy": np.__version__, "antifk": antifk.__version__},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", help="write the JSON here instead of stdout")
    args = p.parse_args(argv)
    text = json.dumps(scale_check(), indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
