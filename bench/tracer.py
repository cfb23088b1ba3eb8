"""Span tracing of ``antifk`` layers from outside the library.

``install`` replaces selected public functions and methods with timing
wrappers. A function is rebound under every name an ``antifk`` module
holds it by (``solver`` imports ``local_inverse_batch`` by name, ``cli``
imports most of the library), so each call passes through exactly one
wrapper. Spans nest through a stack: each records its caller, its
inclusive time and its self time (inclusive minus the time of its child
spans). Counters record kernel work (rows evaluated, sites split) at the
same boundaries. Everything stays in memory and is read once per op.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, attribute path, span name); methods of several classes may
# share one span name
SPANS = [
    ("cli", "main", "cli.main"),
    ("solver", "ContractionSolver.solve", "solver.ContractionSolver.solve"),
    ("solver", "ContractionSolver.phi_step", "solver.ContractionSolver.phi_step"),
    ("solver", "residual", "solver.residual"),
    ("solver", "lambda_threshold", "solver.lambda_threshold"),
    ("lattice", "anchor_configuration", "lattice.anchor_configuration"),
    ("lattice", "Configuration.extended", "lattice.Configuration.extended"),
    ("lattice", "ext_distance", "lattice.ext_distance"),
    ("lattice", "configuration_to_csv", "lattice.configuration_to_csv"),
    ("interactions", "NearestNeighborInteraction.delta", "interactions.delta"),
    ("interactions", "NearestNeighborInteraction.lipschitz_bound",
     "interactions.lipschitz_bound"),
    ("potentials", "PeriodicZeroSet.points_near", "potentials.points_near"),
    ("potentials", "FiniteZeroSet.points_near", "potentials.points_near"),
    ("potentials", "local_inverse_batch", "potentials.local_inverse_batch"),
    ("potentials", "local_inverse", "potentials.local_inverse"),
    ("potentials", "estimate_aubry", "potentials.estimate_aubry"),
    ("potentials", "AubryCertificate.verify", "potentials.AubryCertificate.verify"),
    ("hyperbolicity", "linearize", "hyperbolicity.linearize"),
    ("hyperbolicity", "verify_cone_conditions",
     "hyperbolicity.verify_cone_conditions"),
    ("hyperbolicity", "cone_splitting", "hyperbolicity.cone_splitting"),
    ("hyperbolicity", "transfer_matrix", "hyperbolicity.transfer_matrix"),
    ("hyperbolicity", "momentum", "hyperbolicity.momentum"),
    ("hyperbolicity", "verify_orbit", "hyperbolicity.verify_orbit"),
    ("hyperbolicity", "orbit_to_csv", "hyperbolicity.orbit_to_csv"),
]

# kernels counted by rows evaluated, without a span: they run millions of
# times in the scalar local-inverse fallback
ROW_COUNTERS = [
    ("potentials", "TrigSumPotential.gradient", "potentials.gradient.rows"),
    ("potentials", "TrigSumPotential.hessian", "potentials.hessian.rows"),
]


def _rows_of_points(args, result):
    potential, x = args[0], args[1]
    return max(1, np.size(x) // potential.dimension)


def _rows_of_centers(args, result):
    return np.atleast_2d(args[1]).shape[0]


def _sites_of_result(args, result):
    return len(result.sites)


# extra counts read off a span's call: (span name, counter, function)
SPAN_COUNTERS = [
    ("potentials.local_inverse_batch", "potentials.local_inverse_batch.rows",
     _rows_of_centers),
    ("hyperbolicity.cone_splitting", "hyperbolicity.cone_splitting.sites",
     _sites_of_result),
]


class Tracer:
    def __init__(self):
        self.stack = []
        self.reset()

    def reset(self):
        self.spans = {}   # name -> [calls, inclusive_s, self_s]
        self.callers = {}  # (caller, name) -> calls
        self.counts = {}

    def span(self, name, fn):
        extra = [(c, f) for s, c, f in SPAN_COUNTERS if s == name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = self.stack[-1] if self.stack else None
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if caller is not None:
                    caller[1] += dt
                key = (caller[0] if caller else None, name)
                self.callers[key] = self.callers.get(key, 0) + 1
            for counter, f in extra:
                self.add(counter, f, args, result)
            return result
        return wrapper

    def row_counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name, _rows_of_points, args, None)
            return fn(*args, **kwargs)
        return wrapper

    def add(self, counter, f, args, result):
        self.counts[counter] = self.counts.get(counter, 0) + f(args, result)


def _resolve(module, path):
    """(owner, attribute) for a dotted path. A traced name the library no
    longer defines raises, so a renamed layer fails the traced run instead
    of reading zero."""
    owner = module
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    if attr not in vars(owner):
        raise AttributeError(f"{module.__name__}.{path} is not defined")
    return owner, attr


def install(tracer):
    """Wrap the traced functions of the imported ``antifk`` package and
    return the (owner, attribute, original) triples ``uninstall`` restores.

    Besides the attribute named in SPANS, every module-level name that any
    ``antifk`` module binds to the same function is rebound as well.
    """
    specs = ([(m, p, n, tracer.span) for m, p, n in SPANS]
             + [(m, p, n, tracer.row_counter) for m, p, n in ROW_COUNTERS])
    wrappers, patched = {}, []
    for mod_name, path, name, make in specs:
        owner, attr = _resolve(sys.modules[f"antifk.{mod_name}"], path)
        original = owner.__dict__[attr]
        wrappers[id(original)] = (original, make(name, original))
        patched.append((owner, attr, original))
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "antifk" or mod_name.startswith("antifk."):
            for attr, value in vars(module).items():
                original, _ = wrappers.get(id(value), (None, None))
                if value is original:
                    patched.append((module, attr, original))
    for owner, attr, original in patched:
        setattr(owner, attr, wrappers[id(original)][1])
    return patched


def uninstall(patched):
    for owner, attr, original in patched:
        setattr(owner, attr, original)


def op_metrics(tracer, op_wall):
    """Per-layer figures of one op from the tracer's state."""
    out = {name: 0 for _, _, name in ROW_COUNTERS}
    out.update((counter, 0) for _, counter, _ in SPAN_COUNTERS)
    spans = {name: (0, 0.0, 0.0) for _, _, name in SPANS}
    spans.update(tracer.spans)
    for name, (calls, incl, self_s) in spans.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = incl
        out[f"{name}.self_s"] = self_s
    out.update(tracer.counts)
    out["solver.iterations"] = out["solver.ContractionSolver.phi_step.calls"]
    batch_rows = out["potentials.local_inverse_batch.rows"]
    scalar = out["potentials.local_inverse.calls"]
    out["potentials.batched_newton_ratio"] = 1.0 - scalar / batch_rows
    covered = sum(s for name, (_, _, s) in tracer.spans.items()
                  if name != "cli.main")
    out["trace.uncovered_share"] = max(0.0, 1.0 - covered / op_wall)
    out["trace.callers"] = {f"{c} > {n}": k for (c, n), k in tracer.callers.items()}
    return out
