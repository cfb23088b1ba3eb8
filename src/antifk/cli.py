"""Command-line driver.

Four subcommands cover the pipeline: ``certify`` builds a zero-set
certificate for a potential, ``solve`` runs the contraction to an
equilibrium, ``hyperbolicity`` checks cone conditions and the twist orbit
of a configuration, and ``sweep`` tabulates solves over a coupling /
rotation grid. All runs are driven by a JSON config file (strictly
validated; unknown keys are rejected) and write their artifacts into the
--out directory. Every artifact except manifest.json is byte-deterministic
for a fixed config.

Exit codes: 0 success, 1 usage or config error, 2 certification failure,
3 no convergence, 4 inadmissible local-inverse target, 5 hyperbolicity
verdict failed.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    CertificateError,
    CertificationError,
    ConfigError,
    ConvergenceError,
    ConvexityError,
    DomainError,
    _check_block,
)
from .hyperbolicity import (
    HyperbolicityCertificate,
    check_stack,
    cone_splitting,
    legendre_bounds,
    orbit_to_csv,
)
from .interactions import NearestNeighborInteraction, interaction_from_dict
from .lattice import (
    AnchorTail,
    Window,
    anchor_configuration,
    as_rotation,
    configuration_from_csv,
    configuration_to_csv,
    stack_chains,
)
from .potentials import (
    AubryCertificate,
    cosine_certificate,
    estimate_aubry,
    potential_from_dict,
)
from .solver import ContractionSolver, SolveParams, solve_equilibrium

# block -> key -> kind (errors._KINDS) of every config key, "config" the top
# level; whether a key is required, and its default, is up to the command that
# reads it. A certificate block is checked here only as a path: from_json_dict
# checks the rest. No command reads seed: nothing on any path is drawn at random.
_CONFIG = {
    "config": {"seed": "int", "potential": "object", "interaction": "object",
               "certificate": "object", "certification": "object", "solve": "object",
               "hyperbolicity": "object", "sweep": "object"},
    "certificate": {"path": "path"},
    "certification": {"search_window": "window", "grid_points": "int",
                      "zero_tol": "number", "degeneracy_fraction": "number",
                      "safety": "number", "expansion_fraction": "number"},
    "solve": {"lam": "number", "rho": "rho", "half_width": "int", "tol": "number",
              "max_iter": "int", "inner_tol": "number"},
    "hyperbolicity": {"solution": "path", "report": "path", "lam": "number", "rho": "rho",
                      "half_width": "int", "horizon": "int", "splitting": "bool",
                      "orbit_tol": "number", "use_anchor_configuration": "bool"},
    "sweep": {"lams": "numbers", "rhos": "numbers", "cases": "pairs", "half_width": "int",
              "tol": "number", "max_iter": "int", "hyperbolicity": "bool"},
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _worker_count(text):
    """An argparse type: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_json(path, what):
    """The JSON document in the file path; ConfigError if it cannot be
    read or parsed, what naming the file's role."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _load_config(path):
    """The config in the file path, its top level and every block present
    checked against _CONFIG."""
    cfg = _read_json(path, "config")
    _check_block(cfg, _CONFIG["config"], "config")
    if cfg.get("seed", 0) < 0:
        raise ConfigError(f"seed must be at least 0, got {cfg['seed']}")
    for where, block in cfg.items():
        if where in _CONFIG and (where != "certificate" or "path" in block):
            _check_block(block, _CONFIG[where], where)
    return cfg


def _build_potential(cfg):
    try:
        return potential_from_dict(cfg.get("potential", {"family": "cosine"}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad potential block: {exc}") from exc


def _build_interaction(cfg):
    try:
        return interaction_from_dict(cfg.get("interaction", {"kind": "nearest-neighbor"}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad interaction block: {exc}") from exc


def _build_certificate(cfg, potential):
    if "certificate" in cfg:
        block = cfg["certificate"]
        if "path" in block:
            block = _read_json(block["path"], "certificate")
        try:
            return AubryCertificate.from_json_dict(block)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad certificate block: {exc}") from exc
    if "certification" in cfg:
        return _estimate_certificate(cfg["certification"], potential)
    if cfg.get("potential", {"family": "cosine"}).get("family") == "cosine":
        return cosine_certificate()
    raise ConfigError(
        "no certificate: supply a 'certificate' or 'certification' block"
    )


def _estimate_certificate(block, potential):
    _check_block(block, _CONFIG["certification"], "certification", ["search_window"])
    # passed on as written: the certificate's metadata records them
    kwargs = {k: v for k, v in block.items() if k != "search_window"}
    try:
        return estimate_aubry(potential, block["search_window"], **kwargs)
    except ConfigError as exc:  # estimate_aubry names the argument it rejects
        raise ConfigError(f"certification.{exc}") from exc


def _json_text(obj, pad="\n"):
    """json.dumps(obj, indent=2, sort_keys=True); nonempty rectangular number
    arrays skip the slow pure-Python indenting encoder for the C one."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        items = (json.dumps(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    try:
        arr = np.asarray(obj if isinstance(obj, (list, tuple)) else [])
    except ValueError:  # ragged
        arr = np.empty(0)
    if arr.size == 0 or arr.dtype.kind not in "biuf":
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad)
    d, text = arr.ndim, json.dumps(obj)
    ind = [pad + "  " * k for k in range(d + 1)]
    opens = ["".join("[" + ind[d - j + i] for i in range(1, j + 1)) for j in range(d + 1)]
    shuts = ["".join(ind[d - i] + "]" for i in range(1, j + 1)) for j in range(d + 1)]
    for j in range(d - 1, -1, -1):  # separators closing j lists, most first
        text = text.replace("]" * j + ", " + "[" * j,
                            shuts[j] + "," + ind[d - j] + opens[j])
    return opens[d] + text[d:-d] + shuts[d]


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(obj) + "\n")


def _write_manifest(outdir, command, config_path, artifacts):
    with open(config_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    _write_json(os.path.join(outdir, "manifest.json"), {
        "command": command, "config_sha256": digest, "artifacts": sorted(artifacts),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__})


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _cmd_certify(args):
    cfg = _load_config(args.config)
    if "certification" not in cfg:
        raise ConfigError("certify requires a 'certification' block")
    potential = _build_potential(cfg)
    cert = _estimate_certificate(cfg["certification"], potential)
    outdir = _outdir(args)
    _write_json(os.path.join(outdir, "certificate.json"), cert.to_json_dict())
    _write_manifest(outdir, "certify", args.config, ["certificate.json"])
    print(
        f"certificate: r={cert.ball_radius:.6g} R={cert.covering_radius:.6g} "
        f"m={cert.expansion:.6g}"
    )
    return 0


def _solve_params(block):
    _check_block(block, _CONFIG["solve"], "solve", ["lam", "rho", "half_width"])
    kwargs = dict(block)
    kwargs["window"] = kwargs.pop("half_width")
    try:
        return SolveParams(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solve block: {exc}") from exc


def _cmd_solve(args):
    cfg = _load_config(args.config)
    if "solve" not in cfg:
        raise ConfigError("solve requires a 'solve' block")
    potential = _build_potential(cfg)
    interaction = _build_interaction(cfg)
    cert = _build_certificate(cfg, potential)
    params = _solve_params(cfg["solve"])
    u, report = solve_equilibrium(params, interaction, potential, cert)
    outdir = _outdir(args)
    configuration_to_csv(u, os.path.join(outdir, "solution.csv"))
    _write_json(os.path.join(outdir, "certificate.json"), cert.to_json_dict())
    _write_json(os.path.join(outdir, "report.json"), {
        "command": "solve",
        "params": {"lam": params.lam, "rho": params.rho.rho.tolist(),
                   "half_width": params.window.half_width, "tol": params.tol,
                   "max_iter": params.max_iter, "inner_tol": params.inner_tol},
        "potential": potential.to_dict(),
        "interaction": interaction.to_dict(),
        "report": report.to_json_dict(),
    })
    _write_manifest(outdir, "solve", args.config,
                    ["solution.csv", "certificate.json", "report.json"])
    print(f"solved in {report.iterations} iterations, residual "
          f"{report.final_residual:.3e}, d(u, anchors) = {report.distance_to_anchor:.6g}")
    return 0


def _hyp_setting(hblock, sblock, key):
    if key in hblock:
        return hblock[key]
    if key in sblock:
        return sblock[key]
    raise ConfigError(
        f"hyperbolicity needs '{key}' (in the hyperbolicity or solve block)"
    )


def _hyperbolic_checks(u, interaction, potential, lams, cert, tol, horizon=None,
                       orbit_tol=None, derivatives=None):
    """The hyperbolicity pipeline of hyperbolicity and sweep. Per chain k of
    the stack u (n, K, d), at coupling lams[k]: (report, momenta,
    orbit_tol), or the CertificateError of a chain whose coefficients fail
    the certificate, which marks that chain only. The cone verdicts,
    momenta and orbit checks of all chains come from one pass
    (check_stack), on the solve's derivatives of u if given; the
    splitting, given a horizon, reuses a chain's coefficients. orbit_tol
    defaults to 10 tol (1 + lam sup|hess V|)."""
    checks, (sites, A, B, C) = check_stack(u, interaction, potential, lams, cert,
                                           derivatives)
    sup, out = potential.hessian_sup_bound(), []
    for k, (lam, check) in enumerate(zip(lams, checks)):
        if isinstance(check, CertificateError):
            out.append(check)
            continue
        verdict, p, deviation = check
        try:
            split = None if horizon is None else cone_splitting(
                u.chain(k), interaction, potential, lam, horizon=horizon,
                coefficients=(sites, A[:, k], B[:, k], C[:, k]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        report = HyperbolicityCertificate(
            lam=lam, cone=verdict.cone, verdict=verdict, splitting=split,
            legendre_sigma_bounds=legendre_bounds(interaction.coupling),
            orbit_deviation=deviation,
        )
        out.append((report, p, 10.0 * tol * (1.0 + lam * sup)
                     if orbit_tol is None else orbit_tol))
    return out


def _cmd_hyperbolicity(args):
    cfg = _load_config(args.config)
    hblock = cfg.get("hyperbolicity", {})
    sblock = cfg.get("solve", {})
    potential = _build_potential(cfg)
    interaction = _build_interaction(cfg)
    if not isinstance(interaction, NearestNeighborInteraction):
        raise ConfigError(
            "hyperbolicity analysis supports nearest-neighbor interactions only"
        )
    cert = _build_certificate(cfg, potential)
    warnings, derivatives = [], None
    if hblock.get("use_anchor_configuration", False):
        lam = float(_hyp_setting(hblock, sblock, "lam"))
        rho = as_rotation(_hyp_setting(hblock, sblock, "rho"))
        u = anchor_configuration(rho, cert.sampler, cert.covering_radius,
                                 Window(_hyp_setting(hblock, sblock, "half_width"),
                                        rho.dimension))
        source = "anchor-configuration"
        warnings.append("evaluated at the anchor configuration, not a solved equilibrium")
    elif "solution" in hblock:
        lam, rho = _solution_context(hblock, sblock)
        tail = AnchorTail(rho, cert.sampler, cert.covering_radius)
        try:
            u = configuration_from_csv(hblock["solution"], tail)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read solution {hblock['solution']}: {exc}") from exc
        source = "solution"
    else:
        if "solve" not in cfg:
            raise ConfigError(
                "hyperbolicity needs a 'solution' path, "
                "use_anchor_configuration, or a 'solve' block"
            )
        params = _solve_params(cfg["solve"])
        solver = ContractionSolver(interaction, potential, cert, [params])
        [outcome] = solver.solve()
        if isinstance(outcome, Exception):
            raise outcome
        u, lam, source = outcome[0], params.lam, "solve"
        derivatives = tuple(x[:, None] for x in solver.derivatives[0])
    horizon = hblock.get("horizon", min(20, max(u.window.half_width - 1, 1)))
    [outcome] = _hyperbolic_checks(
        stack_chains([u]), interaction, potential, [lam], cert,
        float(sblock.get("tol", 1e-10)),
        horizon=horizon if hblock.get("splitting", True) else None,
        orbit_tol=hblock.get("orbit_tol"), derivatives=derivatives,
    )
    if isinstance(outcome, CertificateError):
        raise outcome
    report, p, orbit_tol = outcome
    report.warnings = warnings
    verdict, deviation = report.verdict, report.orbit_deviation
    orbit_pass = bool(deviation <= orbit_tol)
    outdir = _outdir(args)
    _write_json(os.path.join(outdir, "hyperbolicity.json"), {
        **report.to_json_dict(), "orbit_tol": float(orbit_tol), "orbit_pass": orbit_pass,
        "source": source})
    orbit_to_csv(os.path.join(outdir, "orbit.csv"), u, p)
    _write_manifest(outdir, "hyperbolicity", args.config, ["hyperbolicity.json", "orbit.csv"])
    print(f"cone conditions: {'pass' if verdict.all_pass else 'FAIL'} "
          f"(margin {verdict.margin:.4g}); orbit deviation {deviation:.3e} "
          f"{'<=' if orbit_pass else '>'} {orbit_tol:.3e}")
    return 0 if report.all_pass and orbit_pass else 5


def _solution_context(hblock, sblock):
    if "lam" in hblock or "rho" in hblock:
        return (float(_hyp_setting(hblock, sblock, "lam")),
                as_rotation(_hyp_setting(hblock, sblock, "rho")))
    report_path = hblock.get("report")
    if report_path is None:
        raise ConfigError(
            "hyperbolicity with a 'solution' path needs lam and rho, either "
            "inline or via a 'report' path"
        )
    rep = _read_json(report_path, "report")
    params = rep.get("params") if type(rep) is dict else None  # a solve block
    _check_block(params, _CONFIG["solve"], "report.params", ["lam", "rho"])
    return float(params["lam"]), as_rotation(params["rho"])


def _sweep_batch(payload):
    """Worker for one batch of (lam, rho) cells, solved as stacked chains,
    whose converged chains then go through the hyperbolicity checks as one
    stack, with the grad V and hess V their solves ended on; must stay
    importable for pickling. A case's failure, in its
    solve or in its hyperbolicity checks, marks only its own row."""
    (potential, interaction, cert, cases, half_width, tol, max_iter,
     check_hyp) = payload
    params = [SolveParams(lam=lam, rho=rho, window=half_width, tol=tol,
                          max_iter=max_iter) for lam, rho in cases]
    solver = ContractionSolver(interaction, potential, cert, params)
    rows, solved = [], []
    for c, ((lam, rho), outcome) in enumerate(zip(cases, solver.solve())):
        row = dict.fromkeys(_SWEEP_COLUMNS, "")
        row.update(lam=lam, rho=rho, status="ok")
        rows.append(row)
        if isinstance(outcome, Exception):
            row["status"] = _SWEEP_STATUS[type(outcome)]
            continue
        u, rep = outcome
        row.update(
            iterations=rep.iterations,
            final_residual=repr(rep.final_residual),
            contraction_factor=repr(rep.contraction_factor),
            distance_to_anchor=repr(rep.distance_to_anchor),
            distance_to_rotation=repr(rep.distance_to_rotation),
        )
        row.update((key, "" if getattr(rep, key) is None else repr(getattr(rep, key)))
                   for key in ("kantorovich_h", "kantorovich_lam"))  # empty where None
        solved.append((row, u, lam, solver.derivatives.pop(c)))
    if check_hyp and solved:
        rows_ok, chains, lams, derivatives = zip(*solved)
        u, derivatives = stack_chains(chains), [np.stack(x, axis=1) for x in zip(*derivatives)]
        del solver, solved, chains  # the solve's copies of these stacks, freed for the checks
        checks = _hyperbolic_checks(u, interaction, potential, lams, cert, tol,
                                    derivatives=derivatives)
        for row, check in zip(rows_ok, checks):
            if isinstance(check, CertificateError):
                row["status"] = "certificate-error"
                continue
            report, _, orbit_tol = check
            row["hyperbolic_pass"] = str(
                bool(report.all_pass and report.orbit_deviation <= orbit_tol)
            ).lower()
    return rows


# rows (sites times cases) per stacked sweep batch: bounds the solver's state,
# about 160 B a row, as V's kernels work in blocks (BENCH_21.json)
_BATCH_ROWS = 16384

_SWEEP_STATUS = {DomainError: "domain-error", ConvergenceError: "no-convergence",
                 CertificateError: "certificate-error"}

_SWEEP_COLUMNS = ["lam", "rho", "status", "iterations", "final_residual",
                  "contraction_factor", "distance_to_anchor", "distance_to_rotation",
                  "hyperbolic_pass", "kantorovich_h", "kantorovich_lam"]


def _sweep_payloads(cfg, args):
    block = cfg.get("sweep")
    if block is None:
        raise ConfigError("sweep requires a 'sweep' block")
    if "cases" in block:
        if "lams" in block or "rhos" in block:
            raise ConfigError("sweep takes either 'cases' or 'lams'/'rhos'")
        pairs = [(float(lam), float(rho)) for lam, rho in block["cases"]]
    else:
        _check_block(block, _CONFIG["sweep"], "sweep", ["lams", "rhos"])
        pairs = [(float(lam), float(rho)) for lam in block["lams"] for rho in block["rhos"]]
    if not pairs:
        raise ConfigError("sweep grid is empty")
    if not np.isfinite(pairs).all():
        raise ConfigError("sweep lam and rho values must be finite")
    potential = _build_potential(cfg)
    interaction = _build_interaction(cfg)
    cert = _build_certificate(cfg, potential)
    half_width = block.get("half_width", 32)
    tol = float(block.get("tol", 1e-10))
    max_iter = block.get("max_iter", 200)
    check_hyp = block.get("hyperbolicity", False)
    if check_hyp and not isinstance(interaction, NearestNeighborInteraction):
        raise ConfigError(
            "sweep hyperbolicity checks support nearest-neighbor interactions only"
        )
    cases = sorted(pairs)
    # every worker gets a batch while there are cases for it
    size = min(max(1, _BATCH_ROWS // (2 * half_width + 1)),
               -(-len(cases) // args.workers))
    return [
        (potential, interaction, cert, cases[i:i + size], half_width, tol,
         max_iter, check_hyp)
        for i in range(0, len(cases), size)
    ]


def _cmd_sweep(args):
    cfg = _load_config(args.config)
    payloads = _sweep_payloads(cfg, args)
    workers = min(args.workers, len(payloads))  # a process per batch at most
    if workers == 1:
        batches = [_sweep_batch(p) for p in payloads]
    else:  # imported here: a serial run does not pay for it
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_sweep_batch, payloads))
    rows = [row for batch in batches for row in batch]
    rows.sort(key=lambda r: (r["lam"], r["rho"]))
    outdir = _outdir(args)
    path = os.path.join(outdir, "sweep.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_SWEEP_COLUMNS) + "\n")
        fh.writelines(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                               for c in _SWEEP_COLUMNS) + "\n" for row in rows)
    _write_manifest(outdir, "sweep", args.config, ["sweep.csv"])
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"sweep: {n_ok}/{len(rows)} cases solved; table in {path}")
    return 0


@functools.cache  # built on the first main() call, not at import
def _build_parser():
    parser = _Parser(prog="antifk", description=(
        "equilibria of strongly coupled Frenkel-Kontorova chains: "
        "certify potentials, solve, check hyperbolicity, sweep"))
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [("certify", _cmd_certify, "estimate a zero-set certificate"),
             ("solve", _cmd_solve, "run the contraction to an equilibrium"),
             ("hyperbolicity", _cmd_hyperbolicity, "check cone conditions and the twist orbit"),
             ("sweep", _cmd_sweep, "tabulate solves over a parameter grid")]
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory")
        if name == "sweep":
            p.add_argument("--workers", type=_worker_count, default=1,
                           help="parallel worker count (at most one per batch)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits for --help/--version (0) and usage errors (1)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (CertificationError, CertificateError, ConvexityError) as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"inadmissible target: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
