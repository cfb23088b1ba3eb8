import dataclasses
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from antifk import (AubryCertificate, SolveParams, cosine_certificate, coupling_from_dict,
                    estimate_aubry, interaction_from_dict, potential_from_dict,
                    sampler_from_dict)
from antifk.cli import _CONFIG, _json_text, main
from antifk.errors import _KINDS
from antifk.interactions import _COUPLINGS, _INTERACTIONS
from antifk.potentials import _CERTIFICATE, _POTENTIALS, _TERM, _ZERO_SETS


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def solve_config(tmp_path, **overrides):
    solve = {"lam": 20.0, "rho": 1.0, "half_width": 12, "tol": 1e-10}
    solve.update(overrides)
    return write_config(
        tmp_path / "config.json",
        {"potential": {"family": "cosine"}, "solve": solve},
    )


class TestCertify:
    def test_reproduces_cosine_numbers(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "potential": {"family": "cosine"},
                "certification": {"search_window": [-10.0, 10.0]},
            },
        )
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["ball_radius"] == pytest.approx(np.pi / 4, rel=1e-6)
        assert cert["covering_radius"] == pytest.approx(np.pi / 2, rel=1e-6)
        assert cert["expansion"] == pytest.approx(np.sqrt(2) / 2, rel=1e-6)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "certify"
        assert "certificate.json" in manifest["artifacts"]

    def test_zero_free_window_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "potential": {"family": "cosine"},
                "certification": {"search_window": [0.2, 0.8]},
            },
        )
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_zero_radius_samples_exits_1(self, tmp_path, capsys):
        # no certificate is sampled, so no sampling knob is a key
        cfg = write_config(
            tmp_path / "c.json",
            {
                "potential": {"family": "cosine"},
                "certification": {"search_window": [-10.0, 10.0],
                                  "radius_samples": 0},
            },
        )
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "unknown keys in certification: radius_samples" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["covering_checks", "pair_checks"])
    def test_zero_checks_exit_1(self, key, tmp_path, capsys):
        # certificates are proved, not sampled: the sampling knobs are
        # unknown keys
        cfg = write_config(
            tmp_path / "c.json",
            {
                "potential": {"family": "cosine"},
                "certification": {"search_window": [-10.0, 10.0], key: 256},
            },
        )
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"unknown keys in certification: {key}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("window", [[-10.0, 10.0], [[-10.0, -10.0], [10.0, 10.0]]])
    def test_certifies_in_two_dimensions(self, window, tmp_path):
        # a pair spans every axis, a box gives each; the CLI writes
        # estimate_aubry's certificate, whose R bounds cos x + cos y's
        potential = {"family": "trig-sum", "terms": [
            {"amplitude": 1.0, "frequency": [1.0, 0.0], "phase": 0.0},
            {"amplitude": 1.0, "frequency": [0.0, 1.0], "phase": 0.0}]}
        cfg = write_config(tmp_path / "c.json", {
            "potential": potential, "certification": {"search_window": window}})
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        written = json.loads((out / "certificate.json").read_text())
        cert = estimate_aubry(potential_from_dict(potential), window)
        assert written == json.loads(json.dumps(cert.to_json_dict()))
        assert np.pi / np.sqrt(2) <= written["covering_radius"] <= np.pi / np.sqrt(2) * (1 + 1e-3)

    @pytest.mark.parametrize("family, window", [
        ("cosine", [[-10.0, -10.0], [10.0, 10.0]]), ("cosine", [[-10.0], [10.0, 10.0]]),
        ("trig-sum", [[-10.0, -10.0, -10.0], [10.0, 10.0, 10.0]])])
    def test_box_of_the_wrong_dimension_exits_1(self, family, window, tmp_path, capsys):
        potential = {"family": "cosine"} if family == "cosine" else {
            "family": "trig-sum", "terms": [{"amplitude": 1.0, "frequency": [1.0, 1.0],
                                             "phase": 0.0}]}
        cfg = write_config(tmp_path / "c.json", {
            "potential": potential, "certification": {"search_window": window}})
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: certification.search_window must be a number "
                              "pair or a box of dimension")

    def test_box_in_one_dimension_is_the_pair(self, tmp_path):
        written = []
        for window in ([-10.0, 10.0], [[-10.0], [10.0]]):
            cfg = write_config(tmp_path / "c.json", {
                "potential": {"family": "cosine"},
                "certification": {"search_window": window}})
            assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
            written.append((tmp_path / "o" / "certificate.json").read_text())
        assert written[0] == written[1]

    def test_other_errors_are_not_named_as_certification_keys(self, tmp_path, capsys,
                                                              monkeypatch):
        # only estimate_aubry's own argument errors are certification keys
        def broken(*args, **kwargs):
            raise ValueError("cannot reshape array of size 4001 into shape (2)")

        monkeypatch.setattr("antifk.cli.estimate_aubry", broken)
        cfg = write_config(tmp_path / "c.json", {
            "potential": {"family": "cosine"},
            "certification": {"search_window": [-10.0, 10.0]}})
        assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot reshape") and "certification." not in err

    def test_provenance_and_verification(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "potential": {"family": "almost-periodic-truncated", "term_count": 4},
            "certification": {"search_window": [-40.0, 40.0]}})
        out = tmp_path / "o"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "certificate.json").read_text())["metadata"]
        assert set(meta["provenance"].values()) == {"bounded"}
        assert meta["verification"] == {"zeros_checked": meta["zeros_retained"]}


class TestSolve:
    def test_artifacts_and_exit(self, tmp_path):
        cfg = solve_config(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        for name in ("solution.csv", "certificate.json", "report.json",
                     "manifest.json"):
            assert (out / name).exists()
        rep = json.loads((out / "report.json").read_text())
        assert rep["report"]["converged"]
        assert rep["report"]["final_residual"] <= 1e-10
        assert rep["params"]["half_width"] == 12
        lines = (out / "solution.csv").read_text().strip().split("\n")
        assert lines[0] == "site,u_0"
        assert len(lines) == 26

    def test_deterministic_output(self, tmp_path):
        cfg = solve_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(a)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(b)]) == 0
        for name in ("solution.csv", "certificate.json", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_max_iter_exhaustion_exits_3(self, tmp_path):
        # a long-range chain takes tube-map steps only, 18 of them at lam = 40
        cfg = write_config(tmp_path / "config.json", {
            "potential": {"family": "cosine"},
            "interaction": {"kind": "long-range", "power": 2,
                            "weights": {"1": 1.0, "2": 0.25}},
            "solve": {"lam": 40.0, "rho": 1.0, "half_width": 12, "max_iter": 2}})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_weak_coupling_exits_4(self, tmp_path):
        cfg = solve_config(tmp_path, lam=0.5)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    def test_weak_coupling_exits_4_in_d2(self, tmp_path, capsys):
        # cos x + cos y on pi Z^2: the first step's target leaves the
        # admissible ball, so the step's local inverse has no rows
        axis = [j * np.pi for j in range(-6, 7)]
        cert = write_config(tmp_path / "cert.json", {
            "zero_set": {"kind": "finite", "points": [[x, y] for x in axis for y in axis],
                         "lo": [-16.0, -16.0], "hi": [16.0, 16.0]},
            "covering_radius": np.pi / np.sqrt(2.0), "ball_radius": np.pi / 4,
            "expansion": np.cos(np.pi / 4)})
        cfg = write_config(tmp_path / "c.json", {
            "potential": {"family": "trig-sum", "terms": [
                {"amplitude": 1.0, "frequency": [1.0, 0.0], "phase": 0.0},
                {"amplitude": 1.0, "frequency": [0.0, 1.0], "phase": 0.0}]},
            "certificate": {"path": cert},
            "solve": {"lam": 0.5, "rho": [0.61, 0.47], "half_width": 8, "tol": 1e-10}})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert "coupling too weak" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("tol", float("inf")), ("tol", float("nan")), ("lam", float("nan")),
        ("lam", float("inf")), ("lam", -float("inf")), ("rho", float("nan")),
        ("rho", float("inf")), ("inner_tol", float("nan")),
        ("inner_tol", -float("inf")),
    ])
    def test_non_finite_input_exits_1(self, key, value, tmp_path, capsys):
        cfg = solve_config(tmp_path, **{key: value})
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{key} must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [0.0, -1e300])
    def test_non_positive_inner_tol_exits_1(self, value, tmp_path, capsys):
        cfg = solve_config(tmp_path, inner_tol=value)
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        assert "inner_tol must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_exits_1(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"potential": {"family": "cosine"},
             "solve": {"lam": 20.0, "rho": 1.0, "half_width": 8, "bogus": 1}},
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_missing_config_file_exits_1(self, tmp_path):
        assert main(
            ["solve", "--config", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "o")]
        ) == 1

    def test_malformed_json_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(
            ["solve", "--config", str(bad), "--out", str(tmp_path / "o")]
        ) == 1

    def test_bad_certificate_path_exits_1(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "potential": {"family": "cosine"},
                "certificate": {"path": str(tmp_path / "missing.json")},
                "solve": {"lam": 20.0, "rho": 1.0, "half_width": 8},
            },
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_usage_error_exits_1(self):
        assert main(["solve"]) == 1
        assert main(["frobnicate", "--config", "x", "--out", "y"]) == 1


class TestHyperbolicity:
    def test_in_process_solve_passes(self, tmp_path):
        cfg = solve_config(tmp_path)
        out = tmp_path / "out"
        assert main(["hyperbolicity", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "hyperbolicity.json").read_text())
        assert payload["all_pass"] is True
        assert payload["orbit_pass"] is True
        assert payload["source"] == "solve"
        assert payload["cone"]["mu"] == pytest.approx(5 + 2 * np.sqrt(6))
        assert payload["legendre_sigma_bounds"] == [
            pytest.approx(np.sqrt(5.0)), pytest.approx(np.sqrt(5.0))
        ]
        lines = (out / "orbit.csv").read_text().strip().split("\n")
        assert lines[0] == "site,u_0,p_0"

    def test_anchor_configuration_fails_orbit(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "potential": {"family": "cosine"},
                "hyperbolicity": {
                    "use_anchor_configuration": True,
                    "lam": 20.0,
                    "rho": 1.0,
                    "half_width": 12,
                },
            },
        )
        out = tmp_path / "out"
        # anchors pass the cone check at lam = 20 but are not an orbit
        assert main(["hyperbolicity", "--config", cfg, "--out", str(out)]) == 5
        payload = json.loads((out / "hyperbolicity.json").read_text())
        assert payload["orbit_pass"] is False
        assert payload["source"] == "anchor-configuration"

    def test_solution_path_roundtrip(self, tmp_path):
        cfg = solve_config(tmp_path)
        solve_out = tmp_path / "sol"
        assert main(["solve", "--config", cfg, "--out", str(solve_out)]) == 0
        hyp_cfg = write_config(
            tmp_path / "h.json",
            {
                "potential": {"family": "cosine"},
                "hyperbolicity": {
                    "solution": str(solve_out / "solution.csv"),
                    "report": str(solve_out / "report.json"),
                },
            },
        )
        out = tmp_path / "hyp"
        assert main(["hyperbolicity", "--config", hyp_cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "hyperbolicity.json").read_text())
        assert payload["source"] == "solution"
        assert payload["all_pass"] is True

    def test_report_sets_the_orbit_tolerance(self, tmp_path):
        # a solve at tol 1e-2 stops at a residual near 1e-4; read back
        # through its report, its orbit check scales with that tol (it
        # failed against the 1e-10 default), unless the solve block sets one
        solved = tmp_path / "sol"
        assert main(["solve", "--config", write_config(tmp_path / "s.json", {
            "potential": {"family": "cosine"},
            "solve": {"lam": 40.0, "rho": 0.618, "half_width": 64, "tol": 1e-2}}),
            "--out", str(solved)]) == 0
        hyp = {"solution": str(solved / "solution.csv"),
               "report": str(solved / "report.json")}
        for solve, tol, code in (({}, 1e-2, 0), ({"tol": 1e-10}, 1e-10, 5)):
            cfg = write_config(tmp_path / "h.json", {
                "potential": {"family": "cosine"}, "hyperbolicity": hyp, "solve": solve})
            out = tmp_path / f"hyp{code}"
            assert main(["hyperbolicity", "--config", cfg, "--out", str(out)]) == code
            payload = json.loads((out / "hyperbolicity.json").read_text())
            assert payload["all_pass"] is True and payload["orbit_pass"] is (code == 0)
            assert payload["orbit_tol"] == 10.0 * tol * (1.0 + 40.0)
            assert 1e-5 < payload["orbit_deviation"] < 1e-3

    def test_d2_run_calls_no_lapack(self, tmp_path, monkeypatch):
        # a run shaped as the d = 2 hyperbolicity benchmark (cos x + cos y,
        # a finite pi Z^2 certificate file, perturbed-quadratic coupling,
        # the splitting): every block is 2 x 2 and takes a closed form, so
        # numpy.linalg's inv, svd, qr, solve and det are never called
        n = 24
        c = 0.65 * (n + 1)
        axis = [j * np.pi for j in range(-int(np.ceil(c / np.pi)) - 1, int(np.ceil(c / np.pi)) + 2)]
        cert = write_config(tmp_path / "cert.json", {
            "zero_set": {"kind": "finite", "points": [[x, y] for x in axis for y in axis],
                         "lo": [-c, -c], "hi": [c, c]},
            "covering_radius": np.pi / np.sqrt(2.0), "ball_radius": np.pi / 4,
            "expansion": np.cos(np.pi / 4)})
        cfg = write_config(tmp_path / "c.json", {
            "potential": {"family": "trig-sum", "terms": [
                {"amplitude": 1.0, "frequency": [1.0, 0.0], "phase": 0.0},
                {"amplitude": 1.0, "frequency": [0.0, 1.0], "phase": 0.0}]},
            "interaction": {"kind": "nearest-neighbor", "coupling": {
                "name": "perturbed-quadratic", "amplitude": 0.1}},
            "certificate": {"path": cert},
            "solve": {"lam": 40.0, "rho": [0.61, 0.47], "half_width": n, "tol": 1e-10},
            "hyperbolicity": {"horizon": 8, "splitting": True}})
        calls = []
        for name in ("inv", "svd", "qr", "solve", "det"):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **k: calls.append(
                (name, np.shape(a[0]))))
        out = tmp_path / "out"
        assert main(["hyperbolicity", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "hyperbolicity.json").read_text())
        assert payload["all_pass"] is True and len(payload["splitting"]["sites"]) == 2 * n - 15
        assert calls == []

    def test_negative_horizon_exits_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "potential": {"family": "cosine"},
                "solve": {"lam": 20.0, "rho": 1.0, "half_width": 8},
                "hyperbolicity": {"horizon": -1},
            },
        )
        out = tmp_path / "out"
        assert main(["hyperbolicity", "--config", cfg, "--out", str(out)]) == 1
        assert "horizon must be >= 0" in capsys.readouterr().err
        assert not (out / "hyperbolicity.json").exists()


class TestSweep:
    def sweep_config(self, tmp_path, **kw):
        block = {
            "lams": [20.0, 40.0],
            "rhos": [0.5, 1.0],
            "half_width": 8,
            "hyperbolicity": True,
        }
        block.update(kw)
        return write_config(
            tmp_path / "s.json",
            {"potential": {"family": "cosine"}, "sweep": block},
        )

    def test_grid_rows(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0].startswith("lam,rho,status")
        assert len(lines) == 5
        for row in lines[1:]:
            fields = dict(zip(lines[0].split(","), row.split(",")))
            assert fields["status"] == "ok"
            assert fields["hyperbolic_pass"] == "true"

    def test_parallel_matches_serial(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(a),
                     "--workers", "1"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b),
                     "--workers", "2"]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("workers, pool", [("1", []), ("2", [2]), ("3", [2]),
                                               ("64", [4])])
    def test_pool_capped_at_batches(self, workers, pool, tmp_path, monkeypatch):
        import concurrent.futures

        seen = []

        class Recorder:  # records the pool size and maps in this process
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        cfg = self.sweep_config(tmp_path)
        serial, out = tmp_path / "serial", tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
        # 4 cases: batches of 2 for 2 or 3 workers, of 1 for 64
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 0
        assert seen == pool
        assert (out / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-1", "two"])
    def test_bad_worker_count_exits_1(self, workers, tmp_path, capsys, monkeypatch):
        from antifk import cli

        def never(payload):
            raise AssertionError("a case was solved")

        monkeypatch.setattr(cli, "_sweep_batch", never)
        out = tmp_path / "o"
        assert main(["sweep", "--config", self.sweep_config(tmp_path), "--out",
                     str(out), "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["lams", "rhos"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_grid_entry_exits_1(self, key, value, tmp_path, capsys,
                                           monkeypatch):
        from antifk import cli

        def never(payload):
            raise AssertionError("a case was solved")

        monkeypatch.setattr(cli, "_sweep_batch", never)
        cfg = self.sweep_config(tmp_path, **{key: [0.5, value]})
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_case_list_with_failures(self, tmp_path):
        cfg = self.sweep_config(
            tmp_path, lams=None, rhos=None,
            cases=[[20.0, 1.0], [0.5, 1.0]],
        )
        # None entries must be dropped before writing
        payload = json.loads((tmp_path / "s.json").read_text())
        payload["sweep"] = {
            "cases": [[20.0, 1.0], [0.5, 1.0]],
            "half_width": 8,
        }
        cfg = write_config(tmp_path / "s.json", payload)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        statuses = [row.split(",")[2] for row in lines[1:]]
        assert statuses == ["domain-error", "ok"]

    def test_grid_and_cases_conflict(self, tmp_path):
        cfg = write_config(
            tmp_path / "s.json",
            {
                "potential": {"family": "cosine"},
                "sweep": {"cases": [[20.0, 1.0]], "lams": [20.0], "rhos": [1.0]},
            },
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def _sweep_rows_alone(cfg_path):
    """sweep.csv as solve_equilibrium and the one-chain hyperbolicity
    checks (verify_cone_conditions, momentum, verify_orbit) give it, one
    case at a time."""
    from antifk.cli import (_SWEEP_COLUMNS, _build_certificate,
                            _build_interaction, _build_potential)
    from antifk.errors import (CertificateError, ConvergenceError,
                               DomainError)
    from antifk.hyperbolicity import momentum, verify_cone_conditions, verify_orbit
    from antifk.solver import SolveParams, solve_equilibrium

    cfg = json.loads(open(cfg_path).read())
    block = cfg["sweep"]
    V, interaction = _build_potential(cfg), _build_interaction(cfg)
    cert = _build_certificate(cfg, V)
    tol = block.get("tol", 1e-10)
    lines = [",".join(_SWEEP_COLUMNS)]
    for lam, rho in sorted((lam, rho) for lam in block["lams"] for rho in block["rhos"]):
        row = dict.fromkeys(_SWEEP_COLUMNS, "")
        row.update(lam=float(lam), rho=float(rho), status="ok")
        try:
            u, rep = solve_equilibrium(
                SolveParams(lam=lam, rho=rho, window=block["half_width"], tol=tol,
                            max_iter=block.get("max_iter", 200)),
                interaction, V, cert)
        except DomainError:
            row["status"] = "domain-error"
        except ConvergenceError:
            row["status"] = "no-convergence"
        except CertificateError:
            row["status"] = "certificate-error"
        else:
            row.update(iterations=rep.iterations,
                       final_residual=repr(rep.final_residual),
                       contraction_factor=repr(rep.contraction_factor),
                       distance_to_anchor=repr(rep.distance_to_anchor),
                       distance_to_rotation=repr(rep.distance_to_rotation),
                       **{key: "" if getattr(rep, key) is None else repr(getattr(rep, key))
                          for key in ("kantorovich_h", "kantorovich_lam")})
            if block.get("hyperbolicity"):
                try:
                    verdict = verify_cone_conditions(u, interaction, V, lam, cert)
                except CertificateError:
                    row["status"] = "certificate-error"
                else:
                    p = momentum(u, interaction, V, lam)
                    orbit_tol = 10.0 * tol * (1.0 + lam * V.hessian_sup_bound())
                    row["hyperbolic_pass"] = str(bool(
                        verdict.all_pass and verify_orbit(u, p, interaction, V, lam)
                        <= orbit_tol)).lower()
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in _SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


_NAN, _INF = float("nan"), float("inf")
# where a block's keys are named -> its tag and family table, or its table;
# the README's key table names a trig-sum term's keys potential.terms[].key
_FAMILIES = {"potential": ("family", _POTENTIALS), "potential.terms[0]": (None, _TERM),
             "interaction": ("kind", _INTERACTIONS),
             "interaction.coupling": ("name", _COUPLINGS),
             "certificate": (None, _CERTIFICATE), "zero_set": ("kind", _ZERO_SETS)}


def _family_keys():
    """(where, the block's tag and family, key, kind) of every key of every
    family table."""
    for where, (tag, table) in _FAMILIES.items():
        families = {name: keys for name, (_, keys) in table.items()} if tag else {None: table}
        for name, keys in families.items():
            for key, kind in keys.items():
                yield where, {tag: name} if tag else {}, key, kind


_FAMILY_BLOCKS = {(where, key): block for where, block, key, _ in _family_keys()}


def _family_payload(where, block):
    """A solve config whose block at where is block, every other block working."""
    payload = {"potential": {"family": "cosine"},
               "solve": {"lam": 20.0, "rho": 1.0, "half_width": 8}}
    cert = cosine_certificate().to_json_dict()
    if where == "potential.terms[0]":
        payload["potential"] = {"family": "trig-sum", "terms": [block]}
    elif where == "interaction.coupling":
        payload["interaction"] = {"kind": "nearest-neighbor", "coupling": block}
    elif where == "certificate":
        payload["certificate"] = {**cert, **block}
    elif where == "zero_set":
        payload["certificate"] = {**cert, "zero_set": block}
    else:
        payload[where] = block
    return payload


# kind -> JSON values not of that kind
_WRONG = {"int": [1.5, True, "1"], "number": ["1", True, None], "bool": [0, "true"],
          "path": [0, True, ["a.csv"]], "object": ["x", [1]],
          "rho": ["1", [0.5, True], [[0.5]]], "numbers": [1.0, [1.0, "2"]],
          "window": [[1.0], [1.0, "2"], 1.0], "pairs": [[[1.0]], [[1.0, True]], [1.0, 2.0]],
          "list": [1.0, "x", {}], "vector": ["1", [0.5, True], [[0.5]]],
          "weights": [[1.0], {"1": True}, {"x": 1.0}, {"1": "2"}]}
_FINITE_ZEROS = {"kind": "finite", "points": [k * np.pi for k in range(-20, 21)],
                 "lo": -20 * np.pi, "hi": 20 * np.pi}


class TestConfigValues:
    """Certificate constants must be finite, and the integer, number and
    boolean fields must be JSON integers, numbers (not booleans or strings)
    and booleans; otherwise a run exits 1 as a config error naming the
    field, before it writes anything."""

    def run(self, tmp_path, capsys, command, payload, name):
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and name in err
        assert not out.exists()

    @pytest.mark.parametrize("zero_set, key, value", [
        (None, "covering_radius", _INF), (None, "ball_radius", _NAN),
        (None, "expansion", _INF), (None, "safety", _NAN), (None, "zero_tol", _INF),
        ("periodic", "period", _NAN), ("periodic", "base_points", [0.0, _NAN]),
        ("finite", "points", [0.0, _NAN]), ("finite", "lo", -_INF),
        ("finite", "hi", _INF),
    ])
    @pytest.mark.parametrize("as_file", [False, True])
    def test_non_finite_certificate_exits_1(self, zero_set, key, value, as_file,
                                            tmp_path, capsys):
        from antifk import cosine_certificate

        block = cosine_certificate().to_json_dict()
        if zero_set == "finite":
            block["zero_set"] = dict(_FINITE_ZEROS)
        (block if zero_set is None else block["zero_set"])[key] = value
        if as_file:
            block = {"path": write_config(tmp_path / "cert.json", block)}
        payload = {"potential": {"family": "cosine"}, "certificate": block,
                   "solve": {"lam": 20.0, "rho": 1.0, "half_width": 8}}
        self.run(tmp_path, capsys, "solve", payload, f"{key} must be finite")

    @pytest.mark.parametrize("zero_set, key", [
        (None, "bogus"), ("periodic", "extra"), ("finite", "extra")])
    @pytest.mark.parametrize("as_file", [False, True])
    def test_unknown_certificate_key_exits_1(self, zero_set, key, as_file,
                                             tmp_path, capsys):
        from antifk import cosine_certificate

        block = cosine_certificate().to_json_dict()
        if zero_set == "finite":
            block["zero_set"] = dict(_FINITE_ZEROS)
        (block if zero_set is None else block["zero_set"])[key] = 1 if zero_set is None else 2
        if as_file:
            block = {"path": write_config(tmp_path / "cert.json", block)}
        payload = {"potential": {"family": "cosine"}, "certificate": block,
                   "solve": {"lam": 20.0, "rho": 1.0, "half_width": 8}}
        where = "certificate" if zero_set is None else "zero_set"
        self.run(tmp_path, capsys, "solve", payload, f"unknown keys in {where}: {key}")

    def test_finite_zero_set_block_solves(self, tmp_path):
        # the block the finite cases above corrupt is a working certificate
        from antifk import cosine_certificate

        block = {**cosine_certificate().to_json_dict(), "zero_set": _FINITE_ZEROS}
        cfg = write_config(tmp_path / "c.json", {
            "potential": {"family": "cosine"}, "certificate": block,
            "solve": {"lam": 20.0, "rho": 1.0, "half_width": 8}})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("key, value", [
        ("half_width", 16.9), ("half_width", "16"), ("half_width", True),
        ("max_iter", 50.9),
    ])
    def test_solve_integer_fields(self, key, value, tmp_path, capsys):
        solve = {"lam": 20.0, "rho": 1.0, "half_width": 16, key: value}
        for command in ("solve", "hyperbolicity"):
            self.run(tmp_path, capsys, command,
                     {"potential": {"family": "cosine"}, "solve": solve},
                     f"solve.{key} must be an integer")

    @pytest.mark.parametrize("key, value", [
        ("lam", True), ("rho", True), ("rho", "0.618"), ("rho", [0.5, False]),
        ("rho", [[0.5]]), ("tol", "1e-10"), ("tol", None), ("inner_tol", False),
    ])
    def test_solve_number_fields(self, key, value, tmp_path, capsys):
        solve = {"lam": 20.0, "rho": 1.0, "half_width": 16, key: value}
        for command in ("solve", "hyperbolicity"):
            self.run(tmp_path, capsys, command,
                     {"potential": {"family": "cosine"}, "solve": solve},
                     f"solve.{key} must be a number")

    @pytest.mark.parametrize("key, value", [
        ("zero_tol", True), ("search_window", [False, True]),
        ("search_window", [-10.0, "10"]), ("grid_points", True),
        ("grid_points", 4001.0), ("safety", "2"), ("degeneracy_fraction", None),
        ("expansion_fraction", [0.7]),
    ])
    def test_certification_typed_fields(self, key, value, tmp_path, capsys):
        kind = "an integer" if key == "grid_points" else "a number"
        self.run(tmp_path, capsys, "certify",
                 {"potential": {"family": "cosine"},
                  "certification": {"search_window": [-10.0, 10.0], key: value}},
                 f"certification.{key} must be {kind}")

    @pytest.mark.parametrize("key, value", [
        ("grid_points", 1), ("grid_points", 0), ("grid_points", -3),
        ("search_window", [5.0, 5.0]), ("search_window", [20.0, -20.0]),
    ])
    def test_certification_ranges(self, key, value, tmp_path, capsys):
        # estimate_aubry rejects them by name; the CLI names the field
        self.run(tmp_path, capsys, "certify",
                 {"potential": {"family": "cosine"},
                  "certification": {"search_window": [-10.0, 10.0], key: value}},
                 f"certification.{key} must")

    @pytest.mark.parametrize("key, value", [("half_width", 8.7), ("max_iter", 50.9),
                                            ("half_width", "8"), ("max_iter", False)])
    def test_sweep_integer_fields(self, key, value, tmp_path, capsys):
        sweep = {"lams": [20.0], "rhos": [0.5], "half_width": 8, key: value}
        self.run(tmp_path, capsys, "sweep",
                 {"potential": {"family": "cosine"}, "sweep": sweep},
                 f"sweep.{key} must be an integer")

    @pytest.mark.parametrize("key, value", [("half_width", 3.9), ("horizon", 3.9),
                                            ("horizon", True), ("half_width", "4")])
    def test_hyperbolicity_integer_fields(self, key, value, tmp_path, capsys):
        hyp = {"use_anchor_configuration": True, "lam": 20.0, "rho": 1.0,
               "half_width": 4, key: value}
        self.run(tmp_path, capsys, "hyperbolicity",
                 {"potential": {"family": "cosine"}, "hyperbolicity": hyp},
                 f"hyperbolicity.{key} must be an integer")

    @pytest.mark.parametrize("key, value", [
        ("hyperbolicity", "false"), ("hyperbolicity", 0), ("hyperbolicity", None),
        ("tol", True), ("tol", "1e-10"), ("lams", [20.0, "40"]), ("rhos", [False]),
        ("cases", [[20.0, "0.5"]]),
    ])
    def test_sweep_typed_fields(self, key, value, tmp_path, capsys):
        sweep = {"lams": [20.0], "rhos": [0.5], "half_width": 8, key: value}
        if key == "cases":
            del sweep["lams"], sweep["rhos"]
        name = {"hyperbolicity": "sweep.hyperbolicity must be true or false",
                "tol": "sweep.tol must be a number"}.get(key, f"sweep.{key}")
        self.run(tmp_path, capsys, "sweep",
                 {"potential": {"family": "cosine"}, "sweep": sweep}, name)

    @pytest.mark.parametrize("key, value, name", [
        ("lam", True, "hyperbolicity.lam must be a number"),
        ("lam", "20", "hyperbolicity.lam must be a number"),
        ("splitting", "no", "hyperbolicity.splitting must be true or false"),
        ("use_anchor_configuration", 1,
         "hyperbolicity.use_anchor_configuration must be true or false"),
        ("orbit_tol", "0.5", "hyperbolicity.orbit_tol must be a number"),
        ("orbit_tol", True, "hyperbolicity.orbit_tol must be a number"),
    ])
    def test_hyperbolicity_typed_fields(self, key, value, name, tmp_path, capsys):
        hyp = {"use_anchor_configuration": True, "lam": 20.0, "rho": 1.0,
               "half_width": 4, key: value}
        self.run(tmp_path, capsys, "hyperbolicity",
                 {"potential": {"family": "cosine"}, "hyperbolicity": hyp}, name)

    @pytest.mark.parametrize("value", [True, "x"])
    @pytest.mark.parametrize("source", ["anchors", "solution"])
    def test_hyperbolicity_reads_solve_tol(self, source, value, tmp_path, capsys):
        # tol sets the default orbit_tol on every path, not only the solve's
        hyp = {"use_anchor_configuration": True, "lam": 20.0, "rho": 1.0,
               "half_width": 4}
        if source == "solution":
            solved = tmp_path / "sol"
            assert main(["solve", "--config", solve_config(tmp_path),
                         "--out", str(solved)]) == 0
            hyp = {"solution": str(solved / "solution.csv"), "lam": 20.0, "rho": 1.0}
        self.run(tmp_path, capsys, "hyperbolicity",
                 {"potential": {"family": "cosine"}, "hyperbolicity": hyp,
                  "solve": {"tol": value}}, "solve.tol must be a number")

    def test_solution_lam_must_be_a_number(self, tmp_path, capsys):
        hyp = {"solution": str(tmp_path / "missing.csv"), "lam": True, "rho": 1.0}
        self.run(tmp_path, capsys, "hyperbolicity",
                 {"potential": {"family": "cosine"}, "hyperbolicity": hyp},
                 "hyperbolicity.lam must be a number")

    @pytest.mark.parametrize("value", [True, 1.0, "1"])
    def test_seed_must_be_an_integer(self, value, tmp_path, capsys):
        self.run(tmp_path, capsys, "solve",
                 {"seed": value, "potential": {"family": "cosine"},
                  "solve": {"lam": 20.0, "rho": 1.0, "half_width": 8}},
                 "seed must be an integer")

    @pytest.mark.parametrize("where, key, kind, value", [
        (where, key, kind, value) for where, keys in _CONFIG.items()
        for key, kind in keys.items() for value in _WRONG[kind]] + [
        (where, key, kind, value) for where, _, key, kind in _family_keys()
        for value in _WRONG[kind]])
    def test_every_key_checks_its_kind(self, where, key, kind, value, tmp_path, capsys):
        # whatever the command, a config block present is checked when the
        # config loads, and a family's block when it is read
        payload = {"potential": {"family": "cosine"},
                   "solve": {"lam": 20.0, "rho": 1.0, "half_width": 8}}
        if (where, key) in _FAMILY_BLOCKS:
            payload = _family_payload(where, {**_FAMILY_BLOCKS[where, key], key: value})
        elif where == "config":
            payload[key] = value
        else:
            payload[where] = {**payload.get(where, {}), key: value}
        name = key if where == "config" else f"{where}.{key}"
        self.run(tmp_path, capsys, "solve", payload,
                 f"{name} must be {_KINDS[kind][1]}, got {json.dumps(value)}")

    @pytest.mark.parametrize("block, name", [
        # a path that is not a string would be opened as a file descriptor
        # (0 is stdin) or fail deep in the run
        ({"certificate": {"path": 0}}, "certificate.path must be a string"),
        ({"certificate": {"path": True}}, "certificate.path must be a string"),
        ({"certificate": {"path": ["c.json"]}}, "certificate.path must be a string"),
        ({"hyperbolicity": {"solution": 0, "lam": 20.0, "rho": 1.0}},
         "hyperbolicity.solution must be a string"),
        ({"hyperbolicity": {"solution": "s.csv", "report": True}},
         "hyperbolicity.report must be a string"),
        # a misspelt or ignored key must not leave the run on a default
        ({"interaction": {"kind": "long-range", "cuttoff": 4}},
         "unknown keys in interaction: cuttoff"),
        ({"interaction": {"kind": "long-range", "weights": {"1": 1.0}, "cutoff": 4}},
         "unknown keys in interaction: cutoff"),
        ({"interaction": {"kind": "nearest-neighbor",
                          "coupling": {"name": "quadratic", "scal": 2.0}}},
         "unknown keys in interaction.coupling: scal"),
        ({"interaction": {"kind": "nearest-neighbor", "coupling": "quadratic"}},
         "interaction.coupling must be a JSON object"),
        ({"potential": {"family": "almost-periodic-truncated", "term_cont": 4}},
         "unknown keys in potential: term_cont"),
        ({"potential": {"family": "cosine", "phase": 1.0}},
         "unknown keys in potential: phase"),
        ({"potential": "cosine"}, "potential must be a JSON object"),
        ({"hyperbolicity": {"use_anchor_configuration": True, "rho": True}},
         "hyperbolicity.rho must be a number"),
        # a value read from the solve block is named there
        ({"hyperbolicity": {"use_anchor_configuration": True},
          "solve": {"lam": True, "rho": 1.0, "half_width": 4}}, "solve.lam must be a number"),
        ({"seed": -3}, "seed must be at least 0, got -3"),
    ])
    def test_rejected_blocks(self, block, name, tmp_path, capsys):
        payload = {"potential": {"family": "cosine"},
                   "solve": {"lam": 20.0, "rho": 1.0, "half_width": 8}, **block}
        self.run(tmp_path, capsys, "hyperbolicity", payload, name)

    @pytest.mark.parametrize("block, message", [
        ({"potential": {"family": "almost-periodic-truncated", "term_count": 8.7}},
         "potential.term_count must be an integer, got 8.7"),
        ({"interaction": {"kind": "nearest-neighbor", "coupling": "quadratic"}},
         'interaction.coupling must be a JSON object, got "quadratic"'),
        ({"certificate": {**cosine_certificate().to_json_dict(), "ball_radius": True}},
         "certificate.ball_radius must be a number, got true"),
        ({"potential": {"family": "delone-bump", "points": [0.0, 2.0], "width": 0.0}},
         "bad potential block: width must be positive"),
        ({"interaction": {"kind": "long-range", "weight_base": 2.0}},
         "bad interaction block: weight_base must lie in (0, 1)"),
        ({"certificate": {**cosine_certificate().to_json_dict(), "ball_radius": -1.0}},
         "bad certificate block: certificate radii and expansion must be positive"),
    ])
    def test_one_error_prefix(self, block, message, tmp_path, capsys):
        # a key's error reads as the reader wrote it; only a constructor's
        # own range check gets the name of the block it came from
        cfg = write_config(tmp_path / "c.json", {
            "potential": {"family": "cosine"},
            "solve": {"lam": 20.0, "rho": 1.0, "half_width": 8}, **block})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_solve_defaults_reach_every_command(self, tmp_path, capsys, monkeypatch):
        # SolveParams' signature is the one place tol and max_iter default:
        # a changed default reaches a sweep's solves and the orbit
        # tolerance of a hyperbolicity run that sets no tol
        from antifk import cli

        made = []

        @dataclasses.dataclass
        class Changed(SolveParams):
            tol: float = 1e-8
            max_iter: int = 7

            def __post_init__(self):
                super().__post_init__()
                made.append((self.tol, self.max_iter))

        monkeypatch.setattr(cli, "SolveParams", Changed)
        cfg = write_config(tmp_path / "s.json", {
            "potential": {"family": "cosine"},
            "sweep": {"lams": [20.0, 40.0], "rhos": [0.5], "half_width": 8,
                      "hyperbolicity": True}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        assert made == [(1e-8, 7)] * 2
        assert main(["solve", "--config", solve_config(tmp_path),
                     "--out", str(tmp_path / "sol")]) == 0
        for name, hyp in (("anchor", {"use_anchor_configuration": True, "half_width": 8}),
                          ("file", {"solution": str(tmp_path / "sol" / "solution.csv")})):
            cfg = write_config(tmp_path / "h.json", {
                "potential": {"family": "cosine"},
                "hyperbolicity": {**hyp, "lam": 20.0, "rho": 1.0}})
            out = tmp_path / name
            assert main(["hyperbolicity", "--config", cfg, "--out", str(out)]) in (0, 5)
            payload = json.loads((out / "hyperbolicity.json").read_text())
            assert payload["orbit_tol"] == 10.0 * 1e-8 * (1.0 + 20.0)

    @pytest.mark.parametrize("lam", ["40", True])
    def test_report_params_are_checked(self, lam, tmp_path, capsys):
        # a report's params are a solve block: no float() of a string, no true as 1
        report = write_config(tmp_path / "report.json", {"params": {
            "lam": lam, "rho": [1.0], "half_width": 8, "tol": 1e-10, "max_iter": 200,
            "inner_tol": 1e-13}})
        hyp = {"solution": str(tmp_path / "missing.csv"), "report": report}
        self.run(tmp_path, capsys, "hyperbolicity",
                 {"potential": {"family": "cosine"}, "hyperbolicity": hyp},
                 "report.params.lam must be a number")

    @pytest.mark.parametrize("text", ["", "site,u_0\n", "site,u_0\n0,a\n", "site\n0,1.0\n1\n"])
    def test_unreadable_solution(self, text, tmp_path, capsys):
        # empty, header only, a cell that is not a number, a short row
        solution = tmp_path / "s.csv"
        solution.write_text(text)
        hyp = {"solution": str(solution), "lam": 20.0, "rho": 1.0}
        self.run(tmp_path, capsys, "hyperbolicity",
                 {"potential": {"family": "cosine"}, "hyperbolicity": hyp},
                 f"cannot read solution {solution}: ")

    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        # no command reads a seed, so there is no --seed flag to set one
        out = tmp_path / "o"
        assert main(["solve", "--config", solve_config(tmp_path), "--out", str(out),
                     "--seed", "-3"]) == 1
        assert "unrecognized arguments: --seed -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block, name", [
        ({"potential": {"family": "almost-periodic-truncated", "term_count": 8.7}},
         "potential.term_count must be an integer, got 8.7"),
        ({"potential": {"family": "almost-periodic-truncated", "term_count": "8"}},
         'potential.term_count must be an integer, got "8"'),
        ({"potential": {"family": "delone-bump", "points": [0.0, 2.0], "width": "1"}},
         'potential.width must be a number, got "1"'),
        ({"interaction": {"kind": "nearest-neighbor",
                          "coupling": {"name": "quadratic", "scale": True}}},
         "interaction.coupling.scale must be a number, got true"),
        ({"interaction": {"kind": "long-range", "cutoff": "4"}},
         'interaction.cutoff must be an integer, got "4"'),
        ({"interaction": {"kind": "long-range", "cutoff": 4.7}},
         "interaction.cutoff must be an integer, got 4.7"),
    ])
    def test_family_fields_are_typed(self, block, name, tmp_path, capsys):
        # a key's kind is the one in its family's table
        payload = {"potential": {"family": "cosine"},
                   "solve": {"lam": 20.0, "rho": 1.0, "half_width": 8}, **block}
        self.run(tmp_path, capsys, "solve", payload, name)

    def test_family_fields_take_what_they_write(self, tmp_path):
        # an integer passes as a number
        cfg = write_config(tmp_path / "c.json", {
            "potential": {"family": "almost-periodic-truncated", "term_count": 3,
                          "amplitude_ratio": 0.5, "frequency_ratio": 1},
            "interaction": {"kind": "nearest-neighbor",
                            "coupling": {"name": "quadratic", "scale": 1}},
            "certification": {"search_window": [-40.0, 40.0]},
            "solve": {"lam": 40.0, "rho": 0.3, "half_width": 8}})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("where, block, name", [
        ("certificate", {"covering_radius": "1.5707963267948970"},
         'certificate.covering_radius must be a number, got "1.5707963267948970"'),
        ("certificate", {"ball_radius": True}, "certificate.ball_radius must be a number"),
        ("potential.terms[0]", {"amplitude": True, "frequency": [1.0], "phase": 0.0},
         "potential.terms[0].amplitude must be a number, got true"),
        ("potential.terms[0]", {"amplitude": "1.0", "frequency": [1.0], "phase": 0.0},
         'potential.terms[0].amplitude must be a number, got "1.0"'),
        ("potential.terms[0]", {"amplitude": 1.0, "frequency": [1.0], "phase": 0.0,
                                "bogus": 3}, "unknown keys in potential.terms[0]: bogus"),
        ("potential.terms[0]", {"amplitude": 1.0, "frequency": [1.0]},
         "missing required key 'phase' in potential.terms[0]"),
        ("potential", {"family": "almost-periodic-truncated", "term_count": 8.7, "bogus": 1},
         "unknown keys in potential: bogus"),
        ("potential", {"family": "almost-periodic-truncated", "term_count": 8.7},
         "potential.term_count must be an integer, got 8.7"),
        ("potential", {"family": "almost-periodic-truncated", "term_count": 0},
         "term_count must be at least 1, got 0"),
        ("potential", {"family": "delone-bump", "width": 0.5},
         "missing required key 'points' in potential"),
        ("interaction.coupling", {"name": "quadratic", "scale": True, "extra": 5},
         "unknown keys in interaction.coupling: extra"),
        ("interaction.coupling", {"name": "quadratic", "scale": True},
         "interaction.coupling.scale must be a number, got true"),
        ("interaction", {"kind": "long-range", "weights": {"1": True, "-1": "2"}, "cutoff": 4},
         "interaction.weights must be a JSON object of numbers"),
        ("interaction", {"kind": "long-range", "weights": {"1": 1.0}, "weight_base": 0.5},
         "unknown keys in interaction: weight_base"),
        ("zero_set", {"kind": "finite", "points": [0.0, 3.0], "lo": "-1", "hi": 4.0},
         'zero_set.lo must be a number or a list of numbers, got "-1"'),
    ])
    def test_blocks_name_their_key(self, where, block, name, tmp_path, capsys):
        # the library's reader raises a ValueError naming the key, and the
        # CLI exits 1 with it
        readers = {"certificate": AubryCertificate.from_json_dict,
                   "potential.terms[0]": potential_from_dict, "potential": potential_from_dict,
                   "interaction.coupling": coupling_from_dict,
                   "interaction": interaction_from_dict, "zero_set": sampler_from_dict}
        payload = _family_payload(where, block)
        whole = where in ("certificate", "potential.terms[0]")  # block is inside its reader's
        with pytest.raises(ValueError, match=re.escape(name)):
            readers[where](payload[where.split(".")[0]] if whole else block)
        self.run(tmp_path, capsys, "solve", payload, name)

    def test_readme_lists_the_table(self):
        # the README's config reference: one row per key, its kind as in
        # _CONFIG, then as in each family table
        readme = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        start = readme.index("| Key | Kind | Default |") + 2
        rows = [tuple(c.strip(" `") for c in line.split("|")[1:3])
                for line in itertools.takewhile(lambda x: x.startswith("|"), readme[start:])]
        prefix = {"potential.terms[0]": "potential.terms[]",
                  "zero_set": "certificate.zero_set"}
        assert rows == [(key if where == "config" else f"{where}.{key}", kind)
                        for where, keys in _CONFIG.items() for key, kind in keys.items()] + [
            (f"{prefix.get(where, where)}.{key}", kind) for where, _, key, kind in _family_keys()]


class TestStackedSweep:
    """sweep solves its cases in stacked batches; every row must equal the
    case solved alone, whatever the batch size and worker count."""

    CONFIGS = {
        # lam = 0.5 is too weak for the certificate
        "cosine": {"potential": {"family": "cosine"},
                   "sweep": {"lams": [0.5, 20.0, 40.0],
                             "rhos": [0.3, 0.618, 1.7], "half_width": 8,
                             "hyperbolicity": True}},
        # the certificate's box is [-59.7, 59.7]: rho = 3 has no anchors
        "almost-periodic": {
            "potential": {"family": "almost-periodic-truncated",
                          "term_count": 8, "amplitude_ratio": 0.5},
            "certification": {"search_window": [-60.0, 60.0]},
            "sweep": {"lams": [5.0, 24.0, 64.0], "rhos": [0.13, 0.41, 3.0],
                      "half_width": 24, "hyperbolicity": True}},
        # no Newton polish; lam = 40 needs 18 steps, beyond max_iter
        "long-range": {
            "interaction": {"kind": "long-range", "power": 2,
                            "weights": {"1": 1.0, "2": 0.25}},
            "sweep": {"lams": [25.0, 40.0, 200.0], "rhos": [0.3, 1.3],
                      "half_width": 16, "max_iter": 15}},
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_rows_match_cases_alone(self, name, tmp_path, monkeypatch):
        from antifk import cli

        cfg = write_config(tmp_path / "s.json", self.CONFIGS[name])
        expect = _sweep_rows_alone(cfg)
        statuses = {line.split(",")[2] for line in expect.splitlines()[1:]}
        assert "ok" in statuses and len(statuses) >= 2
        # 2 cases per batch, the last one short
        monkeypatch.setattr(cli, "_BATCH_ROWS", 2 * (2 * self.CONFIGS[name]
                                                     ["sweep"]["half_width"] + 1))
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["sweep", "--config", cfg, "--out", str(out),
                         "--workers", workers]) == 0
            assert (out / "sweep.csv").read_text() == expect

    def test_batches_cap_rows(self, tmp_path):
        from antifk.cli import _BATCH_ROWS, _load_config, _sweep_payloads

        def sizes(workers, half_width):
            cfg = write_config(tmp_path / "s.json", {
                "potential": {"family": "cosine"},
                "sweep": {"lams": [20.0, 30.0, 40.0, 50.0, 60.0],
                          "rhos": [0.1, 0.2, 0.3, 0.4, 0.5], "half_width": half_width}})
            args = SimpleNamespace(workers=workers)
            return [len(p[3]) for p in _sweep_payloads(_load_config(cfg), args)]

        # 2049 sites a case: the cap holds 7 cases a batch
        assert sizes(1, 1024) == sizes(4, 1024) == [7, 7, 7, 4]
        assert 7 * 2049 <= _BATCH_ROWS < 8 * 2049
        # 513 sites a case: the 25 cases are one batch, unless workers split it
        assert sizes(1, 256) == [25]
        # more workers than full batches: smaller batches, one per worker
        assert sizes(4, 256) == [7, 7, 7, 4]
        assert sizes(5, 256) == [5] * 5 and sizes(8, 256) == [4] * 6 + [1]

    def test_hyperbolicity_failure_marks_its_row(self, tmp_path):
        # an expansion m = 0.99 above the true cos(pi/4) fails the
        # coefficient check |C_i| >= lam m at lam = 20 only
        cert = {"zero_set": {"kind": "periodic", "base_points": [0.0],
                             "period": np.pi},
                "covering_radius": np.pi / 2, "ball_radius": 1.2,
                "expansion": 0.99}
        cfg = write_config(tmp_path / "s.json", {
            "potential": {"family": "cosine"}, "certificate": cert,
            "sweep": {"lams": [20.0, 40.0], "rhos": [0.5, 1.0],
                      "half_width": 8, "hyperbolicity": True}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [r[2] for r in rows] == ["certificate-error"] * 2 + ["ok"] * 2
        for r in rows[:2]:  # the solve columns stay, the verdict is empty
            assert r[3] == "1" and float(r[4]) <= 1e-10 and r[8] == ""
        assert [r[8] for r in rows[2:]] == ["true", "true"]


class TestJsonText:
    """Artifacts are written as json.dumps(obj, indent=2, sort_keys=True)."""

    @pytest.mark.parametrize("obj", [
        [], {}, [[]], [[], []], 1.5, "x, y", None, [1], (1, 2), [(1, 2), (3, 4)],
        [1, [2]], [[1, 2], [3]], [[1, [2, []]], []], [[[1.5]], [[2]]],
        [True, 1.5], [[True], [False]], [None], [[None, 1]], [2**70],
        [[1e300, -1e-300], [float("nan"), float("inf")]], [-0.0, 5e-324],
        ["a, b", "c"], [[1], "x"], [{"b": [1.0, 2.0]}, {}],
        {"b": 1, "a": [[0.1, 0.2, 0.3]] * 3, "c": {"d": [], "e": "f\ng"}},
        {1: 2}, {"k": [[[0.5], [0.25]], [[1.0], [2.0]]]},
    ])
    def test_matches_json_dumps(self, obj):
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_hyperbolicity_payload(self, tmp_path):
        cfg = write_config(tmp_path / "h.json", {
            "potential": {"family": "cosine"},
            "solve": {"lam": 20.0, "rho": 0.3, "half_width": 30, "tol": 1e-10},
            "hyperbolicity": {"horizon": 5},
        })
        out = tmp_path / "out"
        assert main(["hyperbolicity", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "hyperbolicity.json").read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestParser:
    def test_built_on_first_call(self):
        # importing the CLI builds no parser: set-up does not pay for it
        proc = subprocess.run(
            [sys.executable, "-c",
             "import antifk.cli as c; print(c._build_parser.cache_info().currsize)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_reused_parser_matches_fresh_one(self, tmp_path, capsys):
        # solve, a usage error, sweep and --version in one process: each
        # call's exit code and output equal those with a parser built for it
        from antifk import cli

        solve = solve_config(tmp_path)
        sweep = write_config(tmp_path / "sweep.json", {
            "potential": {"family": "cosine"},
            "sweep": {"lams": [20.0], "rhos": [0.5], "half_width": 8}})
        calls = [["solve", "--config", solve, "--out", str(tmp_path / "solve")],
                 ["solve", "--config", solve],
                 ["sweep", "--config", sweep, "--out", str(tmp_path / "sweep")],
                 ["--version"]]

        def run(fresh):
            out = []
            for argv in calls:
                if fresh:
                    cli._build_parser.cache_clear()
                out.append((main(argv), *capsys.readouterr()))
            return out

        reused = run(False)
        parser = cli._build_parser()
        assert run(False) == reused and cli._build_parser() is parser
        assert run(True) == reused
        assert [code for code, *_ in reused] == [0, 1, 0, 0]
        assert "required: --out" in reused[1][2]


class TestModuleEntry:
    def test_version_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "antifk", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "antifk" in proc.stdout

    def test_import_loads_no_unused_modules(self):
        # importing the CLI is part of every run's set-up: the process pool
        # is imported only where --workers > 1 opens it, and nothing pulls
        # in the test or optional packages
        heavy = ["concurrent.futures", "scipy", "mpmath", "hypothesis"]
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, antifk.cli; print([m for m in {heavy} if m in sys.modules])"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_manifest_records_config_hash(self, tmp_path):
        import hashlib

        cfg = solve_config(tmp_path)
        out = tmp_path / "out"
        main(["solve", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        digest = hashlib.sha256(open(cfg, "rb").read()).hexdigest()
        assert manifest["config_sha256"] == digest
        assert manifest["version"]
