"""Digest the artifacts of ``antifk`` CLI runs, to compare two trees.

    python3 scripts/artifact_digest.py [--root TREE] [--seeds 1 2 3] [--out FILE]
    python3 scripts/artifact_digest.py --tests [--root TREE] [--out FILE]

The first form runs, for each seed, the first op that a benchmark run
with that seed draws for each of the four workloads of
``bench/workloads.py`` (inputs drawn as ``bench/worker.py`` draws them),
through ``antifk.cli.main`` in process; sweep-ap runs once more with
``--workers 2``. The second form runs the tree's test suite in process
and records every ``cli.main`` call its tests make, keyed by test and
call number. Each run records its exit code and the SHA-256 of every
artifact except ``manifest.json``, whose timestamp changes from run to
run. A run of the first form also records the SHA-256 of its stdout and
of its stderr, with its ``--out`` directory replaced by a fixed
placeholder, since the sweep prints that path.

Both forms import ``antifk`` from TREE/src and the bench modules from
TREE/bench (TREE defaults to this checkout). The JSON that two trees
write is identical exactly when every run's exit code and artifacts are,
so ``cmp`` of two outputs decides whether a change kept every artifact
byte for byte (with ``--tests``, a test that only one tree has shows as
a key that only one output has).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path


def digests(outdir) -> dict:
    """SHA-256 of each file in outdir but manifest.json."""
    if not os.path.isdir(outdir):
        return {}
    return {name: hashlib.sha256(Path(outdir, name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(outdir)) if name != "manifest.json"}


def text_digest(text: str, outdir: str) -> str:
    """SHA-256 of a run's printed text, its --out directory replaced by
    a placeholder that does not depend on the run."""
    return hashlib.sha256(text.replace(outdir, "<out>").encode()).hexdigest()


def bench_runs(root: Path, seeds) -> dict:
    sys.path[:0] = [str(root / "bench")]
    from antifk import cli
    from worker import latin_points
    from workloads import WORKLOADS

    out = {}
    for name, workload in WORKLOADS.items():
        for seed in seeds:
            rng = random.Random(seed)
            params = workload.draw(next(latin_points(rng, workload.dims)))
            op_seed = rng.randrange(2**31)
            flags = [["--workers", "1"], ["--workers", "2"]] if (
                workload.command == "sweep") else [[]]
            for extra in flags:
                with tempfile.TemporaryDirectory() as work:
                    workload.prepare(work)
                    config = os.path.join(work, "config.json")
                    with open(config, "w", encoding="utf-8") as fh:
                        json.dump(workload.config(params, op_seed), fh)
                    outdir = os.path.join(work, "out")
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), \
                            contextlib.redirect_stderr(stderr):
                        code = cli.main([workload.command, "--config", config,
                                         "--out", outdir, *extra])
                    key = " ".join([name, f"seed={seed}", *extra])
                    out[key] = {"exit": code, "artifacts": digests(outdir),
                                "stdout": text_digest(stdout.getvalue(), outdir),
                                "stderr": text_digest(stderr.getvalue(), outdir)}
    return out


def test_runs(root: Path) -> dict:
    import pytest

    from antifk import cli

    out, calls = {}, {}
    main = cli.main

    def recorded(argv=None):
        code = main(argv)
        test = os.environ.get("PYTEST_CURRENT_TEST", "?").rsplit(" ", 1)[0]
        calls[test] = calls.get(test, 0) + 1
        outdir = argv[argv.index("--out") + 1] if argv and "--out" in argv else None
        out[f"{test} #{calls[test]}"] = {
            "command": argv[0] if argv else None, "exit": code,
            "artifacts": {} if outdir is None else digests(outdir)}
        return code

    # tests bind main when their modules import, after this; the tests
    # that start `python -m antifk` find the tree's package on PYTHONPATH
    cli.main = recorded
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main([str(root / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        cli.main = main
    return {"pytest_exit": int(status), "calls": out}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--tests", action="store_true",
                   help="record the test suite's cli.main calls instead")
    p.add_argument("--out", default="-", help="JSON output file (- for stdout)")
    args = p.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src")]
    result = test_runs(root) if args.tests else bench_runs(root, args.seeds)
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
