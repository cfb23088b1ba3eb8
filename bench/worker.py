"""One benchmark run of one workload, in its own process.

Started by ``run.py``, which reads the JSON lines this process writes to
its standard output (one per event) and enforces the time limits. The
loop is closed with one client: each op writes its config, calls
``antifk.cli.main`` in-process, and is checked by the workload's oracle
(in ``checker.py``, a process of its own) before the next op starts.
Only the ``cli.main`` call is timed. Before each op the worker times a
fixed calibration kernel, so ``run.py`` can express op times at a
reference host speed. Every op event carries this process's peak
resident memory so far.

    python3 bench/worker.py --root . --workdir DIR --workload solve-1d \\
        --seed 1 --seconds 20 --trace 0 [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import filecmp
import gc
import importlib.metadata
import io
import json
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import time
import traceback

_PROTOCOL = sys.stdout
CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "checker.py")
STRATA = 4
CAL_REPS = 5


def emit(event, **fields):
    _PROTOCOL.write(json.dumps({"event": event, **fields}) + "\n")
    _PROTOCOL.flush()


def blas_threads():
    """Thread count of the BLAS numpy loaded, read from the library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = set(re.findall(r"(/\S*blas\S*\.so\S*)", fh.read()))
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def latin_points(rng, dims):
    """Points of the unit cube in blocks of STRATA: within a block each
    coordinate takes one value in each STRATA-th of [0, 1), in a seeded
    order. Every op still gets inputs of its own, but the mean input of a
    run, and so its mean op time, varies less between seeds than with
    independent draws."""
    while True:
        columns = []
        for _ in range(dims):
            column = [(j + rng.random()) / STRATA for j in range(STRATA)]
            rng.shuffle(column)
            columns.append(column)
        yield from zip(*columns)


def calibrate():
    """Mean wall time of a fixed kernel of interpreted loops and small
    numpy calls, the mix ``antifk`` runs, over CAL_REPS repetitions."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 8192)
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        s = 0
        for i in range(20000):
            s += i * i
        for k in range(12):
            s += float(np.sin(x * k).sum())
    return (time.perf_counter() - t0) / CAL_REPS


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """The oracle process of one run (``checker.py``)."""

    def __init__(self, workload_name):
        self.proc = subprocess.Popen(
            [sys.executable, CHECKER, workload_name],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline() != "ready\n":
            raise SystemExit("the oracle process did not start")

    def check(self, params, outdir):
        """The failure reason of an op's artifacts, or None."""
        try:
            self.proc.stdin.write(
                json.dumps({"params": params, "outdir": outdir}) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError as exc:
            return f"oracle process unreachable: {exc!r}"
        if not line:
            return f"oracle process ended (exit {self.proc.wait()})"
        return json.loads(line)

    def close(self):
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def package_version(name):
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_op(cli, workload, checker, params, seed, outdir):
    """Run one op into outdir. Returns (wall seconds, failure or None)."""
    config_path = outdir + ".json"
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workload.config(params, seed), fh)
    argv = [workload.command, "--config", config_path, "--out", outdir]
    if workload.command == "sweep":
        argv += ["--workers", "1"]
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crash of the op is a failed op, not of the run
        wall = time.perf_counter() - t0
        return wall, "crashed: " + traceback.format_exc(limit=3)[-400:]
    wall = time.perf_counter() - t0
    if code != 0:
        return wall, f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return wall, checker.check(params, outdir)


def artifacts_differ(first, second):
    """Byte comparison of two output directories, manifest.json aside."""
    names = sorted(set(os.listdir(first)) | set(os.listdir(second)))
    for name in names:
        if name == "manifest.json":
            continue
        a, b = os.path.join(first, name), os.path.join(second, name)
        if not (os.path.isfile(a) and os.path.isfile(b)):
            return f"{name} written by only one of the two runs"
        if not filecmp.cmp(a, b, shallow=False):
            return f"{name} differs between identical runs"
    return None


def artifact_bytes(outdir):
    if not os.path.isdir(outdir):
        return 0
    return sum(os.path.getsize(os.path.join(outdir, n)) for n in os.listdir(outdir))


def discard(outdir):
    shutil.rmtree(outdir, ignore_errors=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(outdir + ".json")


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    # set-up: import the package from the checkout and write static inputs
    t0 = time.perf_counter()
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import antifk
    from antifk import cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(antifk.__file__).startswith(src + os.sep):
        raise SystemExit(f"antifk imported from {antifk.__file__}, not {src}")
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    os.makedirs(args.workdir, exist_ok=True)
    workload.prepare(args.workdir)
    setup_s = time.perf_counter() - t0

    import numpy
    emit("setup", setup_s=setup_s, import_s=import_s,
         setup_rss_mb=peak_rss_mb(),
         provenance={"python": sys.version.split()[0],
                     "numpy": numpy.__version__,
                     "scipy": package_version("scipy"),
                     "blas_threads": blas_threads()})
    if args.setup_only:
        return 0
    checker = Checker(args.workload)
    try:
        return run_loop(args, cli, workload, rng, checker)
    finally:
        checker.close()


def run_loop(args, cli, workload, rng, checker):
    """The closed loop of ops, then the replay of the first op."""
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()

    def one(index, params, seed, traced):
        outdir = os.path.join(args.workdir, f"op-{index}-{int(traced)}")
        # the previous op's garbage is collected here, not in the kernel
        # or the op
        gc.collect()
        cal_s = calibrate()
        emit("start", index=index, cal_s=cal_s)
        if traced:
            tracer.reset()
            patched = tracing.install(tracer)
        try:
            wall, reason = run_op(cli, workload, checker, params, seed, outdir)
        finally:
            if traced:
                tracing.uninstall(patched)
        record = {"index": index, "wall_s": wall, "cal_s": cal_s,
                  "ok": reason is None, "reason": reason, "traced": traced,
                  "sites": workload.sites(params) if reason is None else 0,
                  "rss_mb": peak_rss_mb()}
        if traced:
            layers = tracing.op_metrics(tracer, wall)
            layers["cli.artifact_bytes"] = artifact_bytes(outdir)
            record["layers"] = layers
        emit("op", **record)
        return outdir

    # each op draws its own inputs; a traced run follows every traced op
    # with an untraced one on the same inputs, to measure the overhead
    points = latin_points(rng, workload.dims)
    start = time.perf_counter()
    first = None
    index = 0
    while index == 0 or time.perf_counter() - start < args.seconds:
        params = workload.draw(next(points))
        seed = rng.randrange(2**31)
        outdirs = [one(index, params, seed, traced=bool(args.trace))]
        if args.trace:
            outdirs.append(one(index, params, seed, traced=False))
        if first is None:
            first = (params, seed, outdirs.pop(0))
        for outdir in outdirs:
            discard(outdir)
        index += 1

    # determinism: replay the first op's inputs, compare byte for byte
    params, seed, first_dir = first
    replay_dir = os.path.join(args.workdir, "replay")
    emit("start", index=-1)
    wall, reason = run_op(cli, workload, checker, params, seed, replay_dir)
    if reason is None:
        reason = artifacts_differ(first_dir, replay_dir)
    emit("replay", wall_s=wall, ok=reason is None, reason=reason,
         rss_mb=peak_rss_mb())
    emit("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
