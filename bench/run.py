"""Benchmark of the ``antifk`` command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding ``src/antifk``. One run starts one
worker process (``worker.py``) that imports the package from ``src``,
writes the workload's static inputs, and runs a closed loop of ops, one
client, for S seconds; each op is an in-process call to
``antifk.cli.main`` whose artifacts are checked by the benchmark's own
oracle. The first op's inputs are replayed at the end and its artifacts
compared byte for byte. A crash, a non-zero exit, an oracle or
determinism mismatch, or an op that outlives OP_LIMIT_S counts as a
failed op. Further short worker processes repeat only the set-up, so
``setup_s`` is a median.

The last line of standard output is the result: ``{"correct", "attempted",
"failed", "metrics"}`` with the ``end_to_end`` metrics of BENCHMARK.json
(``--trace 0``) or its ``per_layer`` metrics (``--trace 1``):

- ``op_s``: mean time of one op, in reference seconds;
- ``sites_per_s``: window sites of verified ops per reference second of
  op time, cases x sites for a sweep;
- ``peak_rss_mb``: peak resident memory of the worker process, which
  runs the set-up and the ops; the oracle runs in a process of its own;
- ``setup_s``: importing ``antifk`` and writing the static inputs, the
  median of SETUP_RUNS processes.

A shared host's speed drifts by a quarter and more within minutes, for
every program on it alike. So before each op the worker times a fixed
calibration kernel (``worker.calibrate``), and op times are scaled by
CAL_REF_S over the kernel's mean time in the run: a reference second is
CAL_REF_S / c wall seconds of a run whose kernel took c. On a 2-CPU Xeon
host this cut the spread of solve-1d's ``op_s`` over ten seeds (quartile
distance over median) from 0.10-0.26 to 0.04-0.07. Set-up times did not
follow the kernel, so ``setup_s`` is in wall-clock seconds.

The line before it holds the details: in wall-clock seconds, the median
op time under the command's own name (``solve_s``, ``hyperbolicity_s``,
``sweep_s``), the tail (the highest percentile with ten ops beyond it,
with the op count) and ``sites_per_s``; ``failed_ratio``; every op time
and kernel time; the set-up's resident memory; every traced layer, the
tracing overhead, and provenance.

Per-layer times are medians over the traced ops; per-layer counts and
their ratios come from the first traced op, whose inputs depend only on
the seed, so they repeat exactly between runs with one seed. A traced run
follows each traced op with an untraced one on the same inputs; the
tracing overhead is the median difference of these pairs, and
``trace.uncovered_share`` the share of op time outside every span below
``cli.main``. The result line carries the same per-layer metrics on every
workload, so the times of layers that only some workloads reach
(``estimate_aubry``, ``cone_splitting``, the scalar ``local_inverse``)
are in the details, with every other span.

Not measured: solves with ``LongRangeInteraction``, ``sweep --workers``
above 1, and ``estimate_aubry`` in d > 1 (the CLI rejects 2-D search
windows).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
SETUP_RUNS = 5
CAL_REF_S = 0.0025
OP_LIMIT_S = 60.0
SETUP_LIMIT_S = 30.0
RUN_LIMIT_S = 165.0
UNMEASURED = [
    "LongRangeInteraction solves",
    "sweep --workers > 1",
    "estimate_aubry in d > 1 (the CLI rejects 2-D search windows)",
]
COMMANDS = {"solve-1d": "solve", "solve-far": "solve",
            "hyperbolicity-2d": "hyperbolicity", "sweep-ap": "sweep"}


class Worker:
    """A worker process whose JSON-line events are read with a deadline.
    It runs in a session of its own with its oracle process."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, *argv], cwd=ROOT,
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def next_event(self, timeout):
        """The next event, or None when the worker ended or timed out."""
        try:
            line = self.lines.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            return None
        return None if line is None else json.loads(line)

    def stop(self):
        """Kill the worker's session and reap every process of it: the
        oracle process of a killed worker falls to this process, which is
        its subreaper."""
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        with contextlib.suppress(ChildProcessError):
            while True:
                os.waitpid(-1, 0)
        self.reader.join()
        self.proc.stdout.close()
        return self.proc.returncode


def supervise(argv, deadline):
    """Run one worker to its end and return its events. An op in flight
    when the worker dies or overruns its limit becomes a failed op."""
    worker = Worker(argv)
    events, in_flight = [], None
    try:
        while True:
            limit = OP_LIMIT_S if in_flight else SETUP_LIMIT_S
            event = worker.next_event(min(limit, deadline - time.monotonic()))
            if event is None:
                break
            if event["event"] == "start":
                in_flight = (event["index"], time.monotonic(),
                             event.get("cal_s"))
                continue
            in_flight = None
            events.append(event)
            if event["event"] == "done":
                break
    finally:
        code = worker.stop()
    if in_flight:
        index, started, cal_s = in_flight
        events.append({
            "event": "op" if index >= 0 else "replay", "index": index,
            "wall_s": time.monotonic() - started, "cal_s": cal_s,
            "ok": False, "traced": False,
            "sites": 0, "reason": f"timed out or crashed the worker (exit {code})"})
    elif events and events[-1]["event"] not in ("done", "setup"):
        events.append({"event": "crash", "ok": False,
                       "reason": f"worker ended between ops (exit {code})"})
    return events


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples_beyond": 10, "n": n}


def provenance(seed):
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        models = [ln.split(":", 1)[1].strip() for ln in fh
                  if ln.startswith("model name")]
    src = os.path.join(ROOT, "src", "antifk")
    digest, lines = hashlib.sha256(), 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": models[0] if models else None,
            "git_commit": commit, "seed": seed,
            "src_sha256": digest.hexdigest(), "src_antifk_lines": lines}


def layer_figures(traced_ops):
    """Per-layer figures: counts and their ratios from the first traced
    op, times as medians over all of them."""
    out = {}
    for name, value in traced_ops[0]["layers"].items():
        if name == "trace.callers":
            continue
        if isinstance(value, int) or name.endswith("_ratio"):
            out[name] = value
        else:
            out[name] = statistics.median(
                op["layers"][name] for op in traced_ops)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "antifk", "__init__.py")):
        print(f"no antifk sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    # a worker's oracle process orphaned by a kill is reparented here
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    base = ["--root", ROOT, "--workload", args.workload, "--seed", str(args.seed)]
    try:
        events = supervise(
            base + ["--workdir", os.path.join(workdir, "run"),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline)
        setups = [e for e in events if e["event"] == "setup"]
        for k in range(SETUP_RUNS - 1):
            if not setups:
                break
            setups += [e for e in supervise(
                base + ["--workdir", os.path.join(workdir, f"setup-{k}"),
                        "--setup-only"], deadline) if e["event"] == "setup"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    ops = [e for e in events if e["event"] in ("op", "replay", "crash")]
    timed = [e for e in ops if e["event"] == "op" and not e["traced"]]
    if not setups or not timed:
        print("the run failed before its first op ended", file=sys.stderr)
        return 3
    failures = [e["reason"] for e in ops if not e["ok"]]
    attempted = len(ops)
    walls = [e["wall_s"] for e in timed]
    peak_rss_mb = max([setups[0]["setup_rss_mb"]]
                      + [e["rss_mb"] for e in ops if "rss_mb" in e])
    command = COMMANDS[args.workload]

    # means, not medians: the host's speed switches between states for
    # seconds at a time
    cal_s = [e["cal_s"] for e in timed]
    scale = CAL_REF_S / statistics.mean(cal_s)
    sites_per_s = sum(e["sites"] for e in timed) / sum(walls)
    values = {
        "op_s": statistics.mean(walls) * scale,
        "sites_per_s": sites_per_s / scale,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(e["setup_s"] for e in setups),
    }
    named = {f"{command}_s": statistics.median(walls),
             f"{command}_tail_s": tail(walls),
             "sites_per_s": sites_per_s,
             "failed_ratio": len(failures) / attempted,
             "peak_rss_mb": values["peak_rss_mb"],
             "setup_s": values["setup_s"]}
    detail = {
        "workload": args.workload, "command": command, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "named_metrics": named, "op_mean_s": statistics.mean(walls),
        "cal_ref_s": CAL_REF_S, "op_cal_s": cal_s,
        "ops_timed": len(walls), "op_walls_s": walls, "failures": failures[:5],
        "setup_samples_s": [e["setup_s"] for e in setups],
        "import_s": statistics.median(e["import_s"] for e in setups),
        "setup_rss_mb": setups[0]["setup_rss_mb"],
        "provenance": {**provenance(args.seed), **setups[0]["provenance"]},
        "unmeasured": UNMEASURED,
        "wall_s": time.monotonic() - started,
    }
    group = "end_to_end"
    if args.trace:
        traced = [e for e in ops if e.get("traced")]
        if not traced:
            print("no traced op ended", file=sys.stderr)
            return 3
        group = "per_layer"
        values.update(layer_figures(traced))
        overhead = [t["wall_s"] - u["wall_s"] for t, u in zip(traced, timed)]
        self_times = {k[:-len(".self_s")]: v for k, v in values.items()
                      if k.endswith(".self_s")}
        detail.update({
            "layers": {k: v for k, v in values.items() if "." in k},
            "callers": traced[0]["layers"]["trace.callers"],
            "largest_self_s": max(self_times, key=self_times.get),
            "trace_overhead_s": statistics.median(overhead),
            "traced_op_s": statistics.median(t["wall_s"] for t in traced),
        })
    metrics = {}
    for m in spec[group]:
        if values.get(m["name"]) is None:
            print(f"metric {m['name']} was not measured", file=sys.stderr)
            return 4
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
