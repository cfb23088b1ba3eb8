"""Time two source trees against each other in one process, in pairs.

    python3 scripts/ab_pairs.py --parent TREE --workload NAME --pairs N \\
        [--seed S] [--out FILE]

The parent tree and this checkout (the change) are timed. Each tree's
``src/antifk`` is copied into a temporary directory under a package name
of its own (``antifk_parent``, ``antifk_change``; the package imports
itself only relatively), and both are imported. Every pair draws one
op's inputs of the workload as ``bench/worker.py`` draws them
(``--seed`` seeds the draw) and times one ``cli.main`` call of each tree
on them, the two in alternating order, after a collection of garbage;
WARMUP untimed calls per tree come first. The ratio of a pair is the
change's wall time over the parent's; it prints the median ratio, its
quartiles and the pairs the change won (ratio below 1), with each side's
median time. Both trees run in the same process on the same host, so the
ratios carry none of the drift between separate runs. The workloads and
the input draw come from this checkout's ``bench`` directory. Nothing is
written inside either tree.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # nothing inside either tree
CHANGE = Path(__file__).resolve().parents[1]
WARMUP = 2


def load(tree: Path, name: str, into: str):
    """The cli module of tree's src/antifk, imported as package name from a
    copy in the directory into."""
    shutil.copytree(tree / "src" / "antifk", Path(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def run(cli, argv) -> float:
    """Wall seconds of cli.main(argv), which must exit 0."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"{cli.__name__}.main exited {code}: {err.getvalue()[-300:]}")
    return wall


def quartiles(xs) -> list:
    return statistics.quantiles(xs, n=4, method="inclusive")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the JSON summary here")
    args = p.parse_args(argv)
    sys.path[:0] = [str(CHANGE / "bench")]
    from worker import latin_points
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    points = latin_points(rng, workload.dims)
    with tempfile.TemporaryDirectory() as work:
        sys.path.insert(0, work)
        clis = {side: load(tree, f"antifk_{side}", work)
                for side, tree in (("parent", args.parent.resolve()), ("change", CHANGE))}
        workload.prepare(work)
        times = {side: [] for side in clis}

        def op(index):
            config = os.path.join(work, f"op-{index}.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(workload.config(workload.draw(next(points)),
                                      rng.randrange(2**31)), fh)
            argv = [workload.command, "--config", config]
            return argv + (["--workers", "1"] if workload.command == "sweep" else [])

        for k in range(WARMUP):
            argv = op(-1 - k)
            for side, cli in clis.items():
                run(cli, argv + ["--out", os.path.join(work, f"warm-{side}-{k}")])
        for k in range(args.pairs):
            argv = op(k)
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                outdir = os.path.join(work, f"out-{side}")
                times[side].append(run(clis[side], argv + ["--out", outdir]))
                shutil.rmtree(outdir)
        sys.path.remove(work)
    ratios = [c / q for c, q in zip(times["change"], times["parent"])]
    summary = {
        "workload": args.workload, "pairs": args.pairs, "seed": args.seed,
        "median_ratio": statistics.median(ratios),
        "ratio_quartiles": quartiles(ratios) if len(ratios) > 1 else ratios * 3,
        "wins": sum(r < 1 for r in ratios),
        "median_s": {side: statistics.median(t) for side, t in times.items()},
    }
    print(f"{args.workload}: change / parent median {summary['median_ratio']:.4f} "
          f"(quartiles {summary['ratio_quartiles'][0]:.4f} .. "
          f"{summary['ratio_quartiles'][2]:.4f}), change won {summary['wins']} "
          f"of {args.pairs}; median s parent {summary['median_s']['parent']:.5f}, "
          f"change {summary['median_s']['change']:.5f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
