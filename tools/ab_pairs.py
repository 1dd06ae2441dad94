"""Run alternating parent/change pairs of one perfbench workload.

Usage (from the repository root):

    python3 tools/ab_pairs.py --against REF --workload W \
        [--change DIR --pairs N --seconds S --seed K]

The parent side is the ``src/`` and ``perfbench/`` of the git commit
``REF``, extracted with ``git archive`` into a temporary directory, as
``tools/replay_digest.py --against`` does.  The change side is the
``src/`` and ``perfbench/`` under ``DIR``, by default this checkout,
copied into a second temporary directory without ``perfbench/results/``,
so neither side writes into ``DIR``.  So a tree kept outside the checkout,
such as a prototype, is paired without touching the checkout, as
``tools/replay_digest.py --src`` replays one.  Each pair runs
``python3 perfbench/run.py --workload W --seed K --seconds S --trace 0``
once on each side, in a process of its own; odd pairs run the parent
first and even pairs the change first, so that a drift in machine speed
falls on both sides alike.

It prints one line per run with its end-to-end metrics, then one line per
metric: each side's median and quartiles, the change/parent ratio of the
medians, the pairs the change won (by the metric's ``better`` direction in
``BENCHMARK.json``; ties count for neither) and whether the parent's
interquartile range is smaller than the gap between the medians.  It
exits 1 if any run is not ``correct``.  Defaults: 10 pairs of
``BENCHMARK.json``'s ``run_seconds`` at seed 401.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
TREES = ("src", "perfbench")


def extract(ref: str, dest: Path) -> None:
    """The ``src/`` and ``perfbench/`` of commit ``ref``, under ``dest``."""
    tree = subprocess.run(["git", "archive", ref, *TREES], cwd=ROOT, capture_output=True)
    if tree.returncode:
        raise SystemExit(f"ab_pairs: cannot extract {ref}: {tree.stderr.decode().strip()}")
    subprocess.run(["tar", "x", "-C", str(dest)], input=tree.stdout, check=True)


def copy_change(change: Path, dest: Path) -> None:
    """The ``src/`` and ``perfbench/`` under ``change``, under ``dest``."""
    skip = shutil.ignore_patterns("results", "__pycache__", ".pytest_cache")
    for name in TREES:
        if not (change / name).is_dir():
            raise SystemExit(f"ab_pairs: no {name}/ under {change}")
        shutil.copytree(change / name, dest / name, ignore=skip)


def bench(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``side``: its result object."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=side, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def summary(name: str, parent: list[float], change: list[float]) -> str:
    """One metric's line: both sides' quartiles, the ratio of the medians,
    the pairs the change won, and whether the gap beats the parent's spread."""
    p1, p2, p3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, c2, c3 = statistics.quantiles(change, n=4, method="inclusive")
    sign = 1 if BETTER[name] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ratio = f"{c2 / p2:.4f}" if p2 else "n/a"
    return (f"{name}: parent {p2:.6g} [{p1:.6g}, {p3:.6g}]  change {c2:.6g} [{c1:.6g}, "
            f"{c3:.6g}]  change/parent {ratio}  change better in {wins}/{len(parent)} pairs  "
            f"|median gap| > parent IQR: {abs(c2 - p2) > p3 - p1}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REF",
                        help="git commit of the parent side")
    parser.add_argument("--workload", required=True, help="perfbench workload to run")
    parser.add_argument("--change", type=Path, default=ROOT, metavar="DIR",
                        help="directory holding the change side's src/ and perfbench/ "
                             "(default: this checkout)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--seed", type=int, default=401)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")

    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side in sides.values():
            side.mkdir()
        extract(args.against, sides["parent"])
        copy_change(args.change.resolve(), sides["change"])
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for label in order:
                result = bench(sides[label], args.workload, args.seed, args.seconds)
                runs[label].append(result)
                metrics = "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"pair {i + 1} {label}: correct={result['correct']}  {metrics}",
                      flush=True)
    for name in BETTER:
        parent, change = ([r["metrics"][name]["value"] for r in runs[label]]
                          for label in ("parent", "change"))
        print(summary(name, parent, change))
    return 0 if all(r["correct"] for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    raise SystemExit(main())
