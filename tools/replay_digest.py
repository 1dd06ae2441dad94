"""Replay the benchmark's CLI requests and print one digest of every answer.

Usage (from the repository root):

    python3 tools/replay_digest.py [--src DIR]

The requests are the ``check`` and ``solve`` workloads of ``perfbench/`` at
seeds 401 and 9 (490 requests), then ``selftest --json``.  Each goes through
``cli.main`` in this one process, and a sha256 runs over each request's exit
code, stdout and stderr in order.  A change meant to keep every output the
same keeps the digest: run this once with ``--src`` pointing at the parent
commit's ``src`` and once without, and compare the two lines.

``DIR`` defaults to the ``src`` next to this file.  numpy's RuntimeWarnings
are silenced while replaying: their text holds the install path and source
line numbers, and Python prints each one only once per process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: pins BLAS threads before numpy loads)
import workloads as wl  # noqa: E402

SEEDS = (401, 9)


def replay(main) -> tuple[int, str]:
    """(request count, sha256 hex) over the replayed requests."""
    digest = hashlib.sha256()
    requests = [(op.argv, op.stdin) for seed in SEEDS
                for op in wl.check_ops(seed) + wl.solve_ops(seed)]
    requests.append((["selftest", "--json"], None))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for argv, stdin in requests:
            code, out, err = run.call_cli(main, argv, stdin)
            digest.update(f"{code}\0{out}\0{err}\0".encode())
    return len(requests), digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the sipwigner package to replay")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "sipwigner" / "__init__.py").is_file():
        raise SystemExit(f"replay_digest: no sipwigner package under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("sipwigner.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"replay_digest: sipwigner imported from {cli.__file__}, not {src}")
    count, hexdigest = replay(cli.main)
    print(f"{count} requests sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
