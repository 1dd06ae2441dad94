"""Replay the benchmark's CLI requests and print one digest of every answer.

Usage (from the repository root):

    python3 tools/replay_digest.py [--src DIR] [--against REF]

The requests are the ``check`` and ``solve`` workloads of ``perfbench/`` at
seeds 401 and 9 (490 requests), then each of their ``check`` and
``reconstruct`` requests again without ``--json``, so in the CLI's default
pretty layout, then ``selftest --json``.  Each goes through
``cli.main`` in this one process, and a sha256 runs over each request's exit
code, stdout and stderr in order.  ``selftest --json`` prints only names and
verdicts, so the digest then also takes ``(name, passed, detail)`` of the
criteria of ``acceptance.run_all()`` at the default seed: 3, 4, 6a, 6b and 7
as they are, and 2 and 5 with the trailing ``, <elapsed>s ...`` part of the
detail cut off, which leaves their errors, ratios, kind hits and offenders.
Criterion 1 is left out: its verdict is a 1 ms timing budget.  A change
meant to keep every output the same keeps the digest.

``DIR`` defaults to the ``src`` next to this file.  ``--against REF``
compares ``DIR`` with the ``src/`` of the git commit ``REF``: it extracts
that tree with ``git archive`` into a temporary directory, replays each side
in a process of its own, prints both lines (``REF`` first) and exits 1 when
the digests differ.  numpy's RuntimeWarnings
are silenced while replaying: their text holds the install path and source
line numbers, and Python prints each one only once per process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: pins BLAS threads before numpy loads)
import workloads as wl  # noqa: E402

SEEDS = (401, 9)
TIMELESS = ("3_", "4_", "6a_", "6b_", "7_")  # criteria whose detail holds no timing
PRETTY = ("check", "reconstruct")  # commands replayed in the pretty layout too
TIMED = ("2_", "5_")  # criteria whose detail ends in ", <elapsed>s ..."


def replay(main, run_all) -> tuple[int, int, str]:
    """(request count, criterion count, sha256 hex) over the replayed
    requests and the criteria of ``run_all()`` named in TIMELESS and TIMED."""
    digest = hashlib.sha256()
    ops = [op for seed in SEEDS for op in wl.check_ops(seed) + wl.solve_ops(seed)]
    requests = [(op.argv, op.stdin) for op in ops]
    requests += [([a for a in op.argv if a != "--json"], op.stdin)
                 for op in ops if op.argv[0] in PRETTY]
    requests.append((["selftest", "--json"], None))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for argv, stdin in requests:
            code, out, err = run.call_cli(main, argv, stdin)
            digest.update(f"{code}\0{out}\0{err}\0".encode())
        criteria = [r for r in run_all() if r.name.startswith(TIMELESS + TIMED)]
    for r in criteria:
        detail = r.detail.rsplit(", ", 1)[0] if r.name.startswith(TIMED) else r.detail
        digest.update(f"{r.name}\0{r.passed}\0{detail}\0".encode())
    return len(requests), len(criteria), digest.hexdigest()


def against(ref: str, src: Path) -> int:
    """Replay the ``src/`` of commit ``ref`` and then ``src``, each in a
    child process; print both lines and return 1 when they differ."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = subprocess.run(["git", "archive", ref, "src"], cwd=ROOT, capture_output=True)
        if tree.returncode:
            raise SystemExit(f"replay_digest: no src/ at {ref}: {tree.stderr.decode().strip()}")
        subprocess.run(["tar", "x", "-C", tmp], input=tree.stdout, check=True)
        for label, side in ((ref, Path(tmp) / "src"), (str(src), src)):
            out = subprocess.run([sys.executable, __file__, "--src", str(side)],
                                 stdout=subprocess.PIPE, text=True, check=True).stdout
            lines.append(out.strip())
            print(f"{label}: {lines[-1]}")
    return 0 if lines[0] == lines[1] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the sipwigner package to replay")
    parser.add_argument("--against", metavar="REF",
                        help="git commit whose src/ to replay and compare with")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if args.against is not None:
        return against(args.against, src)
    if not (src / "sipwigner" / "__init__.py").is_file():
        raise SystemExit(f"replay_digest: no sipwigner package under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("sipwigner.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"replay_digest: sipwigner imported from {cli.__file__}, not {src}")
    acceptance = importlib.import_module("sipwigner.acceptance")
    count, criteria, hexdigest = replay(cli.main, acceptance.run_all)
    print(f"{count} requests, {criteria} criteria sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
