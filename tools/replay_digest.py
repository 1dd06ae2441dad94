"""Replay the benchmark's CLI requests and print one digest of every answer.

Usage (from the repository root):

    python3 tools/replay_digest.py [--src DIR] [--against REF]

The requests are the ``check`` and ``solve`` workloads of ``perfbench/`` at
seeds 401 and 9 (490 requests), then each of their ``check`` and
``reconstruct`` requests again without ``--json``, so in the CLI's default
pretty layout, then ``EXTRA``: requests for the CLI branches the workloads
never reach (``counterexample`` in both layouts, ``sip-eval`` at a
max-norm tie, ``check`` on a missing config file and ``check`` on the
``identity`` and ``swap_linf2`` builtins), then ``selftest --json``.  Each
goes through
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
in a process of its own and prints both lines (``REF`` first).  When the
digests differ it then prints one line per replayed item that differs,
naming the parts that do (exit code, stdout, stderr; a criterion's verdict
or detail), then one summary line that counts them by command and part,
such as ``187 differ: reconstruct stdout 116, check stdout 71`` (criteria
count under ``criterion``), and exits 1.  A request is named by its seed
and workload label, with `` (pretty)`` for the second layout;
``selftest --json``, the ``EXTRA`` requests and the criteria go by their
own names.  numpy's RuntimeWarnings are silenced while replaying: their
text holds the install path and source line numbers, and Python prints
each one only once per process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: pins BLAS threads before numpy loads)
import workloads as wl  # noqa: E402

SEEDS = (401, 9)
TIMELESS = ("3_", "4_", "6a_", "6b_", "7_")  # criteria whose detail holds no timing
PRETTY = ("check", "reconstruct")  # commands replayed in the pretty layout too
TIMED = ("2_", "5_")  # criteria whose detail ends in ", <elapsed>s ..."
_LINF2 = {"field": "real", "dim": 2, "norm": {"linf2_fixture": True}}
_L33 = {"field": "real", "dim": 3, "norm": {"lp": 3.0}}
EXTRA = [  # (name, argv, stdin) of the requests for the unreached branches
    ("counterexample", ["counterexample", "--json"], None),
    ("counterexample (pretty)", ["counterexample"], None),
    ("sip-eval at the max-norm tie", ["sip-eval", "--json", "--space", json.dumps(_LINF2),
                                      "--x", "[1, 0]", "--y", "[1, 1]"], None),
    ("check on a missing config", ["check", "--json", "--config",
                                   "/nonexistent/sipwigner-config.json"], None),
    ("check identity, config seed", ["check", "--json", "--config", "-"], json.dumps(
        {"source": _L33, "map": {"builtin": "identity"}, "seed": 5,
         "checks": ["wigner", "phase_isometry_sets", "exact_preservation", "linearity"]})),
    ("check swap_linf2", ["check", "--json", "--config", "-", "--seed", "11"], json.dumps(
        {"map": {"builtin": "swap_linf2"}, "checks": ["phase_isometry_sets", "linearity"]})),
]


def replay(main, run_all) -> tuple[list, list]:
    """The replayed items in digest order, each as (name, command, parts):
    the requests with their exit code, stdout and stderr, then the criteria
    of ``run_all()`` named in TIMELESS and TIMED, under the command
    ``criterion``, with their name, verdict and detail."""
    ops = [(seed, op) for seed in SEEDS for op in wl.check_ops(seed) + wl.solve_ops(seed)]
    requests = [(f"seed {seed} {op.label}", op.argv, op.stdin) for seed, op in ops]
    requests += [(f"seed {seed} {op.label} (pretty)", [a for a in op.argv if a != "--json"],
                  op.stdin) for seed, op in ops if op.argv[0] in PRETTY]
    requests += EXTRA + [("selftest --json", ["selftest", "--json"], None)]
    answers = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, argv, stdin in requests:
            code, out, err = run.call_cli(main, argv, stdin)
            answers.append((name, argv[0], {"exit code": str(code), "stdout": out,
                                            "stderr": err}))
        criteria = [r for r in run_all() if r.name.startswith(TIMELESS + TIMED)]
    verdicts = [(r.name, "criterion", {"name": r.name, "verdict": str(r.passed),
                                       "detail": r.detail.rsplit(", ", 1)[0]
                                       if r.name.startswith(TIMED) else r.detail})
                for r in criteria]
    return answers, verdicts


def replay_src(src: Path) -> tuple[str, list]:
    """Replay the sipwigner package under ``src``: its digest line, and its
    items with each part replaced by the part's own sha256 hex."""
    if not (src / "sipwigner" / "__init__.py").is_file():
        raise SystemExit(f"replay_digest: no sipwigner package under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("sipwigner.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"replay_digest: sipwigner imported from {cli.__file__}, not {src}")
    acceptance = importlib.import_module("sipwigner.acceptance")
    answers, verdicts = replay(cli.main, acceptance.run_all)
    digest = hashlib.sha256()
    for _, _, parts in answers + verdicts:
        digest.update("".join(f"{v}\0" for v in parts.values()).encode())
    line = f"{len(answers)} requests, {len(verdicts)} criteria sha256 {digest.hexdigest()}"
    return line, [(name, command,
                   {k: hashlib.sha256(v.encode()).hexdigest() for k, v in parts.items()})
                  for name, command, parts in answers + verdicts]


# a child process's replay: the digest line and the hashed items, as JSON
CHILD = ("import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
         "import replay_digest; print(json.dumps(replay_digest.replay_src(Path(sys.argv[2]))))")


def against(ref: str, src: Path) -> int:
    """Replay the ``src/`` of commit ``ref`` and then ``src``, each in a
    child process, and print both lines.  When they differ, print each item
    whose parts differ, then their count by command and part, and return
    1."""
    lines, sides, commands = [], [], {}
    with tempfile.TemporaryDirectory() as tmp:
        tree = subprocess.run(["git", "archive", ref, "src"], cwd=ROOT, capture_output=True)
        if tree.returncode:
            raise SystemExit(f"replay_digest: no src/ at {ref}: {tree.stderr.decode().strip()}")
        subprocess.run(["tar", "x", "-C", tmp], input=tree.stdout, check=True)
        for label, side in ((ref, Path(tmp) / "src"), (str(src), src)):
            out = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "tools"), str(side)],
                                 stdout=subprocess.PIPE, text=True, check=True).stdout
            line, items = json.loads(out)
            lines.append(line)
            sides.append({name: parts for name, _, parts in items})
            commands.update((name, command) for name, command, _ in items)
            print(f"{label}: {line}")
    if lines[0] == lines[1]:
        return 0
    old, new = sides
    differ, counts = 0, Counter()
    for name in old | new:  # ref's order, then the items only this side has
        a, b = old.get(name, {}), new.get(name, {})
        parts = [k for k in a | b if a.get(k) != b.get(k)]
        if parts:
            differ += 1
            counts.update(f"{commands[name]} {part}" for part in parts)
            print(f"differs ({', '.join(parts)}): {name}")
    print(f"{differ} differ: " + ", ".join(f"{key} {n}" for key, n in counts.most_common()))
    return 1


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
    print(replay_src(src)[0])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
