"""Spans around sipwigner's public functions, installed from outside.

The tracer replaces each traced function wherever a sipwigner module binds
it: the defining module (so internal calls are seen), every importing
module, and module-level lookup tables such as ``cli.CHECKS``.  The program
itself is not edited.  Callables handed out by the factories
``spaces.norm_fn`` and ``fixtures.seeded_phase`` are wrapped as they are
returned, and ``wigner.MapOracle.__call__`` is wrapped on the class.

Each call becomes a span (request, name, parent, start, end) kept in memory
up to a cap and written out at the end.  Per-name aggregates are kept for
every call: count, total time, self time (span time minus the time covered
by its child spans) and norm evaluations attributed to the span, where each
evaluation through a ``norm_fn`` callable is charged to the innermost span
open at that moment.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

SPANS = {
    "spaces": ("sip", "norm", "gateaux_sip_oracle"),
    "orthogonality": ("bj_orthogonal", "minimize_scalar", "best_coeffs"),
    "wigner": ("check_wigner", "check_phase_isometry_sets",
               "check_exact_preservation", "check_linearity"),
    "reconstruct": ("reconstruct", "recover_pair_coeffs", "detect_kind",
                    "reproduction_residual"),
    "fixtures": ("default_samples",),
    "jsonio": ("dumps",),
    "cli": ("main",),
}

_ORDERED = ("check_wigner", "check_exact_preservation")
SPAN_CAP = 100_000  # spans kept for the record; aggregates count every call


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, nfev]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request = -1
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -------------------------------------------------------------- spans

    def span(self, name, fn, *, nfev=False, counter=None, hook=None):
        """``fn`` wrapped so that each call records a span called ``name``.

        ``nfev`` charges one norm evaluation to the innermost open span,
        ``counter`` is bumped once per call, and ``hook(args, kwargs,
        result, error)`` runs after the call with its outcome.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack

        def close(frame, t0):
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            stats[0] += 1
            stats[1] += dur
            stats[2] += dur - frame[1]
            stats[3] += frame[2]
            parent = None
            if stack:
                stack[-1][1] += dur
                parent = stack[-1][0]
            if len(self.spans) < SPAN_CAP:
                self.spans.append((self.request, name, parent, t0, t1))
            else:
                self.dropped += 1

        def traced(*args, **kwargs):
            if nfev and stack:
                stack[-1][2] += 1
            if counter:
                self.counters[counter] = self.counters.get(counter, 0) + 1
            frame = [name, 0.0, 0]  # name, child time, norm evaluations
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(frame, t0)
                if hook:
                    hook(args, kwargs, None, exc)
                raise
            close(frame, t0)
            if hook:
                hook(args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def begin(self, request: int) -> None:
        """Start a request.  A timeout may have left spans of the last one open."""
        self.request = request
        self._stack.clear()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -------------------------------------------------------------- install

    def install(self) -> None:
        """Replace every binding of the traced functions in sipwigner's modules."""
        mods = {name: sys.modules[f"sipwigner.{name}"]
                for name in ("spaces", "orthogonality", "wigner", "reconstruct",
                             "fixtures", "jsonio", "cli", "acceptance", "errors")}
        errors = mods["errors"]
        replacements = {}
        for mod_name, names in SPANS.items():
            for fname in names:
                orig = getattr(mods[mod_name], fname)
                replacements[id(orig)] = (orig, self.span(
                    f"{mod_name}.{fname}", orig, hook=self._hook(mod_name, orig, errors)))
        acceptance = mods["acceptance"]
        for fn in acceptance.CRITERIA:
            replacements[id(fn)] = (fn, self.span(f"acceptance.{fn.__name__}", fn))

        norm_fn = mods["spaces"].norm_fn
        replacements[id(norm_fn)] = (norm_fn, lambda space: self.span(
            "spaces.norm", norm_fn(space), nfev=True, counter="spaces.norm_evals"))
        seeded_phase = mods["fixtures"].seeded_phase
        replacements[id(seeded_phase)] = (seeded_phase, lambda space, seed: self.span(
            "fixtures.seeded_phase", seeded_phase(space, seed)))

        for mod in [m for n, m in list(sys.modules.items())
                    if n == "sipwigner" or n.startswith("sipwigner.")]:
            for key, value in list(vars(mod).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._set(mod, key, value, replacements[id(value)][1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replacements and replacements[id(v)][0] is v:
                            self._set(value, k, v, replacements[id(v)][1])

        oracle = mods["wigner"].MapOracle
        self._set(oracle, "__call__", oracle.__call__,
                  self.span("wigner.MapOracle", oracle.__call__))

    def uninstall(self) -> None:
        for container, key, orig in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._undo.clear()

    def _set(self, container, key, orig, new) -> None:
        self._undo.append((container, key, orig))
        if isinstance(container, dict):
            container[key] = new
        else:
            setattr(container, key, new)

    def _hook(self, mod_name: str, fn, errors):
        fname = fn.__name__
        if mod_name == "wigner":
            draws = inspect.signature(fn).parameters.get("n_draws")

            def pairs(args, kwargs, result, error):
                if error is not None:
                    return
                s = len(args[1] if len(args) > 1 else kwargs["samples"])
                if draws is not None:  # linearity samples n_draws pairs
                    self.count("wigner.pairs", kwargs.get("n_draws", draws.default))
                elif fname in _ORDERED:
                    self.count("wigner.pairs", s * s)
                else:
                    self.count("wigner.pairs", s * (s + 1) // 2)
            return pairs
        if (mod_name, fname) == ("reconstruct", "reconstruct"):
            def rejects(args, kwargs, result, error):
                if isinstance(error, errors.SipwignerError):
                    self.count("reconstruct.rejects", 1)
            return rejects
        if (mod_name, fname) == ("jsonio", "dumps"):
            def size(args, kwargs, result, error):
                if result is not None:
                    self.count("jsonio.dumps.bytes", len(result))
            return size
        return None

    # -------------------------------------------------------------- output

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass means of the aggregates, keyed by metric name."""
        out = {}
        for name, (calls, _total, self_s, nfev) in self.stats.items():
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.self_s"] = self_s / passes
            out[f"{name}.nfev"] = nfev / passes
        for key, value in self.counters.items():
            out[key] = value / passes
        return out

    def dump(self) -> dict:
        names = sorted({s[1] for s in self.spans} | {s[2] for s in self.spans if s[2]})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][3] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["request", "name", "parent", "start_us", "dur_us"],
            "spans": [[r, index[n], index.get(p, -1), round((a - t0) * 1e6, 3),
                       round((b - a) * 1e6, 3)] for r, n, p, a, b in self.spans],
            "dropped": self.dropped,
            "aggregates": {n: {"calls": c, "total_s": t, "self_s": s, "nfev": f}
                           for n, (c, t, s, f) in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
        }
