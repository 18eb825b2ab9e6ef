"""Per-layer tracing for one CLI document, installed from outside the program.

Nothing here edits meanderq.  The tracer replaces chosen public functions
with wrappers on every ``meanderq`` module attribute that holds them, so a
call through any caller's name is seen.  Wrappers either record a span
(name, start, end, parent span) or bump exact counters; ``cProfile`` runs
around ``cli.main`` and gives self time per module.

Counters (exact, so two traced runs of the same inputs agree):

* ``fock.step_calls``: calls of ``fock.apply_semi_meander_operator``, one
  application of the semi-meander operator to a state.
* ``fock.apply_calls``: calls of ``fock.apply``, one elementary factor.
* ``fock.states_out``: support sizes of the states those calls returned,
  summed; ``fock.support_peak`` is the largest.
* ``fock.step_states_fed`` / ``fock.step_states_out``: states entering a
  step that were produced by an earlier step (every step input except the
  vacuum a moment starts from), and states steps produced.  Their ratio is
  ``fock.kept_ratio``, the share of produced states that survive pruning.
* ``scalars.qpoly_init_calls``: ``QPoly`` objects constructed.
* ``qwick.wick_calls``: calls of ``wick_scalar_operator`` and
  ``wick_scalar_combinatorial``.
"""

import cProfile
import functools
import os
import pstats
import sys
import time
from collections import Counter

# (module, function) pairs timed as spans: the public entry points of each
# layer a document passes through.
SPAN_FUNCTIONS = [
    ("polynomials", "semi_meander_poly"),
    ("polynomials", "meander_poly"),
    ("fock", "semi_meander_moment"),
    ("fock", "meander_moment"),
    ("fock", "apply_semi_meander_operator"),
    ("spectra", "semi_meander_moments"),
    ("spectra", "hankel_psd_check"),
    ("spectra", "jacobi_from_moments"),
    ("spectra", "quadrature_from_jacobi"),
    ("verify", "run_suite"),
]

# Module self time is reported for these meanderq modules and the stdlib
# ``fractions`` module (the exact-rational scalar ring); the rest is ``other``.
LAYERS = (
    "cli", "partitions", "polynomials", "dyck", "qwick", "fock",
    "scalars", "spectra", "verify", "fractions",
)


def _support(state) -> int:
    return len(getattr(state, "terms", ()))


def _is_vacuum(state) -> bool:
    terms = getattr(state, "terms", {})
    return len(terms) == 1 and () in terms


class Tracer:
    def __init__(self, pkg_dir: str):
        self.pkg_dir = pkg_dir
        self.counts = Counter()
        self.support_peak = 0
        self.spans = []
        self._stack = []
        self.missing = []
        self.profiler = cProfile.Profile()

    # -- installing wrappers -------------------------------------------------

    def _replace(self, module: str, name: str, make) -> None:
        """Swap ``meanderq.<module>.<name>`` for ``make(original)`` wherever a
        meanderq module holds the original object."""
        owner = sys.modules.get(f"meanderq.{module}")
        original = getattr(owner, name, None)
        if original is None:
            self.missing.append(f"{module}.{name}")
            return
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "meanderq" or mod_name.startswith("meanderq.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    def _span(self, label: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, label, start, time.monotonic())

        return wrapper

    def _count_step(self, fn):
        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            size = _support(out)
            self.counts["fock.step_calls"] += 1
            self.counts["fock.states_out"] += size
            self.counts["fock.step_states_out"] += size
            if not _is_vacuum(x):
                self.counts["fock.step_states_fed"] += _support(x)
            self.support_peak = max(self.support_peak, size)
            return out

        return wrapper

    def _count_apply(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            size = _support(out)
            self.counts["fock.apply_calls"] += 1
            self.counts["fock.states_out"] += size
            self.support_peak = max(self.support_peak, size)
            return out

        return wrapper

    def _count(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        # Counting wrappers go on first, so spans wrap the counted function.
        self._replace("fock", "apply_semi_meander_operator", self._count_step)
        self._replace("fock", "apply", self._count_apply)
        for name in ("wick_scalar_operator", "wick_scalar_combinatorial"):
            self._replace("qwick", name, lambda fn: self._count("qwick.wick_calls", fn))
        for module, name in SPAN_FUNCTIONS:
            self._replace(module, name, lambda fn, label=f"{module}.{name}": self._span(label, fn))
        qpoly = getattr(sys.modules.get("meanderq.scalars"), "QPoly", None)
        if qpoly is None:
            self.missing.append("scalars.QPoly")
        else:
            qpoly.__init__ = self._count("scalars.qpoly_init_calls", qpoly.__init__)

    # -- reporting -----------------------------------------------------------

    def module_self_times(self) -> dict:
        """Self time per layer.  Time inside C builtins (file ``~``) goes to
        the module of the Python function that called them, split by the
        profiler's per-caller totals."""
        import fractions

        files = {}
        for entry in os.listdir(self.pkg_dir):
            if entry.endswith(".py"):
                files[os.path.join(self.pkg_dir, entry)] = entry[:-3]
        files[os.path.realpath(fractions.__file__)] = "fractions"

        def layer(filename: str) -> str:
            name = files.get(os.path.realpath(filename), "other")
            return name if name in LAYERS else "other"

        totals = Counter()
        stats = pstats.Stats(self.profiler).stats
        for (filename, _line, _func), (_cc, _nc, tt, _ct, callers) in stats.items():
            if filename == "~":
                for (caller_file, _l, _f), edge in callers.items():
                    totals[layer(caller_file)] += edge[2]
            else:
                totals[layer(filename)] += tt
        return dict(totals)

    def report(self, t0: float) -> dict:
        return {
            "self_s": self.module_self_times(),
            "counts": dict(self.counts),
            "support_peak": self.support_peak,
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s - t0, "end": e - t0}
                for i, p, n, s, e in self.spans
            ],
            "missing": self.missing,
        }
