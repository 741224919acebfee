"""Per-layer counts and self times, recorded from outside gmeslab.

``Tracer`` wraps each function in ``LAYER_FUNCTIONS`` in every gmeslab module
namespace that binds it, so calls made inside the package are counted too.
Self time is the time spent in a call minus the time spent in the wrapped
calls it made, their wrappers included.  Nothing in gmeslab changes;
``restore`` puts the original functions back.
"""

from __future__ import annotations

import contextlib
import sys
import time

# module -> public functions timed as layers.
LAYER_FUNCTIONS = {
    "states": ("solve_b_for_nbar", "gmes_spectrum", "bounded_f_profile", "poisson_tail",
               "tmsv_spectrum", "mes_spectrum"),
    "gmms": ("gmms_distribution",),
    "metrics": ("fidelity", "qutrit_truncate", "bell_max_analytic"),
    "bell_oracle": ("maximize_bell",),
    "crosskerr": ("kerr_mes_fidelity", "coherent_fock", "two_mode_product", "cross_kerr_apply",
                  "pseudo_number_component", "pseudo_phase_gram"),
    "cli": ("main",),
}

# Counts derived from the traced calls, per pass: (name, unit, better).
DERIVED = (
    ("states.spectra_per_row", "spectra/row", "lower"),
    ("states.coeffs_built", "count", "lower"),
    ("states.mes_bytes", "bytes", "lower"),
    ("bell_oracle.converged_ratio", "ratio", "higher"),
    ("crosskerr.fock_bytes", "bytes", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
)

# Import-time metrics from ``python -X importtime`` (see run.import_metrics).
IMPORT_METRICS = (
    ("import.gmeslab_ms", "ms", "lower"),
    ("import.scipy_ms", "ms", "lower"),
    ("import.numpy_ms", "ms", "lower"),
    ("import.modules", "count", "lower"),
)

SPECTRUM_CONSTRUCTORS = ("gmes_spectrum", "tmsv_spectrum", "mes_spectrum")


def layer_metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for module, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            specs.append((f"{module}.{fn}.calls", "count", "lower"))
            specs.append((f"{module}.{fn}.self_ms", "ms", "lower"))
    specs += DERIVED
    specs += IMPORT_METRICS
    specs.append(("trace.ops_per_s", "1/s", "higher"))
    return specs


class Tracer:
    def __init__(self, package):
        self.calls = {}
        self.self_s = {}
        self.counts = dict.fromkeys(("coeffs_built", "mes_bytes", "converged", "fock_bytes",
                                     "csv_bytes", "csv_rows", "cli_spectra"), 0)
        self._stack = []  # child time accumulated by each open wrapped call
        self._in_cli = 0
        self._patched = []
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
        for module_name, functions in LAYER_FUNCTIONS.items():
            home = sys.modules[f"{package.__name__}.{module_name}"]
            for fn in functions:
                key = f"{module_name}.{fn}"
                original = getattr(home, fn)
                wrapper = self._wrap(key, fn, original)
                self.calls[key] = 0
                self.self_s[key] = 0.0
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def _wrap(self, key, fn, original):
        stack = self._stack
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            # The whole wrapper, bookkeeping included, counts as child time
            # of the enclosing wrapped call, so no caller's self time holds
            # the tracer's own cost.
            entered = perf_counter()
            stack.append(0.0)
            try:
                t0 = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - t0
                self._count(fn, result)
                return result
            finally:
                children = stack.pop()
                self.calls[key] += 1
                self.self_s[key] += elapsed - children
                if stack:
                    stack[-1] += perf_counter() - entered

        wrapper.__wrapped__ = original
        return wrapper

    def _count(self, fn, result):
        counts = self.counts
        if fn == "bounded_f_profile":
            counts["coeffs_built"] += len(result[0])
        elif fn == "tmsv_spectrum":
            counts["coeffs_built"] += len(result)
        elif fn == "mes_spectrum":
            counts["mes_bytes"] += 8 * len(result)
        elif fn == "maximize_bell":
            counts["converged"] += int(result.converged)
        elif fn in ("two_mode_product", "cross_kerr_apply"):
            counts["fock_bytes"] += 16 * (result.cutoff + 1) ** 2
        if self._in_cli and fn in SPECTRUM_CONSTRUCTORS:
            counts["cli_spectra"] += 1

    @contextlib.contextmanager
    def cli_op(self, is_cli):
        self._in_cli += is_cli
        try:
            yield
        finally:
            self._in_cli -= is_cli

    def count_csv(self, path):
        with open(path, "rb") as handle:
            data = handle.read()
        self.counts["csv_bytes"] += len(data)
        self.counts["csv_rows"] += max(0, data.count(b"\n") - 1)

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self, passes):
        """Per-pass layer metrics (import and trace.ops_per_s are added by run.py)."""
        out = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key] / passes
            out[f"{key}.self_ms"] = 1e3 * self.self_s[key] / passes
        c = self.counts
        bells = self.calls["bell_oracle.maximize_bell"]
        out["states.spectra_per_row"] = c["cli_spectra"] / c["csv_rows"] if c["csv_rows"] else 0.0
        out["states.coeffs_built"] = c["coeffs_built"] / passes
        out["states.mes_bytes"] = c["mes_bytes"] / passes
        out["bell_oracle.converged_ratio"] = c["converged"] / bells if bells else 0.0
        out["crosskerr.fock_bytes"] = c["fock_bytes"] / passes
        out["cli.csv_bytes"] = c["csv_bytes"] / passes
        return out

