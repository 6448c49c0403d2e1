"""Spans around calls into the package's layers, recorded from outside.

``Tracer.install`` rebinds each traced public name in every ``penner.*``
module namespace that holds it (and ``mpmath.polyroots``), so calls between
modules are caught as well as the benchmark's own calls.  Spans
``(name, start, end, parent, job)`` stay in memory until ``write``.  A span's
self time is its duration minus the time its child spans cover.  Spans taken
while ``job`` is ``SETUP`` belong to a traced set-up, not to a job.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Dict, List, Tuple

LAYER_FUNCTIONS = {
    "core": ("twist_product", "scale", "validate_omega", "mat_mul"),
    "spectral": ("char_poly_exact", "rank_exact", "structure_split", "complexity",
                 "pf_certify", "pf_eigenvalue", "refine_real_root", "spectral_report"),
    "factor": ("factor_monic", "degree_of_pf_root", "deflate", "convergence_diagnostic"),
    "boundary": ("p_gamma", "f_gamma", "ray_convergence_experiment",
                 "eigenvector_asymptotics", "homotopy_invariance_check"),
    "cli": ("main", "load_omega", "run_recipe"),
}
# Layers reported as one total over all their public functions.
TOTAL_LAYERS = ("graphs", "catalog")
POLYROOTS = "ext.mpmath.polyroots"
# The job id of spans taken during a set-up.
SETUP = -1


def _coeff_bits(poly) -> int:
    """Largest numerator or denominator bit length of an exact polynomial."""
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for c in poly.coeffs)


class Tracer:
    def __init__(self):
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.stack: List[int] = []
        self.job = SETUP
        self.coeff_bits_max = 0
        self.pf_ok = 0
        self.degree_max = 0
        self.k_scanned = 0
        self._restore: List[Tuple[object, str, object]] = []
        self._observers = {
            "spectral.char_poly_exact": self._see_charpoly,
            "spectral.pf_eigenvalue": self._see_pf,
            "factor.degree_of_pf_root": self._see_degree,
            "cli.run_recipe": self._see_recipe,
        }

    # -- values read from return values -----------------------------------

    def _see_charpoly(self, poly):
        self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(poly))

    def _see_pf(self, _value):
        self.pf_ok += 1

    def _see_degree(self, result):
        self.degree_max = max(self.degree_max, result[0])

    def _see_recipe(self, result):
        self.k_scanned += result.k_star + result.window - 1

    # -- rebinding -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self.stack, self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent, self.job)
                stack.pop()
            if observe is not None and self.job != SETUP:
                observe(result)
            return result

        return traced

    def _rebind(self, name: str, fn, namespaces) -> None:
        wrapper = self._wrap(name, fn)
        attr = fn.__name__
        for module in namespaces:
            if module.__dict__.get(attr) is fn:
                setattr(module, attr, wrapper)
                self._restore.append((module, attr, fn))

    def install(self) -> None:
        import mpmath

        namespaces = [m for key, m in sys.modules.items()
                      if key == "penner" or key.startswith("penner.")]
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"penner.{layer}"]
            for attr in names:
                self._rebind(f"{layer}.{attr}", getattr(module, attr), namespaces)
        for layer in TOTAL_LAYERS:
            module = sys.modules[f"penner.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    self._rebind(f"{layer}.{attr}", fn, namespaces)
        self._rebind(POLYROOTS, mpmath.polyroots, [mpmath])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def self_times(self, slowdown: Dict[int, float],
                   in_setup: bool = False) -> Dict[str, Tuple[int, float]]:
        """Per span name: (calls, self seconds divided by the slowdown of the
        span's job), over the spans of the jobs or of the set-up."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _job in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Tuple[int, float]] = {}
        for (name, start, end, _parent, job), child in zip(self.spans, covered):
            if (job == SETUP) != in_setup:
                continue
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start - child) / slowdown[job])
        return out

    def metrics(self, slowdown: Dict[int, float]) -> Dict[str, Tuple[float, str]]:
        """The per-layer metrics, name -> (value, unit), from the slowdown of
        every traced job and of the set-up (key ``SETUP``).

        Counts and self times are means per traced job, so they do not grow
        with the number of jobs a run fits in.  ``catalog.self_s`` adds the
        catalog's self time in the traced set-up, where the catalog is built.
        ``cli.run_recipe.k_scanned`` is a mean per ``run_recipe`` call.
        """
        jobs = max(1, sum(1 for job in slowdown if job != SETUP))
        per_name = self.self_times(slowdown)
        in_setup = self.self_times(slowdown, in_setup=True)

        def layer_total(spans, layer):
            return sum(s for name, (_c, s) in spans.items()
                       if name.startswith(layer + "."))

        out: Dict[str, Tuple[float, str]] = {}
        names = [f"{layer}.{attr}" for layer, attrs in LAYER_FUNCTIONS.items()
                 for attr in attrs] + [POLYROOTS]
        for name in names:
            calls, self_s = per_name.get(name, (0, 0.0))
            out[f"{name}.calls"] = (calls / jobs, "count/job")
            out[f"{name}.self_s"] = (self_s / jobs, "s/job")
        out["graphs.self_s"] = (layer_total(per_name, "graphs") / jobs, "s/job")
        out["catalog.self_s"] = (layer_total(in_setup, "catalog")
                                 + layer_total(per_name, "catalog") / jobs, "s")
        pf_calls = per_name.get("spectral.pf_eigenvalue", (0, 0.0))[0]
        recipes = per_name.get("cli.run_recipe", (0, 0.0))[0]
        out["spectral.char_poly_exact.coeff_bits_max"] = (self.coeff_bits_max, "bits")
        out["spectral.pf_eigenvalue.ok_ratio"] = (
            self.pf_ok / pf_calls if pf_calls else 1.0, "ratio")
        out["factor.degree_of_pf_root.degree_max"] = (self.degree_max, "count")
        out["cli.run_recipe.k_scanned"] = (
            self.k_scanned / recipes if recipes else 0.0, "count")
        return out

    def write(self, path: str) -> None:
        """All spans, one JSON list per line: name, start, end, parent, job."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
