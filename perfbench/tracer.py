"""In-memory span tracer that wraps deltamag's layer functions from outside.

Modules import these functions by name (``from .special import digamma``),
so each layer is patched at every site where the name is looked up, not
only where it is defined. A span is (op id, span id, parent span id, layer,
start, end); counters are recorded at the same boundaries. ``install`` and
``uninstall`` bracket each traced op, so untraced ops execute the
unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter

import numpy as np

# layer name -> the (module, attribute) sites where callers look it up
LAYER_SITES = {
    "special.digamma": [("deltamag.models", "digamma")],
    "models.wl_perp_shape": [
        ("deltamag.models", "wl_perp_shape"),
        ("deltamag.fit", "wl_perp_shape"),
        ("deltamag.collapse", "wl_perp_shape"),
    ],
    "fit.levmar": [("deltamag.fit", "levmar")],
    "fit.fit_wl_difference": [
        ("deltamag", "fit_wl_difference"),
        ("deltamag.pipeline", "fit_wl_difference"),
    ],
    "collapse.dispersion": [
        ("deltamag.collapse", "dispersion"),
        ("deltamag.pipeline", "dispersion"),
    ],
    "collapse.collapse_teff": [("deltamag.pipeline", "collapse_teff")],
    "collapse.isolate_aa": [("deltamag.pipeline", "isolate_aa")],
    "sweepio.parse_sweep_csv": [("deltamag.pipeline", "parse_sweep_csv")],
    "sweepio.write_plot_csv": [("deltamag.pipeline", "write_plot_csv")],
    "hall.density_from_hall": [("deltamag.pipeline", "density_from_hall")],
    "pipeline.run_analysis": [("deltamag.cli", "run_analysis")],
    "pipeline.load_datasets": [("deltamag.cli", "load_datasets")],
    "pipeline.write_report": [("deltamag.cli", "write_report")],
    "pipeline.Report.to_json": [("deltamag.pipeline:Report", "to_json")],
    "cli.main": [("deltamag.cli", "main")],
}


def _resolve(site: str):
    """'pkg.mod' -> module; 'pkg.mod:Class' -> class in that module."""
    mod_name, _, cls_name = site.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls_name) if cls_name else obj


class Tracer:
    """Spans and counters for one traced phase."""

    def __init__(self):
        self.spans = []           # (op, span_id, parent_id, layer, t0, t1)
        self.counts = Counter()   # "layer.counter" -> total
        self.total_s = Counter()  # layer -> summed span duration
        self.self_s = Counter()   # layer -> duration not covered by child spans
        self.op = -1
        self.missing_sites = []
        self._stack = []          # [span_id, seconds spent in child spans]
        self._sites = []          # (owner, attribute, original, wrapper)
        for layer, sites in LAYER_SITES.items():
            for site, attr in sites:
                owner = _resolve(site)
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing_sites.append(f"{site}.{attr}")
                else:
                    self._sites.append((owner, attr, original, self._wrap(layer, original)))

    # -- installation -------------------------------------------------
    def install(self):
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._sites):
            setattr(owner, attr, original)

    # -- recording ----------------------------------------------------
    def _wrap(self, layer, fn):
        before = _BEFORE.get(layer)
        after = _AFTER.get(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(tracer, args)
            span_id = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)  # reserve the id; filled in on exit
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                dur = t1 - t0
                tracer.spans[span_id] = (tracer.op, span_id, parent, layer, t0, t1)
                tracer.counts[f"{layer}.calls"] += 1
                tracer.total_s[layer] += dur
                tracer.self_s[layer] += dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
            if after is not None:
                after(tracer, layer, args, result)
            return result

        return traced

    def calls_under(self, layer, parent_layer, op=None):
        """Calls of ``layer`` whose direct parent span is ``parent_layer``."""
        names = {s[1]: s[3] for s in self.spans}
        return sum(
            1
            for s in self.spans
            if s[3] == layer
            and (op is None or s[0] == op)
            and names.get(s[2]) == parent_layer
        )

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, layer, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": layer, "start": t0, "end": t1}))
                fh.write("\n")


def _digamma_points(tracer, args):
    tracer.counts["special.digamma.points"] += int(np.size(args[0]))
    return args


def _levmar_count_residuals(tracer, args):
    """Hand levmar a residual that counts its evaluations (nfev)."""
    from deltamag.fit import Residual

    residual = args[0]
    plain = not isinstance(residual, Residual)
    evaluate = residual if plain else residual.evaluate

    def counted(p):
        tracer.counts["fit.levmar.nfev"] += 1
        return evaluate(p)

    wrapped = counted if plain else Residual(evaluate=counted, jacobian=residual.jacobian)
    return (wrapped,) + tuple(args[1:])


def _levmar_result(tracer, layer, args, result):
    tracer.counts["fit.levmar.iterations"] += int(result.iterations)
    tracer.counts["fit.levmar.converged"] += int(bool(result.converged))


def _file_bytes(tracer, layer, args, result):
    """Size of the file named by the first argument, after the call."""
    tracer.counts[f"{layer}.bytes"] += os.path.getsize(args[0])


_BEFORE = {
    "special.digamma": _digamma_points,
    "fit.levmar": _levmar_count_residuals,
}
_AFTER = {
    "fit.levmar": _levmar_result,
    "sweepio.parse_sweep_csv": _file_bytes,
    "sweepio.write_plot_csv": _file_bytes,
}
