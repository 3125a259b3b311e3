"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions of every ``ellgenus`` module, and
the public methods of ``WSeries`` and ``Poly`` on their classes.  A wrapper
is installed on the defining module and on every other ``ellgenus`` module
that imported the same function object (``fibrations.todd_factor``,
``ellgenus.derived_q``, ...), and :meth:`Tracer.remove` puts every original
back.  The layers are the modules; a span's name is ``<layer>.<function>``.

While :attr:`Tracer.active` is set, each wrapped call records a span (name,
start, end, parent span, request id) in flat in-memory arrays; the spans are
written out only at the end of the run.  The tracer's own bookkeeping is
timed and taken out of every enclosing span, so ``self_s`` (a span's time
minus the time its child spans cover) and ``total_s`` measure the program,
not the wrappers.  Hot helpers (``mono_weight``, ``mono_from_dict``,
``var_weight``, ``Fraction`` arithmetic) are not wrapped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import types
from array import array
from collections import defaultdict
from time import perf_counter

# The layers: the modules of src/ellgenus.
LAYERS = ("series", "poly", "charclasses", "pushforward", "fibrations",
          "genseries", "verify", "cli")

# Module-level public functions that are too hot or too trivial to wrap.
SKIP = {"series": {"var_weight", "mono_from_dict", "mono_weight", "mono_mul"},
        "verify": {"first_mismatch"}}

# Class methods wrapped on the class, as (class attribute, metric name).
METHODS = {
    ("series", "WSeries"): (
        ("__mul__", "series.mul"), ("__rmul__", "series.mul"),
        ("__add__", "series.add"), ("__radd__", "series.add"),
        ("__sub__", "series.sub"), ("__rsub__", "series.sub"),
        ("__pow__", "series.pow"), ("inverse", "series.inverse"),
        ("exp", "series.exp"), ("log", "series.log"),
        ("substitute", "series.substitute"),
        ("reweight_by_one_plus_y", "series.reweight_by_one_plus_y"),
        ("coefficients_of", "series.coefficients_of"),
        ("weight_component", "series.weight_component"),
        ("coeff", "series.coeff"), ("y_slice", "series.y_slice"),
        ("truncate", "series.truncate"), ("diff_h", "series.diff_h"),
        ("to_text", "cli.format"), ("to_latex", "cli.format"),
    ),
    ("poly", "Poly"): (
        ("__mul__", "poly.mul"), ("__rmul__", "poly.mul"),
        ("__add__", "poly.add"), ("__radd__", "poly.add"),
        ("__pow__", "poly.pow"), ("divmod", "poly.divmod"),
        ("evaluate", "poly.evaluate"), ("to_text", "cli.format"),
    ),
}

# Functions whose metric name is not <module>.<function>.
RENAME = {
    "cli.load_base_spec": "cli.parse_input",
    "cli.load_fibration_spec": "cli.parse_input",
    "cli.parse_base_arg": "cli.parse_input",
    "cli.parse_series_json": "cli.parse_input",
    "cli.series_to_records": "cli.format",
    "cli.emit_series_json": "cli.format",
    "verify.check_derived_vs_closed": "verify.derived-vs-closed",
    "verify.check_p_table": "verify.p-table",
    "verify.check_d5_derivative_oracle": "verify.d5-derivative-oracle",
    "verify.check_hadamard_identity": "verify.hadamard-identity",
    "verify.check_euler_e8": "verify.euler-crosscheck",
    "verify.check_serre_duality": "verify.serre-duality",
    "verify.check_integrality": "verify.integrality",
    "verify.check_route_consistency": "verify.route-consistency",
}

# Calls whose distinct argument tuples are counted (``distinct_ratio``).
KEYED = {"genseries.chi_series", "fibrations.closed_form_q",
         "charclasses.chi_y_log_coefficients"}


def _coeff_bits(series):
    best = 0
    for c in series.terms.values():
        b = max(c.numerator.bit_length(), c.denominator.bit_length())
        if b > best:
            best = b
    return best


class Tracer:
    """Spans and counters of one traced pass; install, run, remove, report."""

    def __init__(self):
        self.active = False
        self.request = -1
        self.names = []  # span-name table; spans store an index into it
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_ov0 = array("d")  # bookkeeping total when the span opened
        self.span_ov1 = array("d")  # ... and when it closed
        self.overhead = 0.0
        self._stack = []
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.keys = defaultdict(set)
        self.integrand_terms = []
        self._patches = []

    # -- install / remove -------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module("ellgenus." + m) for m in LAYERS}
        consumers = [importlib.import_module("ellgenus")] + list(mods.values())
        for layer, mod in mods.items():
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or attr in SKIP.get(layer, ())):
                    continue
                name = "%s.%s" % (layer, attr)
                wrapper = self._wrap(RENAME.get(name, name), fn)
                for owner in consumers:
                    for other, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, other, wrapper)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(mods[layer], cls_name)
            for attr, name in methods:
                self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))
        # json.dumps as the cli module sees it, without touching json itself
        cli = mods["cli"]
        shim = types.SimpleNamespace(**vars(cli.json))
        shim.dumps = self._wrap("cli.format", cli.json.dumps)
        self._patch(cli, "json", shim)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self.active = False

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stat = {"series.mul": Tracer._mul_stat,
                "fibrations.fiber_integrand": Tracer._integrand_stat}.get(name)
        keyed = name in KEYED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            enter = perf_counter()
            idx = len(tracer.span_start)
            stack = tracer._stack
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_request.append(tracer.request)
            if keyed:
                tracer._record_key(name, args, kwargs)
            stack.append(idx)
            start = perf_counter()
            tracer.overhead += start - enter
            tracer.span_start.append(start)
            tracer.span_end.append(start)  # filled in when the span closes
            tracer.span_ov0.append(tracer.overhead)
            tracer.span_ov1.append(tracer.overhead)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.span_end[idx] = end
                tracer.span_ov1[idx] = tracer.overhead
            if stat is not None:
                stat(tracer, args, result)
            tracer.overhead += perf_counter() - end
            return result

        return wrapper

    def _record_key(self, name, args, kwargs):
        key = (args, tuple(sorted(kwargs.items())))
        try:
            self.keys[name].add(key)
        except TypeError:  # unhashable argument: count it as distinct
            self.keys[name].add(("unhashable", len(self.keys[name])))

    def _mul_stat(self, args, result):
        if result is NotImplemented:
            return
        a, b = args
        na = len(a.terms)
        nb = len(b.terms) if hasattr(b, "terms") else 1
        c = self.counters
        c["series.mul.terms_in"] += na + nb
        c["series.mul.pairs"] += na * nb
        c["series.mul.terms_out"] += len(result.terms)
        bits = _coeff_bits(result)
        if bits > self.maxima["series.coeff_bits_max"]:
            self.maxima["series.coeff_bits_max"] = bits

    def _integrand_stat(self, args, result):
        self.counters["fibrations.fiber_integrand.terms_out"] += len(result.terms)
        self.integrand_terms.append(len(result.terms))

    # -- results ------------------------------------------------------------

    def span_times(self):
        """Per span: (total, self) seconds with the tracer's bookkeeping removed."""
        n = len(self.span_start)
        total = [
            (self.span_end[i] - self.span_start[i]) - (self.span_ov1[i] - self.span_ov0[i])
            for i in range(n)
        ]
        self_t = list(total)
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                self_t[p] -= total[i]
        return total, self_t

    def metrics(self):
        """Every per-layer metric this pass produced, by name.

        For each span name: ``calls``, ``self_s`` and ``total_s`` (total over
        the outermost spans of that name only, so recursion is not counted
        twice); for each layer its ``self_s``; the mul counters; and
        ``distinct_ratio`` for the keyed calls (0 when there were no calls).
        """
        total, self_t = self.span_times()
        out = {}
        calls = defaultdict(int)
        tot = defaultdict(float)
        slf = defaultdict(float)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i in range(len(total)):
            nid = self.span_name[i]
            calls[nid] += 1
            slf[nid] += self_t[i]
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != nid:
                p = self.span_parent[p]
            if p < 0:
                tot[nid] += total[i]
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = calls[nid]
            out[name + ".self_s"] = slf[nid]
            out[name + ".total_s"] = tot[nid]
            layer_self[name.split(".")[0]] += slf[nid]
        for layer, value in layer_self.items():
            out[layer + ".self_s"] = value
        out.update(self.counters)
        out.update(self.maxima)
        for key in ("series.mul.terms_in", "series.mul.terms_out", "series.mul.pairs",
                    "fibrations.fiber_integrand.terms_out", "series.coeff_bits_max"):
            out.setdefault(key, 0)
        pairs = out["series.mul.pairs"]
        out["series.mul.pair_yield"] = out["series.mul.terms_out"] / pairs if pairs else 0.0
        for name in sorted(KEYED):
            n = out.get(name + ".calls", 0)
            out[name + ".distinct_ratio"] = len(self.keys[name]) / n if n else 0.0
        return out

    def write_spans(self, path):
        """All spans as gzipped JSON columns (times in seconds from the first)."""
        t0 = self.span_start[0] if self.span_start else 0.0
        total, self_t = self.span_times()
        data = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "request", "total", "self"],
            "name": list(self.span_name),
            "start": [round(t - t0, 9) for t in self.span_start],
            "end": [round(t - t0, 9) for t in self.span_end],
            "parent": list(self.span_parent),
            "request": list(self.span_request),
            "total": [round(t, 9) for t in total],
            "self": [round(t, 9) for t in self_t],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)
