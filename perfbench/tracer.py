"""Binding-aware tracer for the codespectra layers.

The tracer wraps the public functions of each ``codespectra`` module from the
outside: ``src/`` is never edited.  A module that imported a name directly
(``from .linalg import matvec`` in ``spectra``) holds its own binding, so every
module of the package is swept and each binding of a wrapped function is
replaced.  Methods are patched on their classes (``FieldSpec``, ``CycInt``,
``GenPoly``).  ``uninstall`` restores every original.

Spans are kept in memory as parallel integer arrays and can be written out
once the run is over.  The hottest calls (field ops, ``CycInt`` ops,
``type_of``, ``J``, ``divergence``) get count-only wrappers, because a span per
call would cost more than the call.  Work done by a counter hook after a call
returns is excluded from every enclosing span's self time.
"""

import gzip
import json
import math
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "gf",
    "linalg",
    "spectra",
    "genfun",
    "macwilliams",
    "mrd",
    "ldgm",
    "designer",
    "serialize",
    "cli",
)

# Only these names are wrapped in a module; other modules wrap every public
# function.  The CLI's own cost (argparse, file I/O, JSON) is main's self time.
ONLY = {"cli": ("main",)}

# Module functions too hot for a span: counted, not timed.
COUNT_ONLY = {
    "spectra.type_of": "spectra.type_of.calls",
    "ldgm.J": "ldgm.J.calls",
    "ldgm.divergence": "ldgm.divergence.calls",
}

FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "pow", "trace")
CYCINT_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__eq__",
)


def _spectrum_counts(counts, args, kwargs, result):
    f = args[0]
    counts["spectra.vectors_enumerated"] += f.field.q**f.n
    counts["spectra.types_out"] += len(result)


def _randomize_counts(counts, args, kwargs, result):
    E, mode = args[0], args[1]
    variants = len(E.support)
    if mode in ("in", "both", "affine"):
        variants *= math.factorial(E.n)
    if mode in ("out", "both", "affine"):
        variants *= math.factorial(E.m)
    if mode == "affine":
        variants *= E.field.q**E.m
    counts["spectra.randomize.variants"] += variants
    counts["spectra.randomize.support"] += len(result.support)


def _members_counts(counts, args, kwargs, result):
    counts["macwilliams.members_enumerated"] += len(result)


def _ldgm_exact_counts(counts, args, kwargs, result):
    params = args[0]
    L = params.mid_len
    counts["ldgm.ensemble_expansions"] += math.factorial(L) * (params.field.q - 1) ** L
    counts["ldgm.ensemble_support"] += len(result.support)


def _serialize_counts(counts, args, kwargs, result):
    text = result if isinstance(result, str) else json.dumps(result)
    counts["serialize.bytes_out"] += len(text.encode())


def _substitute_counts(counts, args, kwargs, result):
    counts["genfun.terms_in"] += len(args[0].terms)
    counts["genfun.terms_out"] += len(result.terms)


HOOKS = {
    "spectra.code_joint_spectrum": _spectrum_counts,
    "spectra.kernel_spectrum": _spectrum_counts,
    "spectra.image_spectrum": _spectrum_counts,
    "spectra.randomize": _randomize_counts,
    "macwilliams.enumerate_subspace": _members_counts,
    "ldgm.ldgm_ensemble_exact": _ldgm_exact_counts,
    "genfun.substitute": _substitute_counts,
}


def _public_callables(mod, layer):
    only = ONLY.get(layer)
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if only is not None and attr not in only:
            continue
        yield attr, obj


class Tracer:
    """Spans and counters for one traced run; inactive until ``active`` is set."""

    def __init__(self):
        from codespectra.errors import CodeSpectraError

        self._error_type = CodeSpectraError
        self.active = False
        self.job = 0
        self.counts = Counter()
        self.errors = Counter()
        self.names = []
        self._name_ids = {}
        self._next_id = 0
        self._stack = []
        self._patches = []
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_job = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_self = array("q")

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, layer, fn, hook=None):
        tracer = self
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        error_type = self._error_type

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = tracer._next_id
            tracer._next_id += 1
            frame = [span, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                tracer.errors[layer] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                parent = stack[-1] if stack else None
                tracer._record(span, parent, name_id, t0, t1, frame[1])
                if parent is not None:
                    parent[1] += t1 - t0
            if hook is not None:
                h0 = perf_counter_ns()
                hook(tracer.counts, args, kwargs, result)
                if parent is not None:
                    parent[1] += perf_counter_ns() - h0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key, layer, fn):
        tracer = self
        counts = self.counts
        error_type = self._error_type

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except error_type:
                tracer.errors[layer] += 1
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, span, parent, name_id, t0, t1, child_ns):
        self.span_id.append(span)
        self.span_parent.append(parent[0] if parent is not None else -1)
        self.span_name.append(name_id)
        self.span_job.append(self.job)
        self.span_start.append(t0)
        self.span_end.append(t1)
        self.span_self.append(t1 - t0 - child_ns)

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        from codespectra.genfun import GenPoly
        from codespectra.gf import CycInt, FieldSpec

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"codespectra.{layer}"]
            for attr, fn in _public_callables(mod, layer):
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrapper = self._count(COUNT_ONLY[name], layer, fn)
                else:
                    hook = _serialize_counts if layer == "serialize" else HOOKS.get(name)
                    wrapper = self._span(name, layer, fn, hook)
                wrappers[id(fn)] = (fn, wrapper)
        package = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "codespectra" or mod_name.startswith("codespectra.")
        ]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])
        for attr in FIELD_OPS:
            self._patch(FieldSpec, attr, self._count("gf.field_ops", "gf", vars(FieldSpec)[attr]))
        for attr in CYCINT_OPS:
            self._patch(CycInt, attr, self._count("gf.cycint_ops", "gf", vars(CycInt)[attr]))
        self._patch(GenPoly, "__mul__", self._span("genfun.mul", "genfun", GenPoly.__mul__))
        self._patch(GenPoly, "__pow__", self._span("genfun.pow", "genfun", GenPoly.__pow__))
        self._patch(
            GenPoly,
            "substitute",
            self._span("genfun.substitute", "genfun", GenPoly.substitute, _substitute_counts),
        )
        self._patch(GenPoly, "coef", self._count("genfun.coef.calls", "genfun", GenPoly.coef))

    def uninstall(self):
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def span_totals(self):
        """{name: (calls, self seconds)} over every recorded span."""
        calls = Counter()
        self_ns = Counter()
        for name_id, s in zip(self.span_name, self.span_self):
            calls[name_id] += 1
            self_ns[name_id] += s
        return {self.names[i]: (calls[i], self_ns[i] / 1e9) for i in calls}

    def write_spans(self, path):
        """One line per span: id, parent, job, name, start, end, self (ns)."""
        base = min(self.span_start) if self.span_start else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tjob\tname\tstart_ns\tend_ns\tself_ns\n")
            for sid, parent, job, name_id, t0, t1, s in zip(
                self.span_id,
                self.span_parent,
                self.span_job,
                self.span_name,
                self.span_start,
                self.span_end,
                self.span_self,
            ):
                name = self.names[name_id]
                fh.write(f"{sid}\t{parent}\t{job}\t{name}\t{t0 - base}\t{t1 - base}\t{s}\n")


def per_layer_metrics(tracer, check_s, traced_ref, untraced_ref):
    """The per-layer metrics of a traced run, each ratio next to its base.

    The overhead ratio compares the job time of the traced and the untraced
    round in reference-kernel units, so a change of host speed between the
    two rounds does not show as tracing cost.
    """
    totals = tracer.span_totals()
    counts = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls(name):
        put(f"{name}.calls", totals.get(name, (0, 0.0))[0], "count")

    def self_s(name, *spans):
        put(f"{name}.self_s", sum(totals.get(s, (0, 0.0))[1] for s in spans or (name,)), "s")

    def count(name):
        put(name, counts[name], "count")

    def ratio(name, num, den):
        put(name, num / den if den else 0.0, "ratio")

    self_s("gf.field_make")
    calls("gf.mw_matrix")
    self_s("gf.mw_matrix")
    count("gf.field_ops")
    count("gf.cycint_ops")
    for name in ("linalg.matvec", "linalg.matmul", "linalg.rref"):
        calls(name)
        self_s(name)
    calls("spectra.code_joint_spectrum")
    for name in (
        "code_joint_spectrum",
        "kernel_spectrum",
        "image_spectrum",
        "set_spectrum",
        "u_set_spectrum",
        "ensemble_avg_joint_spectrum",
        "randomize",
    ):
        self_s(f"spectra.{name}")
    count("spectra.vectors_enumerated")
    count("spectra.types_out")
    put("spectra.type_of.calls", counts["spectra.type_of.calls"], "count")
    ratio(
        "spectra.types_per_vector",
        counts["spectra.types_out"],
        counts["spectra.vectors_enumerated"],
    )
    count("spectra.randomize.variants")
    ratio(
        "spectra.randomize.distinct_ratio",
        counts["spectra.randomize.support"],
        counts["spectra.randomize.variants"],
    )
    for name in ("genfun.substitute", "genfun.mul"):
        calls(name)
        self_s(name)
    count("genfun.terms_in")
    count("genfun.terms_out")
    self_s("genfun.expect_rename")
    put("genfun.coef.calls", counts["genfun.coef.calls"], "count")
    calls("macwilliams.enumerate_subspace")
    self_s("macwilliams.enumerate_subspace")
    count("macwilliams.members_enumerated")
    self_s("macwilliams.orthogonal")
    for name in ("macwilliams.mw_transform", "macwilliams.mw_joint_transpose"):
        calls(name)
        self_s(name)
    calls("mrd.gabidulin_encode")
    for name in ("mrd.verify_mrd", "mrd.verify_scc", "mrd.kernel_stats"):
        self_s(name)
    calls("ldgm.delta_qd")
    self_s("ldgm.delta_qd")
    put("ldgm.J.calls", counts["ldgm.J.calls"], "count")
    self_s("ldgm.ldgm_ensemble_exact")
    count("ldgm.ensemble_expansions")
    ratio(
        "ldgm.ensemble_distinct_ratio",
        counts["ldgm.ensemble_support"],
        counts["ldgm.ensemble_expansions"],
    )
    self_s("ldgm.ldgm_conditional_spectrum")
    self_s("ldgm.ldgm_sample")
    self_s("designer.compose")
    self_s("designer.equivalence", "designer.equivalence_G1", "designer.equivalence_G2")
    self_s("designer.design_concat")
    self_s("designer.check_lower_bound")
    serialize_spans = [s for s in totals if s.startswith("serialize.")]
    put("serialize.self_s", sum(totals[s][1] for s in serialize_spans), "s")
    put("serialize.bytes_out", counts["serialize.bytes_out"], "bytes")
    calls("cli.main")
    self_s("cli.main")
    put("check.self_s", check_s, "s")
    ratio("trace.overhead_ratio", traced_ref, untraced_ref)
    put("trace.traced_ref", traced_ref, "ref")
    put("trace.untraced_ref", untraced_ref, "ref")
    for layer in LAYERS:
        put(f"{layer}.errors", tracer.errors[layer], "count")
    return out
