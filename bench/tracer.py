"""Spans and counts around the public entry points of each dgdim layer.

The program carries no instrumentation of its own, so this module patches
its callables from outside, in the child interpreter of a traced sample:

* a module-level function is replaced in every loaded ``dgdim`` module that
  binds it by name (``minimal_presentation`` is also bound in
  ``dgdim.complexes`` and ``dgdim.core``), so every caller sees the wrapper;
* a method is replaced once on its class.

A span records its name, start, end and parent; spans stay in memory, are
summarised when the query ends and can be written out with ``dump``.  Self time is a span's duration minus
the time its direct children cover.  Counts-only boundaries (field
operations, normal forms, ideal Groebner bases, syzygy matrices) record no
spans, so their time stays in the self time of the span that called them.
"""
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        # one span: [name, start, end, parent index or -1]
        self.spans = []
        self._stack = [-1]
        self.counts = Counter()

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, _clock(), None, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = _clock()
        self._stack.pop()


def dump(tracer, path):
    """Write every span as [name, start, end, parent index] to a JSON file."""
    import json
    import os

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"clock": "perf_counter", "spans": tracer.spans}, fh)


def _span(tracer, name, fn, after=None):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer.counts, args, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _count(tracer, name, fn, after=None):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        result = fn(*args, **kwargs)
        if after is not None:
            after(counts, args, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


# ---------- hooks that read work sizes off arguments and results ----------


def _after_engine(counts, args, result):
    gbm = args[0].gbm
    counts["core.module_gb.basis_elems"] += len(gbm.gb)
    counts["core.module_gb.syzygies"] += len(gbm.syzygies)


def _after_syzygy_matrix(counts, args, result):
    counts["syz.columns_kept"] += result.source.rank
    counts["syz.recorded"] += len(args[0].gbm.syzygies)


def _after_tower(counts, args, result):
    counts["dg.semifree_resolution.stages"] += len(result.stages)


def _after_bass(counts, args, result):
    counts["dimensions.bass_degrees"] += len(result[0])


def _after_corpus_one(counts, args, result):
    counts["corpus.modules"] += 1


def _after_corpus_family(counts, args, result):
    counts["corpus.modules"] += len(result)


def _after_emit(counts, args, result):
    counts["report.bytes"] += len(result)


# (module, function, span name, hook); span names start with their layer
FUNCTIONS = [
    ("dgdim.core.module", "minimal_presentation", "core.minimal_presentation", None),
    ("dgdim.core.syz", "syzygy_engine", "core.syzygy_engine", None),
    ("dgdim.complexes", "cohomology_data", "complexes.cohomology", None),
    ("dgdim.complexes", "minimal_free_resolution_module", "complexes.resolution", None),
    ("dgdim.dg.tower", "semifree_resolution", "dg.semifree_resolution", _after_tower),
    ("dgdim.dg.dgmodule", "hom_semifree_into_dg", "dg.hom_semifree", None),
    ("dgdim.dimensions", "proj_dim", "dimensions.proj_dim", None),
    ("dgdim.dimensions", "flat_dim", "dimensions.flat_dim", None),
    ("dgdim.dimensions", "bass_numbers", "dimensions.bass_numbers", _after_bass),
    ("dgdim.dimensions", "inj_dim", "dimensions.inj_dim", None),
    ("dgdim.dimensions", "is_regular_sequence", "dimensions.is_regular_sequence", None),
    ("dgdim.dimensions", "module_sequence_regular", "dimensions.module_sequence_regular", None),
    ("dgdim.dimensions", "sequential_depth", "dimensions.sequential_depth", None),
    ("dgdim.dimensions", "local_cohomology_amplitude", "dimensions.local_cohomology_amplitude", None),
    ("dgdim.dimensions", "is_local_cohen_macaulay", "dimensions.is_local_cohen_macaulay", None),
    ("dgdim.dimensions", "is_gorenstein", "dimensions.is_gorenstein", None),
    ("dgdim.dimensions", "dualizing_dg_module", "dimensions.dualizing_dg_module", None),
    ("dgdim.finitistic", "small_finitistic_dims", "finitistic.small_finitistic_dims", None),
    ("dgdim.finitistic", "fpd_bounds", "finitistic.fpd_bounds", None),
    ("dgdim.finitistic", "gorenstein_projdim_bound_check", "finitistic.gorenstein_projdim_bound_check", None),
    ("dgdim.finitistic", "bass_witness_recipe", "finitistic.bass_witness_recipe", None),
    ("dgdim.finitistic", "ffd_witness", "finitistic.ffd_witness", None),
    ("dgdim.finitistic", "hochschild_table", "finitistic.hochschild_table", None),
    ("dgdim.finitistic", "hochschild_vanishing_check", "finitistic.hochschild_vanishing_check", None),
    ("dgdim.corpus", "standard_families", "corpus.standard_families", None),
    ("dgdim.corpus", "random_recipe", "corpus.random_recipe", None),
    ("dgdim.corpus", "apply_recipe", "corpus.apply_recipe", _after_corpus_one),
    ("dgdim.corpus", "random_perfect_module", "corpus.random_perfect_module", None),
    ("dgdim.corpus", "amplitude_zero_test_family", "corpus.amplitude_zero_test_family", _after_corpus_family),
    ("dgdim.corpus", "direct_ext_projdim", "corpus.direct_ext_projdim", None),
    ("dgdim.corpus", "redundant_presentation", "corpus.redundant_presentation", _after_corpus_one),
    ("dgdim.corpus", "resolution_signature", "corpus.resolution_signature", None),
    ("dgdim.checks", "run_check", "checks.run_check", None),
    ("dgdim.scenario", "run_scenario", "scenario.run_scenario", None),
    ("dgdim.report", "emit_report", "report.emit_report", _after_emit),
]

# (module, class, method, span name, hook)
METHODS = [
    ("dgdim.core.syz", "SyzygyEngine", "__init__", "core.module_gb", _after_engine),
    ("dgdim.core.freemod", "GradedMatrix", "__init__", "core.graded_matrix", None),
    ("dgdim.complexes", "PresentedComplex", "cohomology", "complexes.cohomology", None),
    ("dgdim.dg.dgmodule", "DGModule", "cohomology", "dg.cohomology", None),
]

# counts-only boundaries: (module, class or None, callable, count name, hook)
COUNTED = [
    ("dgdim.core.ring", None, "groebner_basis", "core.ideal_gb.calls", None),
    ("dgdim.core.ring", "GradedRing", "normal_form", "core.normal_form.calls", None),
    ("dgdim.core.syz", "SyzygyEngine", "syzygy_matrix", "core.syzygy_matrix.calls", _after_syzygy_matrix),
]
FIELD_CLASSES = ("Rationals", "PrimeField")
FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "div")


def _rebind(fn, wrapper):
    """Replace fn by wrapper wherever a loaded dgdim module binds it."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dgdim" or name.startswith("dgdim.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)


def install(tracer):
    """Import every traced dgdim module and patch its entry points."""
    from importlib import import_module as module

    for modname in ("dgdim.cli", "dgdim.checks", "dgdim.scenario"):
        module(modname)
    for modname, fname, span, hook in FUNCTIONS:
        fn = getattr(module(modname), fname)
        _rebind(fn, _span(tracer, span, fn, hook))
    for modname, cls, meth, span, hook in METHODS:
        klass = getattr(module(modname), cls)
        setattr(klass, meth, _span(tracer, span, getattr(klass, meth), hook))
    for modname, cls, name, count, hook in COUNTED:
        owner = module(modname)
        if cls is None:
            fn = getattr(owner, name)
            _rebind(fn, _count(tracer, count, fn, hook))
        else:
            klass = getattr(owner, cls)
            setattr(klass, name, _count(tracer, count, getattr(klass, name), hook))
    scalars = module("dgdim.core.scalars")
    for cls in FIELD_CLASSES:
        klass = getattr(scalars, cls)
        for op in FIELD_OPS:
            setattr(klass, op, _count(tracer, "core.field_ops", getattr(klass, op)))


# ---------- summary ----------

# integer work counts; their values must repeat exactly between runs
COUNT_METRICS = [
    "core.minimal_presentation.calls",
    "core.module_gb.builds",
    "core.module_gb.basis_elems",
    "core.module_gb.syzygies",
    "core.graded_matrix.builds",
    "core.normal_form.calls",
    "core.ideal_gb.calls",
    "core.field_ops",
    "complexes.cohomology.calls",
    "complexes.resolution.calls",
    "dg.semifree_resolution.calls",
    "dg.semifree_resolution.stages",
    "dg.cohomology.calls",
    "dg.hom_semifree.calls",
    "dimensions.calls",
    "dimensions.bass_degrees",
    "finitistic.calls",
    "corpus.modules",
    "checks.calls",
    "scenario.runs",
    "report.bytes",
]

# ratios of exact counts: metric -> (numerator, denominator)
RATIO_METRICS = {
    "core.module_gb.builds_per_presentation": (
        "core.module_gb.builds_in_presentation", "core.minimal_presentation.calls"),
    "core.syzygy_cache.hit_ratio": (
        "core.syzygy_engine.hits", "core.syzygy_engine.calls"),
    "core.syzygy.kept_ratio": ("syz.columns_kept", "syz.recorded"),
}

TIME_METRICS = [
    "core.minimal_presentation.self_s",
    "core.module_gb.self_s",
    "core.graded_matrix.self_s",
    "complexes.cohomology.self_s",
    "complexes.resolution.self_s",
    "dg.semifree_resolution.self_s",
    "dg.cohomology.self_s",
    "dg.tower_cohomology_s",
    "dg.hom_semifree.self_s",
    "dimensions.self_s",
    "finitistic.self_s",
    "corpus.self_s",
    "checks.self_s",
    "scenario.self_s",
    "report.emit_s",
]

# layers summed over all their wrapped callables; other spans are one boundary
_LAYERS = ("dimensions", "finitistic", "corpus", "checks", "scenario", "report")

_RENAMED = {
    "core.module_gb.calls": "core.module_gb.builds",
    "core.graded_matrix.calls": "core.graded_matrix.builds",
    "scenario.calls": "scenario.runs",
    "report.self_s": "report.emit_s",
}


def _group_of(span_name):
    layer = span_name.split(".", 1)[0]
    return layer if layer in _LAYERS else span_name


def _has_ancestor(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def summarise(tracer):
    """Per-layer metrics of one traced query: {name: (value, base or None)}.

    ``base`` is the denominator of a ratio, so that every ratio can be
    printed with it."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    built_below = [False] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "core.module_gb":
                built_below[parent] = True
    values = defaultdict(float)
    values.update(tracer.counts)
    for idx, (name, start, end, parent) in enumerate(spans):
        group = _group_of(name)
        values[group + ".calls"] += 1
        values[group + ".self_s"] += (end - start) - child_time[idx]
        if name == "core.syzygy_engine" and not built_below[idx]:
            values["core.syzygy_engine.hits"] += 1
        elif name == "core.module_gb" and _has_ancestor(spans, idx, "core.minimal_presentation"):
            values["core.module_gb.builds_in_presentation"] += 1
        elif (name == "dg.cohomology"
              and _has_ancestor(spans, idx, "dg.semifree_resolution")
              and not _has_ancestor(spans, idx, "dg.cohomology")):
            values["dg.tower_cohomology_s"] += end - start
    for old, new in _RENAMED.items():
        values[new] = values.pop(old, 0)
    out = {}
    for name in COUNT_METRICS:
        out[name] = (int(values[name]), None)
    for name, (num, den) in RATIO_METRICS.items():
        base = int(values[den])
        out[name] = (values[num] / base if base else 0.0, base)
    for name in TIME_METRICS:
        out[name] = (values[name], None)
    return out
