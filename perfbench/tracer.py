"""Span tracing around rankci's layer boundaries, from outside the package.

Modules inside rankci import each other's functions with ``from .x import y``,
so a call across a layer boundary looks up the name in the *calling* module.
:class:`Tracer` therefore replaces each traced function in every module that
calls it (``rankci.cli.tukey_rank_cis``, ``rankci.seqtukey.pair_row_maxima``,
...) and, for methods, on the class itself.  ``installed()`` restores every
original on exit, so untraced calls run the unmodified program.

A span is ``[layer, start_ns, end_ns, parent_index]``; spans stay in memory
until the caller writes them out.  A wrapper entered while its own layer is
the innermost open span (``PairSet.positive_pairs`` constructing a
``PairSet``) opens no second span, so a layer's time is never counted twice;
its counter still runs.
"""

import contextlib
import functools
import importlib
import time
from collections import defaultdict

#: Layer of the span the benchmark opens around each top-level main() call.
ROOT_SPAN = "call"


def _count_pool(counts, args, kwargs, result):
    # both copies of the pool: row-major draws and the column-major _cols
    counts["mcquantile.pool_bytes"] += result.n_samples * result.n_centers * 8 * 2


def _count_fullrange(counts, args, kwargs, result):
    counts["mcquantile.fullrange_calls"] += 1


def _count_rowmax(counts, args, kwargs, result):
    pool, i_idx = args[0], args[1]
    counts["mcquantile.rowmax_calls"] += 1
    counts["mcquantile.pair_evals"] += pool.n_samples * len(i_idx)


def _count_pairset_init(counts, args, kwargs, result):
    counts["core.pairs_built"] += len(args[0].pairs)


def _count_index_arrays(counts, args, kwargs, result):
    counts["core.pairs_built"] += len(result[0])


def _count_seqtukey(counts, args, kwargs, result):
    counts["seqtukey.rounds"] += result[1].iterations


def _count_bootstrap(counts, args, kwargs, result):
    sample = args[0]
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    counts["bootstrap.bisect_iters"] += result.iterations
    counts["bootstrap.draws"] += cfg.n_boot * sample.n


def _count_simharness(counts, args, kwargs, result):
    counts["simharness.reps"] += args[0].reps


# (module, attribute, layer, counter).  A module attribute is replaced in
# that module only; "Class.method" entries are replaced on the class.
PATCHES = (
    ("rankci.cli", "cmd_rank", "cli", None),
    ("rankci.cli", "cmd_simulate", "cli", None),
    ("rankci.cli", "ingest_estimates", "cli.ingest", None),
    ("rankci.core", "CenterSample.from_observations", "core.sample", None),
    ("rankci.core", "PairSet.__init__", "core.pairset", _count_pairset_init),
    ("rankci.core", "PairSet.all_pairs", "core.pairset", None),
    ("rankci.core", "PairSet.positive_pairs", "core.pairset", None),
    ("rankci.core", "PairSet.negative_pairs", "core.pairset", None),
    ("rankci.core", "PairSet.index_arrays", "core.pairset", _count_index_arrays),
    ("rankci.cli", "make_mc_pool", "mcquantile.pool", _count_pool),
    ("rankci.simharness", "make_mc_pool", "mcquantile.pool", _count_pool),
    ("rankci.tukey", "studentized_range_quantile", "mcquantile.fullrange", _count_fullrange),
    ("rankci.seqtukey", "studentized_range_quantile", "mcquantile.fullrange", _count_fullrange),
    ("rankci.seqtukey", "pair_row_maxima", "mcquantile.rowmax", _count_rowmax),
    ("rankci.seqtukey", "empirical_quantile", "mcquantile.select", None),
    ("rankci.cli", "sequential_tukey", "seqtukey", _count_seqtukey),
    ("rankci.simharness", "sequential_tukey", "seqtukey", _count_seqtukey),
    ("rankci.cli", "tukey_rank_cis", "tukey", None),
    ("rankci.simharness", "tukey_rank_cis", "tukey", None),
    ("rankci.simharness", "tukey_rejected_pairs", "tukey", None),
    ("rankci.cli", "zhang_simultaneous", "bootstrap", _count_bootstrap),
    ("rankci.simharness", "zhang_simultaneous", "bootstrap", _count_bootstrap),
    ("rankci.cli", "run_coverage", "simharness", _count_simharness),
    ("rankci.cli", "rankability_estimate", "rankability", None),
    ("rankci.simharness", "rankability_estimate", "rankability", None),
    ("rankci.simharness", "rankability_true", "rankability", None),
)

#: Per-layer metrics: name -> (unit, better).  Times are seconds per traced
#: top-level call, counts are per traced top-level call.
LAYER_METRICS = {
    "mcquantile.fullrange_s": ("s", "lower"),
    "mcquantile.fullrange_calls": ("count", "lower"),
    "mcquantile.rowmax_s": ("s", "lower"),
    "mcquantile.rowmax_calls": ("count", "lower"),
    "mcquantile.pair_evals": ("count", "lower"),
    "mcquantile.ns_per_pair_eval": ("ns", "lower"),
    "mcquantile.select_s": ("s", "lower"),
    "mcquantile.pool_s": ("s", "lower"),
    "mcquantile.pool_bytes": ("bytes", "lower"),
    "core.pairset_s": ("s", "lower"),
    "core.pairs_built": ("count", "lower"),
    "core.sample_s": ("s", "lower"),
    "seqtukey.s": ("s", "lower"),
    "seqtukey.self_s": ("s", "lower"),
    "seqtukey.rounds": ("count", "lower"),
    "tukey.s": ("s", "lower"),
    "tukey.self_s": ("s", "lower"),
    "bootstrap.s": ("s", "lower"),
    "bootstrap.bisect_iters": ("count", "lower"),
    "bootstrap.draws": ("count", "lower"),
    "simharness.self_s": ("s", "lower"),
    "simharness.reps": ("count", "higher"),
    "cli.ingest_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "rankability.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unclaimed_share": ("share", "lower"),
}


def _resolve(module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, name


class Tracer:
    """Records spans and counters for calls made while it is installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    @contextlib.contextmanager
    def span(self, layer):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [layer, time.perf_counter_ns(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, layer, fn, counter=None):
        """``fn`` with a span (and the counter, if any) around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == layer:
                result = fn(*args, **kwargs)
            else:
                with self.span(layer):
                    result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every name in PATCHES by its traced wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, layer, counter in PATCHES:
                owner, name = _resolve(module_name, attr)
                original = owner.__dict__[name]
                if isinstance(original, classmethod):
                    patched = classmethod(self.wrap(layer, original.__func__, counter))
                else:
                    patched = self.wrap(layer, original, counter)
                setattr(owner, name, patched)
                saved.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def layer_times(self):
        """Total and self nanoseconds per layer over all recorded spans."""
        children = defaultdict(int)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        total = defaultdict(int)
        self_ns = defaultdict(int)
        for k, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            self_ns[name] += end - start - children[k]
        return total, self_ns


def layer_metrics(total_ns, self_ns, counts, calls):
    """Per-call layer metrics from layer_times() totals and tracer counts."""
    per_call = 1.0 / calls
    ns = 1e-9 * per_call

    def count(name):
        return counts.get(name, 0) * per_call

    pair_evals = counts.get("mcquantile.pair_evals", 0)
    rowmax_ns = total_ns.get("mcquantile.rowmax", 0)
    return {
        "mcquantile.fullrange_s": total_ns.get("mcquantile.fullrange", 0) * ns,
        "mcquantile.fullrange_calls": count("mcquantile.fullrange_calls"),
        "mcquantile.rowmax_s": rowmax_ns * ns,
        "mcquantile.rowmax_calls": count("mcquantile.rowmax_calls"),
        "mcquantile.pair_evals": count("mcquantile.pair_evals"),
        "mcquantile.ns_per_pair_eval": rowmax_ns / pair_evals if pair_evals else 0.0,
        "mcquantile.select_s": total_ns.get("mcquantile.select", 0) * ns,
        "mcquantile.pool_s": total_ns.get("mcquantile.pool", 0) * ns,
        "mcquantile.pool_bytes": count("mcquantile.pool_bytes"),
        "core.pairset_s": total_ns.get("core.pairset", 0) * ns,
        "core.pairs_built": count("core.pairs_built"),
        "core.sample_s": total_ns.get("core.sample", 0) * ns,
        "seqtukey.s": total_ns.get("seqtukey", 0) * ns,
        "seqtukey.self_s": self_ns.get("seqtukey", 0) * ns,
        "seqtukey.rounds": count("seqtukey.rounds"),
        "tukey.s": total_ns.get("tukey", 0) * ns,
        "tukey.self_s": self_ns.get("tukey", 0) * ns,
        "bootstrap.s": total_ns.get("bootstrap", 0) * ns,
        "bootstrap.bisect_iters": count("bootstrap.bisect_iters"),
        "bootstrap.draws": count("bootstrap.draws"),
        "simharness.self_s": self_ns.get("simharness", 0) * ns,
        "simharness.reps": count("simharness.reps"),
        "cli.ingest_s": total_ns.get("cli.ingest", 0) * ns,
        "cli.self_s": self_ns.get("cli", 0) * ns,
        "rankability.s": total_ns.get("rankability", 0) * ns,
    }
