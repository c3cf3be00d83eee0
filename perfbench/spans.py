"""Spans around the calls into enkpf's layers, and the per-layer metrics.

A traced run replaces, in three calling modules, the names listed in
WRAPPED by wrappers that record one span per call: its id, the enclosing
span, the layer name, start and end, the repetition it belongs to, and a few
counts taken at the boundary (rows and steps of a model integration, sites
of a local analysis, bytes written). Nothing inside the package changes, so
the outputs of a traced run must be byte-identical to an untraced one.

Spans stay in memory and are written as JSON lines, one file per process: a
pool worker writes its spans when a repetition ends (the pool terminates its
workers, so they never reach an exit handler), the main process when the run
ends. Times come from time.perf_counter, which is CLOCK_MONOTONIC on Linux
and therefore comparable across the processes of one run.
"""

import functools
import glob
import importlib
import inspect
import json
import os
import statistics
import time

# The names each calling module looks up that are wrapped, i.e. the layer
# boundaries the benchmark times. A span is named after the function's own
# module, so sweq.advance_members is one layer whoever calls it.
WRAPPED = {
    "enkpf.experiment": (
        "run_single_rep", "write_ranks_csv", "Pool",
        "spinup_ensemble", "advance_members", "gen_observations",
        "lenkf_update", "naive_lenkpf_update", "block_lenkpf_update",
        "enkf_update", "adaptive_gamma", "pf_weights", "ensemble_moments",
        "balanced_resample",
        "field_crps", "rank_of_truth", "write_scores_csv",
    ),
    "enkpf.local_filters": ("tapered_cov_block", "search_gamma", "reorder_to_match"),
    "enkpf.sweq": ("warm_state", "advance_members"),
}
REP_SPAN = "experiment.run_single_rep"


def span_name(fn):
    return f"{fn.__module__.removeprefix('enkpf.')}.{fn.__name__}"


class Tracer:
    """Per-process span buffer; spans are dicts ready for json.dumps."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self.rep = None
        self._spans = []
        self._stack = []
        self._next = 0
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self):
        # a forked worker starts with a copy of the parent's buffer
        self._spans = []
        self._stack = []

    def open(self):
        span_id = f"{os.getpid()}-{self._next}"
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, opened, name, attrs):
        end = time.perf_counter()
        span_id, parent, start = opened
        self._stack.pop()
        self._spans.append(
            {"id": span_id, "parent": parent, "name": name, "start": start,
             "end": end, "rep": self.rep, "pid": os.getpid(), "attrs": attrs}
        )
        if name == REP_SPAN:
            self.rep = None
        if not self._stack and os.getpid() != self.main_pid:
            self.flush()

    def flush(self):
        if not self._spans:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for span in self._spans:
                fh.write(json.dumps(span) + "\n")
        self._spans = []

    def wrap(self, fn, annotate=None):
        """Return fn recording a span per call; annotate(tracer, bound_args)
        runs before the call and returns a function of the result that gives
        the span's counts."""
        name = span_name(fn)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = None
            if annotate is not None:
                after = annotate(self, signature.bind(*args, **kwargs).arguments)
            opened = self.open()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(opened, name, {"error": type(exc).__name__})
                raise
            self.close(opened, name, after(result) if after else {})
            return result

        return traced


def _advance_attrs(tracer, args):
    counts = {"rows": len(args["members"]), "steps": int(args["n_steps"])}
    return lambda result: counts


def _naive_attrs(tracer, args):
    diag = args.get("diagnostics")
    before = len(diag.gammas) if diag is not None else 0

    def after(result):
        gammas = diag.gammas[before:] if diag is not None else []
        return {"sites": len(gammas), "sites_resampled": sum(g < 1.0 for g in gammas)}

    return after


def _block_attrs(tracer, args):
    diag = args.get("diagnostics")
    before = diag.pinv_fallbacks if diag is not None else 0
    return lambda result: {
        "pinv_fallbacks": diag.pinv_fallbacks - before if diag is not None else 0
    }


def _scores_attrs(tracer, args):
    fh = args["fh"]
    before = fh.tell()
    return lambda result: {"bytes": fh.tell() - before}


def _rep_attrs(tracer, args):
    # spans opened until this repetition's span closes belong to it
    tracer.rep = int(args["rep"])
    return lambda result: {
        "failed_method_cycles": sum(rec.crps is None for rec in result.records)
    }


ANNOTATE = {
    "sweq.advance_members": _advance_attrs,
    "local_filters.naive_lenkpf_update": _naive_attrs,
    "local_filters.block_lenkpf_update": _block_attrs,
    "scoring.write_scores_csv": _scores_attrs,
    "experiment.run_single_rep": _rep_attrs,
}


class _TracedPool:
    """Context manager around a multiprocessing pool recording its lifetime."""

    def __init__(self, tracer, pool, processes):
        self._tracer = tracer
        self._pool = pool
        self._processes = processes
        self._opened = tracer.open()

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._tracer.close(self._opened, "experiment.pool", {"processes": self._processes})

    def __getattr__(self, attr):
        return getattr(self._pool, attr)


def _wrap_pool(tracer, pool_factory):
    def pool(processes=None, *args, **kwargs):
        return _TracedPool(
            tracer, pool_factory(processes, *args, **kwargs), processes or os.cpu_count()
        )

    return pool


def install(out_dir):
    """Wrap every name in WRAPPED in place; returns the tracer."""
    tracer = Tracer(out_dir)
    for module_name, names in WRAPPED.items():
        module = importlib.import_module(module_name)
        for attr in names:
            fn = getattr(module, attr)
            if attr == "Pool":
                wrapped = _wrap_pool(tracer, fn)
            else:
                wrapped = tracer.wrap(fn, ANNOTATE.get(span_name(fn)))
            setattr(module, attr, wrapped)
    return tracer


def load_spans(out_dir):
    spans = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.jsonl"))):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """span id -> duration minus the part of it that child spans cover."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: span["end"] - span["start"]
        - _covered(children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }


def span_table(spans):
    """name -> {calls, total_s, self_s}, the per-span summary of a run."""
    selfs = self_times(spans)
    table = {}
    for span in spans:
        row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += selfs[span["id"]]
    return table


def _total(spans, name, pred=None):
    chosen = [s for s in spans if s["name"] == name and (pred is None or pred(s))]
    return sum(s["end"] - s["start"] for s in chosen), len(chosen)


def _attr_sum(spans, name, attr):
    return sum(s["attrs"].get(attr, 0) for s in spans if s["name"] == name)


def layer_metrics(spans, k):
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    out = {}
    warm_s, warm_calls = _total(spans, "sweq.warm_state")
    out["sweq.warm_state.s"] = (warm_s, "s")
    out["sweq.warm_state.calls"] = (warm_calls, "count")
    warm_under = {}
    for s in spans:
        if s["name"] == "sweq.warm_state" and s["parent"] is not None:
            warm_under[s["parent"]] = warm_under.get(s["parent"], 0.0) + s["end"] - s["start"]
    out["sweq.spinup_ensemble.s"] = (
        sum(s["end"] - s["start"] - warm_under.get(s["id"], 0.0)
            for s in spans if s["name"] == "sweq.spinup_ensemble"),
        "s",
    )
    for label, rows in (("rows1", 1), ("rowsK", k)):
        chosen = [s for s in spans
                  if s["name"] == "sweq.advance_members" and s["attrs"].get("rows") == rows]
        secs = sum(s["end"] - s["start"] for s in chosen)
        steps = sum(s["attrs"]["steps"] for s in chosen)
        out[f"sweq.advance_members.{label}.s"] = (secs, "s")
        out[f"sweq.advance_members.{label}.member_steps"] = (steps * rows, "count")
        out[f"sweq.step_us.{label}"] = (1e6 * secs / steps if steps else 0.0, "us")
    out["sweq.gen_observations.s"] = (_total(spans, "sweq.gen_observations")[0], "s")

    for name in ("local_filters.lenkf_update", "local_filters.naive_lenkpf_update",
                 "local_filters.block_lenkpf_update", "taper.tapered_cov_block",
                 "global_filters.search_gamma", "resampling.reorder_to_match",
                 "scoring.rank_of_truth"):
        secs, calls = _total(spans, name)
        out[f"{name}.s"] = (secs, "s")
        out[f"{name}.calls"] = (calls, "count")
    out["local_filters.naive_lenkpf.sites"] = (
        _attr_sum(spans, "local_filters.naive_lenkpf_update", "sites"), "count")
    out["local_filters.naive_lenkpf.sites_resampled"] = (
        _attr_sum(spans, "local_filters.naive_lenkpf_update", "sites_resampled"), "count")
    out["local_filters.block_lenkpf.pinv_fallbacks"] = (
        _attr_sum(spans, "local_filters.block_lenkpf_update", "pinv_fallbacks"), "count")

    for name in ("global_filters.enkf_update", "global_filters.adaptive_gamma",
                 "global_filters.pf_weights", "core.ensemble_moments",
                 "resampling.balanced_resample", "scoring.field_crps",
                 "scoring.write_scores_csv", "experiment.write_ranks_csv"):
        out[f"{name}.s"] = (_total(spans, name)[0], "s")
    out["scoring.write_scores_csv.bytes"] = (
        _attr_sum(spans, "scoring.write_scores_csv", "bytes"), "bytes")

    reps = [s for s in spans if s["name"] == "experiment.run_single_rep"]
    rep_s = [s["end"] - s["start"] for s in reps]
    out["experiment.run_single_rep.median_s"] = (statistics.median(rep_s) if rep_s else 0.0, "s")
    out["experiment.run_single_rep.max_s"] = (max(rep_s, default=0.0), "s")
    out["experiment.failed_method_cycles"] = (
        _attr_sum(spans, "experiment.run_single_rep", "failed_method_cycles"), "count")
    out["experiment.pool.busy_frac"] = (busy_fraction(spans), "fraction")
    out["trace.spans"] = (len(spans), "count")
    return out


def busy_fraction(spans):
    """Repetition time over (wall of the repetition phase x workers).

    The phase is the pool's lifetime when the run used a pool, else the
    interval from the first repetition's start to the last one's end.
    """
    reps = [s for s in spans if s["name"] == "experiment.run_single_rep"]
    if not reps:
        return 0.0
    busy = sum(s["end"] - s["start"] for s in reps)
    pools = [s for s in spans if s["name"] == "experiment.pool"]
    if pools:
        wall = sum(s["end"] - s["start"] for s in pools)
        workers = max(s["attrs"]["processes"] for s in pools)
    else:
        wall = max(s["end"] for s in reps) - min(s["start"] for s in reps)
        workers = 1
    return busy / (wall * workers) if wall > 0 else 0.0
