"""Outside-in span tracing of the protoadapt package.

The package is never edited. While a traced operation runs, each public
name in ``SITES`` is swapped for a wrapper that records a span (name,
start, end, parent span, and an optional count), and the originals are
put back afterwards. Modules bind each other's functions with
``from .x import y``, so a function is wrapped in every module that
calls it, all under one span name. A site whose name no longer exists is
skipped, and the metrics of a span name with no site left are reported
as absent rather than stopping the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time

PACKAGE = "protoadapt"
MODULES = ("datasets", "model", "source_trainer", "adaptation", "harness",
           "csvlog", "cli", "numerics")
# cli.main spans are named per command; these are the commands the
# workloads run.
CLI_COMMANDS = ("gen", "eval")


def _rows(args):
    return args[1].shape[0]


def _path_bytes(i):
    return lambda args: os.path.getsize(args[i])


def _epoch(args):
    return args[0]


def _cli_command(args):
    return f"cli.main.{args[0][0]}"


# (module, attribute, span name, count name, count function)
SITES = [
    ("harness", "generate_synthetic", "datasets.generate_synthetic", None, None),
    ("cli", "generate_synthetic", "datasets.generate_synthetic", None, None),
    ("harness", "write_feature_file", "datasets.write_feature_file", "bytes", _path_bytes(1)),
    ("cli", "write_feature_file", "datasets.write_feature_file", "bytes", _path_bytes(1)),
    ("harness", "read_feature_file", "datasets.read_feature_file", "bytes", _path_bytes(0)),
    ("cli", "read_feature_file", "datasets.read_feature_file", "bytes", _path_bytes(0)),
    ("source_trainer", "epoch_batches", "datasets.epoch_batches", None, None),
    ("adaptation", "epoch_batches", "datasets.epoch_batches", None, None),

    ("model", "Encoder.forward", "model.Encoder.forward", "rows", _rows),
    ("model", "Encoder.backward", "model.Encoder.backward", None, None),
    ("source_trainer", "classify", "model.classify", None, None),
    ("adaptation", "classify", "model.classify", None, None),
    ("harness", "classify", "model.classify", None, None),
    ("source_trainer", "classify_backward", "model.classify_backward", None, None),
    ("adaptation", "classify_backward", "model.classify_backward", None, None),
    # PrototypeMatrix.step calls the model module's own binding.
    ("model", "apply_sgd_momentum", "model.apply_sgd_momentum", None, None),
    ("source_trainer", "apply_sgd_momentum", "model.apply_sgd_momentum", None, None),
    ("adaptation", "apply_sgd_momentum", "model.apply_sgd_momentum", None, None),
    # adapt() calls lr_schedule(epoch, ...) first thing in every epoch, so
    # these spans mark the epoch boundaries for the phase split.
    ("adaptation", "lr_schedule", "model.lr_schedule", "epoch", _epoch),
    ("harness", "save_checkpoint", "model.save_checkpoint", "bytes", _path_bytes(0)),
    ("cli", "save_checkpoint", "model.save_checkpoint", "bytes", _path_bytes(0)),
    ("cli", "load_checkpoint", "model.load_checkpoint", None, None),

    ("harness", "train_source", "source_trainer.train_source", None, None),
    ("cli", "train_source", "source_trainer.train_source", None, None),
    ("source_trainer", "loss_ce", "source_trainer.loss_ce", None, None),
    ("source_trainer", "loss_comp", "source_trainer.loss_comp", None, None),

    ("harness", "adapt", "adaptation.adapt", None, None),
    ("cli", "adapt", "adaptation.adapt", None, None),
    ("adaptation", "gen_complement_sets", "adaptation.gen_complement_sets", None, None),
    ("adaptation", "loss_align", "adaptation.loss_align", None, None),
    ("adaptation", "loss_nl", "adaptation.loss_nl", None, None),
    ("adaptation", "loss_ce", "adaptation.loss_ce", None, None),
    ("adaptation", "loss_inter", "adaptation.loss_inter", None, None),
    ("adaptation", "loss_intra", "adaptation.loss_intra", None, None),
    ("adaptation", "update_pseudo_labels", "adaptation.update_pseudo_labels", None, None),
    ("adaptation", "build_confident_subset", "adaptation.build_confident_subset", None, None),

    ("harness", "load_config", "harness.load_config", None, None),
    ("cli", "load_config", "harness.load_config", None, None),
    ("harness", "load_experiment_data", "harness.load_experiment_data", None, None),
    # run_experiment's per-epoch hook looks evaluate up at call time.
    ("harness", "evaluate", "harness.evaluate", None, None),
    ("cli", "evaluate", "harness.evaluate", None, None),
    ("harness", "run_experiment", "harness.run_experiment", None, None),
    ("cli", "run_experiment", "harness.run_experiment", None, None),

    ("csvlog", "start", "csvlog.start", None, None),
    ("csvlog", "append", "csvlog.append", None, None),

    ("cli", "main", _cli_command, None, None),

    ("model", "softmax", "numerics.softmax", None, None),
    ("adaptation", "softmax", "numerics.softmax", None, None),
]


def _site_names(name) -> list[str]:
    if callable(name):
        return [f"cli.main.{c}" for c in CLI_COMMANDS]
    return [name]


class Tracer:
    """In-memory span recorder. A span is ``[name, start, end, parent,
    count]``; ``parent`` is the index of the enclosing span or -1."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self._open = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), 0.0, parent, 0])
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._open.pop()

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                try:
                    self.spans[idx][4] = count(args)
                except (IndexError, AttributeError, TypeError, OSError):
                    pass  # a changed signature loses the count, not the run
            return result
        return traced


class Installed:
    """Context manager that swaps every present site for its traced
    wrapper and restores the originals on exit.

    ``present`` maps each span name that has at least one site to its
    count name; ``absent`` lists the span names with none.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches = []
        self.present: dict[str, str | None] = {}
        for module_name, attr, name, count_name, count in SITES:
            owner = _resolve_owner(module_name, attr)
            leaf = attr.rsplit(".", 1)[-1]
            if owner is None or not callable(getattr(owner, leaf, None)):
                continue
            self._patches.append((owner, leaf, getattr(owner, leaf), name, count))
            for n in _site_names(name):
                self.present[n] = count_name
        every = {n for site in SITES for n in _site_names(site[2])}
        self.absent = sorted(every - set(self.present))

    def __enter__(self):
        for owner, leaf, original, name, count in self._patches:
            setattr(owner, leaf, self.tracer.wrap(original, name, count))
        return self

    def __exit__(self, *exc):
        for owner, leaf, original, _, _ in reversed(self._patches):
            setattr(owner, leaf, original)
        return False


def _resolve_owner(module_name, attr):
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def span_totals(spans: list[list]) -> tuple[dict[str, dict], float]:
    """Per span name: calls, total seconds, self seconds and summed count;
    plus the summed duration of the root spans.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of all spans add up to the root total.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict] = {}
    roots = 0.0
    for i, (name, start, end, parent, count) in enumerate(spans):
        dur = end - start
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        t["calls"] += 1
        t["s"] += dur
        t["self_s"] += dur - child[i]
        t["count"] += count
        if parent < 0:
            roots += dur
    return totals, roots


def check_spans(spans: list[list], window_s: float) -> list[str]:
    """What keeps the module self times plus ``trace.unattributed_s`` from
    adding up to the traced wall time: a span name outside every module
    in ``MODULES``, or root spans that overlap each other or do not fit in
    the ``window_s`` they were recorded in."""
    errors = []
    stray = sorted({s[0] for s in spans if s[0].split(".", 1)[0] not in MODULES})
    if stray:
        errors.append(f"span names outside every module: {stray}")
    roots = sorted((s[1], s[2]) for s in spans if s[3] < 0)
    if any(later[0] < earlier[1] for earlier, later in zip(roots, roots[1:])):
        errors.append("root spans overlap")
    if roots and roots[-1][1] - roots[0][0] > window_s:
        errors.append("root spans do not fit in the traced window")
    return errors


def phase_split(spans: list[list], warmup_epochs: int, switch_epoch: int) -> dict:
    """Seconds and epoch counts of adapt()'s warmup, NL and CE phases.

    Epoch e runs from its lr_schedule marker to the next marker, the last
    one to the end of adapt(); the set-up before the first marker goes to
    the first epoch's phase. Epoch e is warmup below ``warmup_epochs``,
    negative learning up to and including ``switch_epoch``, and
    cross-entropy after it, as in adapt().
    """
    out = {"warmup_s": 0.0, "nl_s": 0.0, "ce_s": 0.0,
           "warmup_epochs": 0, "nl_epochs": 0, "ce_epochs": 0}
    for a, span in enumerate(spans):
        if span[0] != "adaptation.adapt":
            continue
        marks = [(s[4], s[1]) for s in spans if s[0] == "model.lr_schedule" and s[3] == a]
        for k, (epoch, start) in enumerate(marks):
            begin = span[1] if k == 0 else start
            end = marks[k + 1][1] if k + 1 < len(marks) else span[2]
            if epoch < warmup_epochs:
                phase = "warmup"
            elif epoch <= switch_epoch:
                phase = "nl"
            else:
                phase = "ce"
            out[f"{phase}_s"] += end - begin
            out[f"{phase}_epochs"] += 1
    return out


def layer_metrics(spans: list[list], present: dict[str, str | None],
                  window_s: float, phases: tuple[int, int] | None) -> dict[str, float]:
    """Every per-layer metric the spans of one traced window give.

    ``window_s`` is the traced wall time; ``trace.unattributed_s`` is the
    part of it no root span covers, so the module self times plus it add
    up to ``trace.wall_s``. ``phases`` is (warmup_epochs, switch_epoch)
    for a workload that adapts.
    """
    totals, roots = span_totals(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0}
    m: dict[str, float] = {}
    for name, count_name in present.items():
        t = totals.get(name, zero)
        m[f"{name}.calls"] = t["calls"]
        m[f"{name}.s"] = t["s"]
        m[f"{name}.self_s"] = t["self_s"]
        if count_name:
            m[f"{name}.{count_name}"] = t["count"]
    for module in MODULES:
        names = [n for n in present if n.startswith(module + ".")]
        if names:
            m[f"{module}.self_s"] = sum(totals.get(n, zero)["self_s"] for n in names)
    if "source_trainer.loss_ce" in present:
        m["source_trainer.steps"] = m["source_trainer.loss_ce.calls"]
    if "adaptation.adapt" in present and "model.lr_schedule" in present:
        split = phase_split(spans, *phases) if phases else {}
        for phase in ("warmup", "nl", "ce"):
            m[f"adaptation.{phase}_s"] = split.get(f"{phase}_s", 0.0)
    m["trace.wall_s"] = window_s
    m["trace.unattributed_s"] = window_s - roots
    return m


def mean_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric mean over traced operations; sums stay additive."""
    return {k: statistics.fmean(r[k] for r in runs) for k in runs[0]}
