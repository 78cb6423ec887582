"""Self-tests of the benchmark: span arithmetic, epoch-to-phase
attribution, unchanged artifacts under tracing, absent layers, and every
workload at a tiny size."""

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = t.wrap(inner, "numerics.inner")
    assert t.wrap(outer, "model.outer")() == 2

    totals, roots = tracer.span_totals(t.spans)
    assert totals["model.outer"] == {"calls": 1, "s": 10.0, "self_s": 6.0, "count": 0}
    assert totals["numerics.inner"] == {"calls": 2, "s": 4.0, "self_s": 4.0, "count": 0}
    assert roots == 10.0
    assert [s[3] for s in t.spans] == [-1, 0, 0]

    present = {"model.outer": None, "numerics.inner": None}
    m = tracer.layer_metrics(t.spans, present, window_s=12.0, phases=None)
    assert m["model.self_s"] == 6.0 and m["numerics.self_s"] == 4.0
    assert m["trace.unattributed_s"] == 2.0
    assert m["model.self_s"] + m["numerics.self_s"] + m["trace.unattributed_s"] == m["trace.wall_s"]


def test_check_spans_flags_what_breaks_the_sum():
    spans = [["model.outer", 0.0, 4.0, -1, 0], ["numerics.inner", 1.0, 2.0, 0, 0],
             ["harness.evaluate", 5.0, 6.0, -1, 0]]
    assert tracer.check_spans(spans, window_s=6.0) == []
    assert tracer.check_spans(spans, window_s=5.0) == [
        "root spans do not fit in the traced window"]
    # A child recorded without its parent becomes a root inside another.
    orphan = spans + [["numerics.softmax", 3.0, 3.5, -1, 0]]
    assert tracer.check_spans(orphan, window_s=6.0) == ["root spans overlap"]
    assert tracer.check_spans([["gradcheck.run_suite", 0.0, 1.0, -1, 0]], window_s=1.0) == [
        "span names outside every module: ['gradcheck.run_suite']"]


def _tiny_training(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    return workload, workload.setup(0, tmp_path, tiny=True)


def test_tracing_leaves_artifacts_byte_identical(tmp_path):
    workload, state = _tiny_training(tmp_path, "study")
    plain = workload.run(state, contextlib.nullcontext())
    spans = tracer.Tracer()
    traced = workload.run(state, tracer.Installed(spans))
    assert spans.spans
    assert plain.errors == [] and traced.errors == []
    assert traced.artifacts == plain.artifacts


@pytest.mark.parametrize("name", ["study", "nl_many_class", "long_adapt"])
def test_phase_attribution_matches_config(tmp_path, name):
    workload, state = _tiny_training(tmp_path, name)
    spans = tracer.Tracer()
    workload.run(state, tracer.Installed(spans))
    a = state.cfg.adapt
    split = tracer.phase_split(spans.spans, a.warmup_epochs, a.switch_epoch)
    assert split["warmup_epochs"] == a.warmup_epochs
    assert split["nl_epochs"] == a.switch_epoch - a.warmup_epochs + 1
    assert split["ce_epochs"] == a.epochs - a.switch_epoch - 1
    adapt_s, = (s[2] - s[1] for s in spans.spans if s[0] == "adaptation.adapt")
    assert split["warmup_s"] + split["nl_s"] + split["ce_s"] == pytest.approx(adapt_s)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_completes_at_tiny_size(tmp_path, name, trace):
    m = workloads.measure(name, seed=3, seconds=0, trace=trace, tiny=True, root=tmp_path)
    assert m.failed == 0 and m.attempted == 1 + trace
    wanted = {e["name"] for e in SPEC["per_layer" if trace else "end_to_end"]}
    assert wanted <= set(m.metrics)
    assert m.manifest["seed"] == 3 and m.manifest["config"]
    assert list(tmp_path.iterdir()) == []


def test_renamed_name_is_reported_absent(tmp_path, monkeypatch):
    renamed = [(mod, attr + "_renamed" if attr == "gen_complement_sets" else attr, *rest)
               for mod, attr, *rest in tracer.SITES]
    monkeypatch.setattr(tracer, "SITES", renamed)
    assert tracer.Installed(tracer.Tracer()).absent == ["adaptation.gen_complement_sets"]
    m = workloads.measure("study", seed=0, seconds=0, trace=True, tiny=True, root=tmp_path)
    assert m.failed == 0
    assert "adaptation.gen_complement_sets.calls" not in m.metrics
    assert m.metrics["adaptation.loss_nl.self_s"] > 0


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "study",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
