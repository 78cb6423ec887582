"""The four benchmark workloads and the loop that measures them.

A workload builds its inputs from the seed during set-up, then repeats
one operation: the command a user waits on (``run_experiment`` on a
config, or ``protoadapt gen``), followed by ``protoadapt eval`` of what
it produced. Every operation's outputs are checked after the timed part;
a failed operation is counted and the loop goes on.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import protoadapt
from protoadapt import cli, harness
from protoadapt.datasets import Dataset, generate_synthetic, read_feature_file
from protoadapt.model import load_checkpoint

import tracer

SETUP_REPEATS = 10


def acceptance_config(seed: int) -> dict:
    """The acceptance-study config of tests/test_acceptance.py, copied so
    that editing the tests does not change the benchmark."""
    return {
        "seed": seed,
        "data": {"synthetic": {"k_s": 8, "k_t": 4, "d_x": 10,
                               "source_per_class": 200, "target_per_class": 100,
                               "cluster_std": 1.0,
                               "rotation_angle": math.pi / 6,
                               "translation": [1.0 / math.sqrt(10)] * 10}},
        "model": {"hidden": [64, 64], "d_z": 32},
        "source": {"eta": 1.5, "epochs": 100, "lr0": 0.01, "batch_size": 32},
        "adapt": {"n_a": 10, "n_e": 3, "n_cl": 2, "alpha": 0.5, "beta": 1.5,
                  "epochs": 60, "warmup_epochs": 5, "switch_epoch": 15,
                  "lr0": 0.01, "batch_size": 32},
    }


# The workloads keep their operations at a fifth to a third of a second,
# so that a 30-second run holds 40 to 100 of them; see "Steadiness" in
# README.md.

def study_config(seed: int) -> dict:
    """The acceptance study with source 4 and adapt 5 epochs (1 warmup,
    2 negative-learning, 2 cross-entropy epochs)."""
    cfg = acceptance_config(seed)
    cfg["source"]["epochs"] = 4
    cfg["adapt"].update(epochs=5, warmup_epochs=1, switch_epoch=2)
    return cfg


def nl_many_class_config(seed: int) -> dict:
    """32 source classes, and negative learning in 4 of 5 adapt epochs.
    Five source epochs at five times the learning rate keep the source
    phase short. At the study's cluster spread of 1.0, one seed in five
    adapts to under 96% accuracy and a few to 75-87%, so the spread of
    target_acc over ten seeds reached 0.13; at 0.75 it stayed under 0.06
    in 99% of ten-seed draws from 210 seeds."""
    cfg = acceptance_config(seed)
    cfg["data"]["synthetic"].update(k_s=32, k_t=8, source_per_class=25,
                                    target_per_class=50, cluster_std=0.75)
    cfg["source"].update(epochs=5, lr0=0.05)
    cfg["adapt"].update(epochs=5, warmup_epochs=1, switch_epoch=4, n_cl=8)
    return cfg


def long_adapt_config(seed: int) -> dict:
    """The study's data and model with 4 source epochs and 20 adapt epochs,
    17 of them cross-entropy epochs. The README's example config has
    n_cl=3 and fails at adapt time (n_e*n_cl > K_s-1), so the study's
    n_cl=2 stays."""
    cfg = acceptance_config(seed)
    cfg["source"]["epochs"] = 4
    cfg["adapt"].update(epochs=20, warmup_epochs=1, switch_epoch=2)
    return cfg


def io_spec(seed: int) -> dict:
    """5000 target rows of 64 features: a 3.9 MB target file."""
    return {"k_s": 16, "k_t": 8, "d_x": 64, "source_per_class": 50,
            "target_per_class": 625, "cluster_std": 1.0,
            "rotation_angle": math.pi / 6, "translation": [0.125] * 64,
            "seed": seed}


IO_SOURCE_EPOCHS = 10


def shrink_config(cfg: dict) -> None:
    """Tiny sizes for the self-tests; every adaptation phase still runs."""
    cfg["data"]["synthetic"].update(source_per_class=6, target_per_class=6)
    cfg["source"]["epochs"] = 2
    cfg["adapt"].update(epochs=5, warmup_epochs=1, switch_epoch=2)


@dataclass
class OpRecord:
    """One operation: its timings, the hashes of what it wrote, the
    quality figures of the model it produced, and failed checks."""
    main_s: float
    eval_s: list[float]
    window_s: float
    artifacts: dict[str, str]
    quality: dict[str, float]
    errors: list[str] = field(default_factory=list)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``protoadapt <argv>`` in this process: exit code and printed text."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, text.getvalue()


def timed_cli(argv: list[str], repeats: int, errors: list[str]) -> tuple[list[float], str]:
    """Seconds of each of ``repeats`` runs of a command, and its output.

    A non-zero exit, or output that changes between runs, is an error.
    """
    times, outputs = [], set()
    for _ in range(repeats):
        t0 = time.perf_counter()
        code, text = run_cli(argv)
        times.append(time.perf_counter() - t0)
        outputs.add(text)
        if code != 0:
            errors.append(f"protoadapt {argv[0]} exited with {code}: {text.strip()}")
    if len(outputs) > 1:
        errors.append(f"protoadapt {argv[0]} printed different output on repeats")
    return times, text


def _check_printed_accuracy(text: str, accuracy: float, errors: list[str]) -> None:
    if f"accuracy {accuracy:.6f}" not in text.splitlines():
        errors.append(f"protoadapt eval printed no 'accuracy {accuracy:.6f}'")


def d_tau_frac(csv_path: Path, warmup_epochs: int, n: int) -> float:
    """Mean |D_tau|/n over the post-warmup epochs of an adapt log."""
    with open(csv_path, encoding="utf-8", newline="") as fh:
        sizes = [int(r["|D_tau|"]) for r in csv.DictReader(fh)
                 if int(r["epoch"]) >= warmup_epochs]
    return statistics.fmean(sizes) / n if sizes else 0.0


@dataclass
class TrainingState:
    config_path: Path
    cfg: harness.ExperimentConfig


class Training:
    """``run_experiment`` on a generated config, then ``protoadapt eval``
    of the adapted checkpoint on the target file the run wrote."""

    ARTIFACTS = ("summary.json", "source_metrics.csv", "adapt_metrics.csv",
                 "source.ckpt", "adapted.ckpt")
    # One evaluation of the small target file takes milliseconds; the
    # median of several is steady enough to compare.
    EVAL_REPEATS = 9

    def __init__(self, config):
        self.config = config

    def setup(self, seed: int, workdir: Path, tiny: bool) -> TrainingState:
        raw = self.config(seed)
        if tiny:
            shrink_config(raw)
        raw["out_dir"] = str(workdir / "run")
        path = workdir / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return TrainingState(path, harness.load_config(path))

    def resolved(self, st: TrainingState) -> dict:
        return asdict(st.cfg)

    def phases(self, st: TrainingState) -> tuple[int, int]:
        return st.cfg.adapt.warmup_epochs, st.cfg.adapt.switch_epoch

    def run(self, st: TrainingState, scope) -> OpRecord:
        out = Path(st.cfg.out_dir)
        errors: list[str] = []
        with scope:
            t0 = time.perf_counter()
            harness.run_experiment(harness.load_config(st.config_path))
            main_s = time.perf_counter() - t0
            eval_s, text = timed_cli(["eval", "--ckpt", str(out / "adapted.ckpt"),
                                      "--data", str(out / "target.features")],
                                     self.EVAL_REPEATS, errors)
            window_s = time.perf_counter() - t0

        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        values = [v for phase in ("baseline", "adapted")
                  for v in (summary[phase]["accuracy"],
                            summary[phase]["negative_transfer"],
                            *summary[phase]["per_class"].values())]
        if not all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in values):
            errors.append(f"summary.json holds a value outside [0, 1]: {values}")
        adapted = summary["adapted"]
        _check_printed_accuracy(text, adapted["accuracy"], errors)

        artifacts = {n: _sha256((out / n).read_bytes()) for n in self.ARTIFACTS}
        artifacts["eval output"] = _sha256(text.encode())
        syn = st.cfg.synthetic
        quality = {"target_acc": adapted["accuracy"],
                   "shared_frac": 1.0 - adapted["negative_transfer"],
                   "baseline_acc": summary["baseline"]["accuracy"],
                   "neg_transfer": adapted["negative_transfer"],
                   "d_tau_frac": d_tau_frac(out / "adapt_metrics.csv",
                                            st.cfg.adapt.warmup_epochs,
                                            syn.k_t * syn.target_per_class)}
        return OpRecord(main_s, eval_s, window_s, artifacts, quality, errors)


@dataclass
class IoState:
    spec_path: Path
    cfg: harness.ExperimentConfig
    ckpt_path: Path
    source_path: Path
    target_path: Path
    source: Dataset
    target: Dataset


class IoEval:
    """``protoadapt gen`` of a large target file, then ``protoadapt eval``
    of a checkpoint that ``protoadapt train-source`` made during set-up
    from the same data."""

    def setup(self, seed: int, workdir: Path, tiny: bool) -> IoState:
        spec = io_spec(seed)
        if tiny:
            spec.update(source_per_class=4, target_per_class=8)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        config_path = workdir / "train-source.json"
        config_path.write_text(json.dumps({
            "seed": seed, "out_dir": str(workdir / "train"),
            "data": {"synthetic": spec}, "model": {"hidden": [64, 64], "d_z": 32},
            "source": {"epochs": IO_SOURCE_EPOCHS}}), encoding="utf-8")
        ckpt_path = workdir / "source.ckpt"
        code, text = run_cli(["train-source", "--config", str(config_path),
                              "--out", str(ckpt_path)])
        if code != 0:
            raise RuntimeError(f"protoadapt train-source exited with {code}: {text}")
        cfg = harness.load_config(config_path)
        source, target = generate_synthetic(cfg.synthetic)
        return IoState(spec_path, cfg, ckpt_path, workdir / "source.features",
                       workdir / "target.features", source, target)

    def resolved(self, st: IoState) -> dict:
        return asdict(st.cfg)

    def phases(self, st: IoState) -> None:
        return None

    def run(self, st: IoState, scope) -> OpRecord:
        errors: list[str] = []
        with scope:
            t0 = time.perf_counter()
            (main_s,), gen_text = timed_cli(["gen", "--spec", str(st.spec_path),
                                          "--out-source", str(st.source_path),
                                          "--out-target", str(st.target_path)], 1, errors)
            eval_s, eval_text = timed_cli(["eval", "--ckpt", str(st.ckpt_path),
                                           "--data", str(st.target_path)], 1, errors)
            window_s = time.perf_counter() - t0

        reread = {}
        for path, want in ((st.source_path, st.source), (st.target_path, st.target)):
            got = reread[path] = read_feature_file(path)
            # 9 significant digits are written; one more unit of slack
            # covers the rounding of the decimal string back to binary.
            if not np.all(np.abs(got.features - want.features)
                          <= 1e-8 * np.abs(want.features)):
                errors.append(f"{path.name}: features differ beyond 9 digits")
            for field_name in ("labels", "hidden_labels"):
                a, b = getattr(got, field_name), getattr(want, field_name)
                if (a is None) != (b is None) or (a is not None and not np.array_equal(a, b)):
                    errors.append(f"{path.name}: {field_name} differ")
        encoder, prototypes, _ = load_checkpoint(st.ckpt_path)
        result = harness.evaluate(encoder, prototypes.weights, reread[st.target_path])
        _check_printed_accuracy(eval_text, result.accuracy, errors)

        artifacts = {p.name: _sha256(p.read_bytes()) for p in (st.source_path, st.target_path)}
        artifacts["gen output"] = _sha256(gen_text.encode())
        artifacts["eval output"] = _sha256(eval_text.encode())
        quality = {"target_acc": result.accuracy,
                   "shared_frac": 1.0 - result.negative_transfer,
                   "baseline_acc": result.accuracy,
                   "neg_transfer": result.negative_transfer,
                   "d_tau_frac": 0.0}
        return OpRecord(main_s, eval_s, window_s, artifacts, quality, errors)


WORKLOADS = {
    "study": Training(study_config),
    "nl_many_class": Training(nl_many_class_config),
    "long_adapt": Training(long_adapt_config),
    "io_eval": IoEval(),
}


def fresh_import_s() -> float:
    """Seconds for a new interpreter to start and import the package."""
    env = {**os.environ, "PYTHONPATH": str(Path(protoadapt.__file__).parent.parent)}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import protoadapt.cli"], env=env, check=True)
    return time.perf_counter() - t0


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


@dataclass
class Measurement:
    metrics: dict[str, float]
    attempted: int
    failed: int
    extra: dict[str, float]
    manifest: dict


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, root: Path = Path(".")) -> Measurement:
    """Repeat the workload's operation until ``seconds`` have passed (at
    least once, and once traced when tracing). With tracing, operations
    alternate between untraced and traced, starting untraced.

    A set-up is a fresh interpreter importing the package, then the
    workload building its inputs. The first comes before the operations;
    up to ``SETUP_REPEATS - 1`` more are spread over the run, so that the
    fastest set-up, like the fastest operation, comes from a quiet stretch.
    """
    workload = WORKLOADS[name]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    setup_times: list[float] = []

    def set_up():
        import_s = fresh_import_s()
        t0 = time.perf_counter()
        st = workload.setup(seed, workdir, tiny)
        setup_times.append(import_s + time.perf_counter() - t0)
        return st

    try:
        state = set_up()
        spans = tracer.Tracer()
        installed = tracer.Installed(spans)
        done: dict[bool, list[OpRecord]] = {False: [], True: []}
        layers = []
        attempted = failed = 0
        reference = None
        # Start no operation that would end past ``seconds`` if it took as
        # long as the one before it.
        start = op_start = time.perf_counter()
        while attempted < 1 + trace or 2 * time.perf_counter() - start - op_start < seconds:
            op_start = time.perf_counter()
            if (len(setup_times) < SETUP_REPEATS
                    and op_start - start >= len(setup_times) * seconds / SETUP_REPEATS):
                state = set_up()
            traced = trace and attempted % 2 == 1
            spans.reset()
            attempted += 1
            try:
                rec = workload.run(state, installed if traced else contextlib.nullcontext())
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            if reference is not None and rec.artifacts != reference:
                rec.errors.append("outputs differ from the first operation's")
            if traced:
                m = tracer.layer_metrics(spans.spans, installed.present,
                                         rec.window_s, workload.phases(state))
                rec.errors += tracer.check_spans(spans.spans, rec.window_s)
            if rec.errors:
                failed += 1
                print(f"{name}: operation {attempted} failed: {rec.errors}", file=sys.stderr)
                continue
            reference = reference or rec.artifacts
            done[traced].append(rec)
            if traced:
                layers.append(m)

        resolved = workload.resolved(state)
    finally:
        shutil.rmtree(workdir)

    ok = done[False] + done[True]
    metrics: dict[str, float] = {}
    extra: dict[str, float] = {"fail_frac": failed / attempted}
    if ok:
        extra.update(baseline_acc=ok[0].quality["baseline_acc"],
                     neg_transfer=ok[0].quality["neg_transfer"])
    if not trace and ok:
        walls = [r.main_s for r in ok]
        evals = [t for r in ok for t in r.eval_s]
        # The fastest run of each is what the code costs while the host is
        # quiet; see "Steadiness" in README.md.
        metrics = {"wall_s": min(walls),
                   "cli_eval_s": min(evals),
                   "setup_s": min(setup_times),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   "target_acc": ok[0].quality["target_acc"],
                   "shared_frac": ok[0].quality["shared_frac"]}
        extra.update(setup_s_median=statistics.median(setup_times),
                     ops=len(ok), wall_s_median=statistics.median(walls),
                     cli_eval_runs=len(evals), cli_eval_s_median=statistics.median(evals))
    if trace and layers and done[False]:
        metrics = tracer.mean_metrics(layers)
        metrics["trace.overhead_frac"] = (
            statistics.median(r.window_s for r in done[True])
            / statistics.median(r.window_s for r in done[False]) - 1.0)
        metrics["adaptation.d_tau_frac"] = ok[0].quality["d_tau_frac"]
        extra["traced_ops"] = len(layers)

    manifest = {"workload": name, "seed": seed, "trace": int(trace),
                "python": platform.python_version(), "numpy": np.__version__,
                "blas": blas_info(), "nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                "setup_repeats": SETUP_REPEATS, "config": resolved}
    return Measurement(metrics, attempted, failed, extra, manifest)

