"""Print the byte oracle of a protoadapt checkout.

For each acceptance-study seed 0-4 this runs ``run_experiment`` on the
study config of ``tests/test_acceptance.py`` and prints the sha256 and the
path of each of the seven artifacts it writes (two feature files, two
metric CSVs, two checkpoints and ``summary.json``). After each checkpoint's
line comes its value line: the sha256 of what that checkout's own
``load_checkpoint`` returns (``theta``, the prototype weights with
``frozen``, and the ensemble), the path and ``values``. After each feature
file's line comes its value line too: the sha256 of what that checkout's
own ``read_feature_file`` returns (the features as ``<f8``, the labels and
the hidden labels). So a change of a file format shows in the byte lines
alone, and the value lines show that the reload is unchanged: 55 lines.
Then it runs ``protoadapt ablate`` once on the seed-0 study config and
prints the hashes of the artifacts of each of the five ablation modes, in
``ABLATION_MODES`` order, the same way: 55 more lines. Then it runs
``protoadapt gen`` on ``GEN_SPEC``, a spec the study config does not
exercise (``k_t`` equal to ``k_s``, ``d_x`` = 1, no rotation, no
translation), and prints the hashes and value lines of both feature files:
4 lines. Then it prints one value line for each of ``ENCODE_SHAPES``, whole-set
passes the study does not run: the sha256 of the ``Encoder.encode`` codes of
a seeded encoder on seeded rows: 3 lines. Last it prints the output of
``protoadapt gradcheck --seed 0``: 126 lines in all.

    python3 tools/byte_oracle.py [CHECKOUT] > oracle.txt

CHECKOUT (default: the checkout holding this script) is the source tree
whose ``src/`` and ``tests/`` are used, so a change is checked against
its parent, exported to another directory, by one ``diff`` of the two
outputs. Paths are printed relative to the run directory, and PDA_SEED is
unset and BLAS held to one thread, so equal bytes print equal lines.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 1, 2, 3, 4)
GEN_SPEC = {"k_s": 5, "k_t": 5, "d_x": 1, "source_per_class": 7, "target_per_class": 9,
            "cluster_std": 0.5, "seed": 11}
# (d_x, hidden, d_z, rows): the benchmark's io_eval encoder on its 5000-row
# target and on one row past a block, and PADA's 2048-wide features
ENCODE_SHAPES = ((64, [64, 64], 32, 5000), (64, [64, 64], 32, 513), (2048, [256], 64, 2817))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("PDA_SEED", None)
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import numpy as np
    from protoadapt.cli import main as cli_main
    from protoadapt.datasets import read_feature_file
    from protoadapt.harness import ABLATION_MODES, load_config, run_experiment
    from protoadapt.model import Encoder, load_checkpoint
    from test_acceptance import study_config_dict

    def print_hashes(out: Path, run_dir: Path) -> None:
        for path in sorted(out.iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(run_dir)}")
            if path.suffix == ".ckpt":
                encoder, prototypes, ensemble = load_checkpoint(path)
                values = hashlib.sha256(encoder.theta.astype("<f8").tobytes())
                values.update(prototypes.weights.astype("<f8").tobytes())
                values.update(b"frozen=%d" % prototypes.frozen)
                if ensemble is not None:
                    values.update(ensemble.astype("<f8").tobytes())
                print(f"{values.hexdigest()}  {path.relative_to(run_dir)} values")
            elif path.suffix == ".features":
                dataset = read_feature_file(path)
                values = hashlib.sha256(dataset.features.astype("<f8").tobytes())
                for labels in (dataset.labels, dataset.hidden_labels):
                    values.update(b"-" if labels is None else labels.astype("<i8").tobytes())
                print(f"{values.hexdigest()}  {path.relative_to(run_dir)} values")

    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        for seed in SEEDS:
            out = run_dir / f"seed{seed}"
            cfg_path = run_dir / f"seed{seed}.json"
            cfg_path.write_text(json.dumps(study_config_dict(out, seed)), encoding="utf-8")
            run_experiment(load_config(cfg_path))
            print_hashes(out, run_dir)
        cfg_path = run_dir / "ablate.json"
        cfg_path.write_text(json.dumps(study_config_dict(run_dir / "ablate", 0)),
                            encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["ablate", "--config", str(cfg_path)])
        if code != 0:
            print(f"ablate exited {code}")
            return code
        for mode in ABLATION_MODES:
            print_hashes(run_dir / "ablate" / mode, run_dir)
        gen = run_dir / "gen"
        gen.mkdir()
        (run_dir / "gen.json").write_text(json.dumps(GEN_SPEC), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["gen", "--spec", str(run_dir / "gen.json"),
                             "--out-source", str(gen / "source.features"),
                             "--out-target", str(gen / "target.features")])
        if code != 0:
            print(f"gen exited {code}")
            return code
        print_hashes(gen, run_dir)
    for d_x, hidden, d_z, rows in ENCODE_SHAPES:
        x = np.random.default_rng(rows).standard_normal((rows, d_x))
        codes = Encoder(d_x, hidden, d_z, seed=0).encode(x)
        digest = hashlib.sha256(codes.astype("<f8").tobytes()).hexdigest()
        widths = "-".join(str(w) for w in (d_x, *hidden, d_z))
        print(f"{digest}  encode {widths} on {rows} rows values")
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli_main(["gradcheck", "--seed", "0"])
    print(text.getvalue(), end="")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
