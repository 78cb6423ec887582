"""Print the byte oracle of a protoadapt checkout.

For each acceptance-study seed 0-4 this runs ``run_experiment`` on the
study config of ``tests/test_acceptance.py`` and prints the sha256 and the
path of each of the seven artifacts it writes (two feature files, two
metric CSVs, two checkpoints and ``summary.json``): 35 lines. Then it runs
``protoadapt ablate`` once on the seed-0 study config and prints the
hashes of the artifacts of each of the five ablation modes, in
``ABLATION_MODES`` order, the same way: 35 more lines. Last it prints the
output of ``protoadapt gradcheck --seed 0``.

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


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("PDA_SEED", None)
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from protoadapt.cli import main as cli_main
    from protoadapt.harness import ABLATION_MODES, load_config, run_experiment
    from test_acceptance import study_config_dict

    def print_hashes(out: Path, run_dir: Path) -> None:
        for path in sorted(out.iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(run_dir)}")

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
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli_main(["gradcheck", "--seed", "0"])
    print(text.getvalue(), end="")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
