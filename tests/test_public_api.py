"""The names ``import protoadapt`` exposes, and the README example that
uses them."""

import re
import types
from pathlib import Path

import protoadapt

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "AdaptConfig", "AdaptResult", "adapt",
    "Dataset", "SyntheticSpec", "generate_synthetic", "read_feature_file",
    "write_feature_file",
    "ConfigError", "DataFormatError", "EvaluationUnavailableError", "NumericError",
    "ExperimentConfig", "ModelConfig", "apply_ablation", "evaluate", "load_config",
    "run_ablation", "run_experiment",
    "Encoder", "PrototypeMatrix", "load_checkpoint", "save_checkpoint",
    "SourcePhaseConfig", "train_source",
}


def test_top_level_names_are_the_public_api():
    names = {name for name, value in vars(protoadapt).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


def test_readme_library_quickstart_runs():
    # the example imports from the package root, so it may use only PUBLIC names
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quickstart \(library\)\n\n```python\n(.*?)```", text, re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
