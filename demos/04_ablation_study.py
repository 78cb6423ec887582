"""Switch off one component at a time and compare target accuracy.

  no_EL    single target classifier instead of the ensemble
  no_TSCS  geometry/supervision terms see all target samples, not just
           the confident subset
  no_CLS   one shared single-element complementary set for all members
  no_DO    both class-geometry coefficients set to zero

All five modes adapt from one trained source model: they differ only in
the adaptation phase.
"""

import json
import math
from pathlib import Path

from protoadapt import load_config, run_ablation

# a fairly severe shift, so the components have visible work to do
config = {
    "seed": 1,
    "out_dir": "runs/ablation",
    "data": {"synthetic": {"k_s": 8, "k_t": 4, "d_x": 10,
                           "source_per_class": 120, "target_per_class": 60,
                           "cluster_std": 1.6,
                           "rotation_angle": math.pi / 2.5,
                           "translation": [2.0 / math.sqrt(10)] * 10}},
    "model": {"hidden": [64, 64], "d_z": 32},
    "source": {"eta": 1.5, "epochs": 60, "lr0": 0.01, "batch_size": 32},
    "adapt": {"n_a": 10, "n_e": 3, "n_cl": 2, "alpha": 0.5, "beta": 1.5,
              "epochs": 40, "warmup_epochs": 5, "switch_epoch": 15,
              "lr0": 0.01, "batch_size": 32},
}
Path("runs").mkdir(exist_ok=True)
Path("runs/ablation.json").write_text(json.dumps(config, indent=2))

print("mode      baseline  adapted   neg.transfer")
for mode, summary in run_ablation(load_config("runs/ablation.json")).items():
    print(f"{mode:<8}  {summary['baseline']['accuracy']:.4f}    "
          f"{summary['adapted']['accuracy']:.4f}    "
          f"{summary['adapted']['negative_transfer']:.4f}")

print("\nhow much each component matters depends on shift severity; on mild"
      "\nshifts the pseudo-labels are clean enough that every variant wins.")
