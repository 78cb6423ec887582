"""Phase 1: learn an encoder and one prototype per source class.

The classifier is a zero-bias linear layer, so its weight columns act as
class prototypes in code space. Training couples cross-entropy with a
complement objective that flattens the probability mass over wrong
classes; eta balances the two.
"""

import numpy as np

from protoadapt import (Encoder, PrototypeMatrix, SourcePhaseConfig,
                        SyntheticSpec, generate_synthetic, train_source)

spec = SyntheticSpec(k_s=8, k_t=4, d_x=10, source_per_class=200,
                     target_per_class=100, seed=0)
source, _ = generate_synthetic(spec)

encoder = Encoder(d_x=10, hidden=[64, 64], d_z=32, seed=1)
prototypes = PrototypeMatrix.random(d_z=32, k_s=8, seed=2)

cfg = SourcePhaseConfig(eta=1.5, epochs=60, lr0=0.01, batch_size=32, seed=3)
history = train_source(encoder, prototypes, source, cfg)

print("epoch  loss_ce   loss_comp  source_acc")
for row in history[:: len(history) // 6]:
    print(f"{row.epoch:5d}  {row.loss_ce:8.4f}  {row.loss_comp:9.4f}  {row.source_acc:.4f}")
print(f"final  {history[-1].loss_ce:8.4f}  {history[-1].loss_comp:9.4f}  "
      f"{history[-1].source_acc:.4f}")

# after training the prototypes are frozen and well separated
print(f"\nprototypes frozen: {prototypes.frozen}")
unit = prototypes.weights / np.linalg.norm(prototypes.weights, axis=0)
pairwise = (1.0 - unit.T @ unit)[np.triu_indices(8, k=1)]
print(f"pairwise prototype cosine distance: min {min(pairwise):.3f}, "
      f"mean {np.mean(pairwise):.3f}")
