"""repro.adapt — closed-loop adaptive batch-size training.

The paper's LEGW recipe makes any *chosen* batch size trainable; this
package chooses the batch size from measurement.  An
:class:`OnlineNoiseScale` estimates the gradient noise scale while
training runs (harvesting per-shard gradients from a data-parallel
cluster for free, or paired micro-batch probes when serial), a
:class:`BatchSizeController` grows the batch toward the measured
critical batch, and :class:`AdaptiveBatchTrainer` enacts each growth
under the LEGW invariant — sqrt-LR rescale plus linear-epoch re-warmup —
with full checkpoint coverage so resumed runs reproduce the batch
trajectory bit-exactly.
"""

from repro.adapt.controller import BatchSizeController
from repro.adapt.estimator import OnlineNoiseScale, probe_batch_fn
from repro.adapt.trainer import AdaptiveBatchTrainer, AdaptiveLRSchedule
from repro.analysis.noise_scale import two_batch_elimination

__all__ = [
    "AdaptiveBatchTrainer",
    "AdaptiveLRSchedule",
    "BatchSizeController",
    "OnlineNoiseScale",
    "probe_batch_fn",
    "two_batch_elimination",
]
