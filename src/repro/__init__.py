"""repro — a from-scratch reproduction of
"Large-Batch Training for LSTM and Beyond" (You et al., SC 2019).

Public surface
--------------
* ``repro.tensor``      — reverse-mode autodiff engine on NumPy
* ``repro.nn``          — layers: LSTM, attention, conv/BN
* ``repro.optim``       — SGD/Momentum/Adam/Adadelta/LAMB + LARS,
                          gradient clipping
* ``repro.schedules``   — **LEGW** (the paper's contribution), scaling
                          rules, warmup and decay schedules
* ``repro.data``        — synthetic MNIST/PTB/WMT/ImageNet stand-ins
* ``repro.models``      — the five applications of Table 1
* ``repro.train``       — trainer, metrics (accuracy/BLEU), tuner
* ``repro.parallel``    — simulated data-parallel cluster + cost models
* ``repro.serve``       — inference serving: dynamic batching,
                          checkpoint hot-swap, load generation
* ``repro.analysis``    — local-Lipschitz diagnostics (Figure 3)
* ``repro.adapt``       — online noise-scale estimation + closed-loop
                          adaptive batch-size training
* ``repro.obs``         — observability: span tracing, structured
                          metrics, op-level engine profiling
* ``repro.experiments`` — one driver per table/figure of the paper

Quickstart
----------
>>> from repro.schedules import LEGW
>>> sched = LEGW(base_lr=0.1, base_batch=128, base_warmup_epochs=0.3125,
...              batch=1024, steps_per_epoch=59)
>>> round(sched.peak_lr, 4)          # sqrt-scaled: 0.1 * sqrt(8)
0.2828
>>> sched.warmup_epochs              # linear-epoch: 0.3125 * 8
2.5

See README.md for end-to-end training examples and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro import (
    adapt,
    analysis,
    data,
    models,
    nn,
    obs,
    optim,
    parallel,
    schedules,
    serve,
    tensor,
    train,
    utils,
)
from repro.schedules import LEGW

__version__ = "1.0.0"

__all__ = [
    "adapt",
    "analysis",
    "data",
    "models",
    "nn",
    "obs",
    "optim",
    "parallel",
    "schedules",
    "serve",
    "tensor",
    "train",
    "utils",
    "LEGW",
    "__version__",
]
