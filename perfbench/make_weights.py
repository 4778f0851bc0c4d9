"""Regenerate the fixed GNMT weights that the serve-gnmt workload serves.

    PYTHONPATH=src python3 perfbench/make_weights.py

The serve workload must measure the serving stack against weights that do
not depend on the commit under test, so the trained parameters are kept
with the benchmark in ``gnmt_serve.npz`` (a plain ``state_dict`` archive,
not the repository's checkpoint format, so a change to that format cannot
break the benchmark).  Run this only when the GNMT architecture changes;
the file it writes becomes the new baseline for serving comparisons.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.experiments.common import gnmt_workload

OUT = pathlib.Path(__file__).with_name("gnmt_serve.npz")
BATCH, EPOCHS, SEED = 16, 12, 0


def main() -> None:
    wl = gnmt_workload("smoke")
    built = []
    make_model = wl.make_model

    def capture(seed):
        model = make_model(seed)
        built.append(model)
        return model

    wl.make_model = capture
    result = wl.run(BATCH, wl.legw_schedule(BATCH, EPOCHS), seed=SEED, epochs=EPOCHS)
    bleu = result.metric("bleu")
    if result.diverged or bleu is None or bleu < 40.0:
        raise SystemExit(f"training did not converge (bleu={bleu})")
    np.savez_compressed(OUT, **built[0].state_dict())
    print(f"wrote {OUT} (greedy BLEU {bleu:.2f} after {EPOCHS} epochs)")


if __name__ == "__main__":
    main()
