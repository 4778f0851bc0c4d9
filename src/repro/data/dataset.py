"""Dataset containers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ArrayDataset:
    """A fixed-size supervised dataset held as parallel NumPy arrays.

    ``inputs`` and ``targets`` share their leading (example) axis; batching
    is pure slicing, so iteration allocates only views plus the final batch
    copies the model makes anyway.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.targets):
            raise ValueError(
                f"inputs ({len(self.inputs)}) and targets ({len(self.targets)}) "
                "must have equal length"
            )

    def __len__(self) -> int:
        return len(self.inputs)
