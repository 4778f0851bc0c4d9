"""The engine's environment switches.

``REPRO_FUSED`` and ``REPRO_AMP`` set the process-wide defaults of
:func:`repro.tensor.use_fused` (default on) and :func:`repro.tensor.use_amp`
(default off).  Each is read once, at import, through :func:`env_flag`.
"""

from __future__ import annotations

import os

_OFF = ("", "0", "false", "no")


def env_flag(name: str, default: bool) -> bool:
    """Read the on/off switch ``name`` from the environment.

    Unset means ``default``.  A set value means off when, stripped and
    lower-cased, it is empty, ``0``, ``false`` or ``no``; anything else
    means on.
    """
    value = os.environ.get(name)
    if value is None:
        return default
    return value.strip().lower() not in _OFF
