"""Shared helpers for the benchmark suite.

Each bench regenerates one table/figure of the paper via its experiment
driver, saves the rendered text to ``benchmarks/results/`` (so the
artifacts survive pytest's output capture), and asserts the *shape* of the
result — who wins, roughly by what factor — never absolute numbers.

``REPRO_BENCH_SMOKE=1`` (the CI ``bench-smoke`` job) runs the benches that
read :data:`SMOKE` on short budgets without their timing gates; a smoke
run prints its results but writes no artifact.
"""

from __future__ import annotations

import json
import math
import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def save_result(name: str, text: str) -> None:
    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def merge_bench_json(path: pathlib.Path, update: dict) -> None:
    """Fold ``update`` into the JSON file at ``path``, keeping other sections.

    Several benches (or several tests of one bench) write one file; a
    plain ``write_text`` from either would clobber the other's numbers.
    """
    existing: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except json.JSONDecodeError:
            existing = {}
    existing.update(update)
    path.write_text(json.dumps(existing, indent=2) + "\n")


def better(a: float, b: float, mode: str, margin: float = 0.0) -> bool:
    """Is score ``a`` better than ``b`` by at least ``margin`` (mode-aware)?

    NaN scores (diverged runs) always lose.
    """
    if math.isnan(a):
        return False
    if math.isnan(b):
        return True
    return a >= b + margin if mode == "max" else a <= b - margin
