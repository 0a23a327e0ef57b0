"""Helpers shared by the benchmark's workloads."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
from pathlib import Path
from typing import Any, Sequence

#: The checkout root (``perfbench/`` sits directly under it).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Where traced runs write their spans (listed in ``.gitignore``).
OUT_DIR = ROOT / "perfbench" / "out"


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src/``; fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def digest(document: Any) -> str:
    """A short stable hash of a JSON-able document (floats by repr)."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """High-water resident set size, MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def per(amount: float, base: float, scale: float = 1.0) -> float:
    """``amount / base * scale``, 0.0 when there is no base."""
    return amount / base * scale if base else 0.0

