"""The scalar load imbalance factor: one round's loads at a time, in plain Python.

This is the reference the array :func:`diffadvect.metrics.lif` is tested
against, bit for bit.
"""

from __future__ import annotations

import math

from diffadvect.errors import ConfigError


def lif(loads) -> float:
    """Load imbalance factor: max load over mean load.

    Equal to 1 when all loads match. Undefined for all-zero loads; NaN is
    returned as the "not applicable" sentinel for such rounds.
    """
    loads = [float(w) for w in loads]
    if not loads:
        raise ConfigError("lif of an empty load list")
    total = sum(loads)
    if total == 0.0:
        return math.nan
    return max(loads) / (total / len(loads))
