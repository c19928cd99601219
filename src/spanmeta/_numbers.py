"""Numbers read back from JSON model files."""

from __future__ import annotations

import numpy as np


def finite_floats(values, what: str) -> np.ndarray:
    """Nested lists of numbers as a float array; its shape is the caller's to check.

    Only JSON ints and floats count as numbers: a bool, a numeric string
    or a null is rejected rather than coerced, and so is a ragged list,
    whose rows would be left as list entries.

    Raises:
        ValueError: naming ``what`` if any entry is not a finite number.
    """
    arr = np.array(values, dtype=object)
    if set(map(type, arr.flat)) <= {int, float}:
        try:
            out = arr.astype(float)
        except OverflowError:  # an int beyond the float range
            out = np.array(np.inf)
        if np.isfinite(out).all():
            return out
    raise ValueError(f"{what} must be finite numbers")
