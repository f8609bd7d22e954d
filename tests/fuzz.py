"""Hypothesis helpers for the constructor fuzz tests."""

import math

from hypothesis import strategies as st

# each list is either clean (sorted floats in [0, 1]), which makes valid
# inputs likely, or mixes in any float, NaN and the infinities, in any order
CLEAN_FLOAT = st.floats(0.0, 1.0)
FUZZ_FLOAT = CLEAN_FLOAT | st.floats() | st.sampled_from((-0.0, math.nan, math.inf, -math.inf))


def fuzz_list(data, min_size: int, max_size: int) -> list:
    clean = data.draw(st.booleans())
    elements = CLEAN_FLOAT if clean else FUZZ_FLOAT
    xs = data.draw(st.lists(elements, min_size=min_size, max_size=max_size))
    return sorted(xs) if clean or data.draw(st.booleans()) else xs


def mostly(data) -> bool:
    return data.draw(st.integers(0, 3)) > 0
