import math
from sys import float_info

import pytest

from qcrack.errors import check_int, check_real


@pytest.mark.parametrize("value,ok", [
    (True, False), (False, False), (1.0, False), (2.5, False), ("3", False),
    (None, False), (0, False), (-4, False), (1, True), (7, True),
])
def test_check_int(value, ok):
    """An int that is not a bool and is >= low passes; anything else is a
    ValueError naming the value."""
    if ok:
        check_int("count", value, 1)
    else:
        with pytest.raises(ValueError, match="count must be an integer >= 1"):
            check_int("count", value, 1)


def test_check_int_upper_bound():
    check_int("count", 5, 1, 5)
    with pytest.raises(ValueError,
                       match=r"count must be an integer in \[1, 5\]"):
        check_int("count", 6, 1, 5)


@pytest.mark.parametrize("value,ok", [
    (True, False), (False, False), ("0.5", False), (None, False),
    (math.nan, False), (math.inf, False), (-math.inf, False),
    (-0.5, False), (2.5, False), (0, True), (2, True), (0.5, True),
    (1.25, True),
])
def test_check_real(value, ok):
    """A finite int or float, not a bool, in [low, high] passes, both bounds
    included; anything else is a ValueError naming the value."""
    if ok:
        check_real("ratio", value, 0, 2)
    else:
        with pytest.raises(ValueError, match=r"ratio must be a finite number"):
            check_real("ratio", value, 0, 2)


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400, 2 ** 1024],
                         ids=["10**400", "-10**400", "2**1024"])
def test_check_real_int_beyond_float(value):
    """An int that does not convert to a float is not a finite number."""
    with pytest.raises(ValueError, match="x must be a finite number"):
        check_real("x", value, -math.inf)
    check_real("x", int(float_info.max), -math.inf)
