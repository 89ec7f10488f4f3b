import pytest

from qcrack.errors import check_int


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
