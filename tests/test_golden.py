"""Golden tables: table lookup and argument checks."""

import pytest

from ionmodes import golden


@pytest.mark.parametrize("table", [0, 8])
def test_unknown_table_rejected(table):
    with pytest.raises(ValueError, match="table number must be in 1..7"):
        golden.check_table(table)
