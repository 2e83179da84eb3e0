"""Every protocol of the differential sweep against the brute force.

`tests/test_protocols.py` runs a slice of this sweep with the Tier-1 tests.
This file does not match pytest's `test_*.py` pattern, so it runs only when
named:

    PYTHONPATH=src python -m pytest -q tests/protocol_sweep.py
"""

import pytest

from tests.test_protocols import _SWEEP, _check_against_oracle


@pytest.mark.parametrize("text, n, p", _SWEEP, ids=str)
def test_recursion_matches_the_oracle(text, n, p):
    _check_against_oracle(text, n, p)
