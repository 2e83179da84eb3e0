"""Every protocol of the differential sweep against the brute force, and
every protocol of the soundness check against the feasibility scan.

`tests/test_protocols.py` runs a slice of each with the Tier-1 tests.
This file does not match pytest's `test_*.py` pattern, so it runs only when
named:

    PYTHONPATH=src python -m pytest -q tests/protocol_sweep.py
"""

import pytest

from tests.test_protocols import _SOUNDNESS, _SWEEP, _check_against_oracle, _check_soundness


@pytest.mark.parametrize("text, n, p", _SWEEP, ids=str)
def test_recursion_matches_the_oracle(text, n, p):
    _check_against_oracle(text, n, p)


@pytest.mark.parametrize("text, n, p", _SOUNDNESS, ids=str)
def test_achieved_guarantees_are_feasible(text, n, p):
    _check_soundness(text, n, p)
