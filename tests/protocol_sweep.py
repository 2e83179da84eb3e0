"""Every protocol of the differential sweep against the brute force, and
every protocol of the soundness check against the feasibility scan.

The sweep's grammar runs at n = 2..4, p = 2..7 (918 cases) and, with four
adversaries, at (5,6) (45 cases, about 90 s, most of it the brute force
of the single cover stages).  `tests/test_protocols.py` runs a slice of
each with the Tier-1 tests.  This file does not match pytest's
`test_*.py` pattern, so it runs only when named:

    PYTHONPATH=src python -m pytest -q tests/protocol_sweep.py
"""

import pytest

from tests.test_protocols import _SOUNDNESS, _SWEEP, _SWEEP_N5, _check_against_oracle, _check_soundness


@pytest.mark.parametrize("text, n, p", _SWEEP + _SWEEP_N5, ids=str)
def test_recursion_matches_the_oracle(text, n, p):
    _check_against_oracle(text, n, p)


@pytest.mark.parametrize("text, n, p", _SOUNDNESS, ids=str)
def test_achieved_guarantees_are_feasible(text, n, p):
    _check_soundness(text, n, p)
