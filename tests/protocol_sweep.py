"""Every protocol of the differential sweep against the brute force of
`tests/protocol_oracle.py`, the neutrality sweep, every protocol of the
soundness check against the feasibility scan, and the cover premise at
the larger sizes against the canonical profiles.

The sweep's grammar runs at n = 2..4, p = 2..7 (1,058 cases, about 50 s,
140 of them with a cover round inside a continuation) and, with four
adversaries, at (5,6) (46 cases, about 35 s, most of it the brute force
of the single cover stages).  The neutrality sweep runs the brute force
for agent 1 on every order of the 441 protocols of at most two stages at
p <= 5 (about 40 s).  The soundness check takes the 376 protocols of at
most two stages at (3,4)...(4,7) and every single cover stage at (2,5),
(3,4)...(3,6) and (4,5)...(4,7) (286 stages, 214 of which can be played;
about 20 s in all, 8 s of it the three cover continuations at (4,7) whose
scans take about 3 s each).  The premise runs every cover stage at (3,6)
and (4,5) (82 stages, about 35 s, a third of it enumerating the canonical
profiles).  Every canonical word's protocol is evaluated against the
word's formula, its dictator rounds' weights too, at n = 3..6 and
p = 15..19 (about 20 s).  All of it takes about 200 s on a 2-core VM with
Python 3.11.7.  `tests/test_protocols.py` runs a slice of each sweep, the
premise at (3,4), (4,4) and (3,5), and the word protocols at
3 <= n < p <= 14 with the Tier-1 tests.  This file does not match
pytest's `test_*.py` pattern, so it runs only when named:

    PYTHONPATH=src python -m pytest -q tests/protocol_sweep.py
"""

import pytest

from tests.test_protocols import (
    _COVER_SOUNDNESS,
    _NEUTRALITY,
    _PREMISE_SWEEP,
    _SOUNDNESS,
    _SWEEP,
    _SWEEP_N5,
    _check_against_oracle,
    _check_cover_premise,
    _check_neutrality,
    _check_soundness,
    _check_word_protocols,
)


@pytest.mark.parametrize("text, n, p", _SWEEP + _SWEEP_N5, ids=str)
def test_recursion_matches_the_oracle(text, n, p):
    _check_against_oracle(text, n, p)


@pytest.mark.parametrize("text, n, p", _NEUTRALITY, ids=str)
def test_every_order_of_agent_one_gets_the_same_guarantee(text, n, p):
    _check_neutrality(text, n, p)


@pytest.mark.parametrize("text, n, p", list(dict.fromkeys(_SOUNDNESS + _COVER_SOUNDNESS)), ids=str)
def test_achieved_guarantees_are_feasible(text, n, p):
    _check_soundness(text, n, p)


@pytest.mark.parametrize("text, n, p", _PREMISE_SWEEP, ids=str)
def test_evaluation_decides_the_cover_premise(text, n, p):
    _check_cover_premise(text, n, p)


@pytest.mark.parametrize("n, p", [(n, p) for n in range(3, 7) for p in range(15, 20)], ids=str)
def test_word_protocols_achieve_their_formulas(n, p):
    _check_word_protocols(n, p)
