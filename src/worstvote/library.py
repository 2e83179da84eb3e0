"""Structured profiles that make good counterexample candidates.

Infeasible guarantees and non-maximal candidates are almost always refuted
by a profile with strong combinatorial structure: everyone agreeing, two
agents exactly opposed, cyclic shifts, tails tiling the outcome set, or a
small core profile padded outward one composition round at a time.  This
module generates those families; searches consult them before falling back
to exhaustive enumeration.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

from .profiles import (
    Preference,
    Profile,
    cyclic_pad_profile,
    cyclic_profile,
    cyclic_top_pad_profile,
    identical_profile,
    identity_preference,
    reversal_profile,
)


def block_profile(n: int, p: int, blocks: Sequence[frozenset[int]], *, top: bool) -> Profile:
    """Agents 1..len(blocks) get the given sets as their best outcomes
    (`top`) or their worst, in label order, and the other outcomes in label
    order; the other agents get the identity order."""
    if len(blocks) > n:
        raise ValueError("more blocks than agents")
    prefs = []
    for block in blocks:
        ordered = sorted(block)
        rest = [a for a in range(1, p + 1) if a not in block]
        prefs.append(Preference(tuple(rest + ordered if top else ordered + rest)))
    prefs += [identity_preference(p)] * (n - len(blocks))
    return Profile(tuple(prefs))


def tiling_profile(n: int, p: int, k: int) -> Profile | None:
    """A profile whose first ceil(p/k) agents have k-tails covering 1..p."""
    if not 1 <= k <= p - 1:
        return None
    m = -(-p // k)
    if m > n:
        return None
    starts = [min(i * k, p - k) for i in range(m)]
    return block_profile(n, p, [frozenset(range(lo + 1, lo + k + 1)) for lo in starts], top=False)


def _base_profiles(n: int, p: int) -> list[Profile]:
    out = [identical_profile(n, p)]
    if p >= 2:
        out.append(cyclic_profile(n, p))
        if n >= 2:
            out.append(reversal_profile(n, p))
    return out


def padded_profiles(n: int, p: int) -> list[Profile]:
    """All ways of padding a small base profile out to p outcomes.

    Each padding round adds n outcomes either at the extremes favouring a
    veto round (dedicated worst outcome per agent) or favouring a dictator
    round (dedicated best outcome per agent); the bases are the structured
    profiles on p - h*n outcomes.
    """
    out: list[Profile] = []
    max_rounds = (p - 1) // n
    for rounds in range(0, max_rounds + 1):
        base_p = p - rounds * n  # at least 1, as rounds <= (p - 1) // n
        if base_p == 1:
            bases = [Profile((Preference((1,)),) * n)]
        else:
            bases = _base_profiles(n, base_p)
        for pads in itertools.product((cyclic_pad_profile, cyclic_top_pad_profile), repeat=rounds):
            for base in bases:
                prof = base
                for pad in reversed(pads):
                    prof = pad(prof)  # each pad adds n outcomes, so prof.p == p
                out.append(prof)
    return out


@functools.lru_cache(maxsize=32)
def hard_profiles(n: int, p: int) -> tuple[Profile, ...]:
    """Deduplicated seed list for witness searches at (n, p), built once
    per (n, p)."""
    seen: set[tuple[tuple[int, ...], ...]] = set()
    out: list[Profile] = []
    candidates = padded_profiles(n, p)
    for k in range(1, p):
        prof = tiling_profile(n, p, k)
        if prof is not None:
            candidates.append(prof)
    for prof in candidates:
        key = tuple(pref.order for pref in prof.prefs)
        if key not in seen:
            seen.add(key)
            out.append(prof)
    return tuple(out)
