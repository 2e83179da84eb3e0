"""Canonical forms and enumeration of profiles under the symmetry group.

Profiles are quotiented by permuting agents and relabeling outcomes;
`canonicalize` picks a unique orbit representative and `enumerate_profiles`
streams one representative per orbit.  The library needs neither: these
are the brute-force reference that the tests check the scan, the
maximality engine and protocol evaluation against.
"""

import itertools
from typing import Iterator

from worstvote.profiles import Preference, Profile


def _canonical_orders(orders: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Orbit representative of a tuple of raw orders.

    For each pivot agent, relabel outcomes so the pivot's order becomes the
    identity, sort all relabeled orders lexicographically (the identity is
    the global lexicographic minimum, so it leads), and keep the smallest
    resulting tuple across pivots.
    """
    p = len(orders[0])
    best: tuple[tuple[int, ...], ...] | None = None
    for pivot in orders:
        relabel = [0] * (p + 1)
        for new_id, outcome in enumerate(pivot, start=1):
            relabel[outcome] = new_id
        candidate = tuple(sorted(tuple(relabel[a] for a in order) for order in orders))
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    return best


def canonicalize(prof: Profile) -> Profile:
    """Unique representative of the profile's symmetry orbit.

    Two profiles related by permuting agents and/or relabeling outcomes map
    to the same canonical profile.
    """
    orders = tuple(pref.order for pref in prof.prefs)
    best = _canonical_orders(orders)
    return Profile(tuple(Preference(o) for o in best))


def enumerate_profiles(n: int, p: int) -> Iterator[Profile]:
    """Stream every canonical (n, p)-profile exactly once.

    Candidates fix agent 1 to the identity order and take the remaining
    agents as a lexicographically sorted multiset; a candidate is emitted
    only when it equals its own canonical form.
    """
    if n < 1 or p < 2:
        raise ValueError("need n >= 1 and p >= 2")
    perms = sorted(itertools.permutations(range(1, p + 1)))
    identity = perms[0]
    for combo in itertools.combinations_with_replacement(perms, n - 1):
        orders = (identity,) + combo
        if _canonical_orders(orders) == orders:
            yield Profile(tuple(Preference(o) for o in orders))
