"""The scan chunk with eagerly built layout masks, the reference that
`feasibility._scan_chunk`'s lazily folded masks are counted against.

`scan_chunk` takes the payload of `feasibility._scan_chunk` and scans the
same systems in the same order, but `add_to_pool` sets a new lottery's bit
in the mask of every layout it meets at once, and a run reads its head's
masks as they are.  Its covers come from `tail_sum_cover`, which sums the
lottery over each tail of each layout, not from the holding masks of
`feasibility._add_to_pool`.  The layouts, the skip rule and the
implementing points come from `worstvote.feasibility`, looked up on each
call, so a test that wraps `_implementing_point` there counts the
requests of both scans.  It imports those `worstvote.feasibility`
internals, and so cannot check the layouts, the run heads, the skip rule or
the implementing points: only the masks, the covers and the pool.
"""

from __future__ import annotations

import math

import worstvote.feasibility as feas


def tail_sum_cover(layouts, ks, mass, scale, caps, cap_den):
    """The bitmask of the `layouts` whose k-tail, for each k of `ks`, puts
    at most ``caps[j] / cap_den`` on ``mass / scale``, each tail summed
    over its outcomes (labels from 1)."""
    bounds = [cap * scale // cap_den for cap in caps]
    sums = {}  # per distinct tail, its mass
    meets = 0
    for i, layout in enumerate(layouts):
        for k, bound in zip(ks, bounds):
            tail = frozenset(layout[:k])
            if tail not in sums:
                sums[tail] = sum(mass[a - 1] for a in tail)
            if sums[tail] > bound:
                break
        else:
            meets |= 1 << i
    return meets


def add_to_pool(masks, covers, mass, scale, caps, cap_den, layouts, ks):
    """Append the bitmask of the layouts whose tail caps ``mass / scale``
    meets to `covers`, and set its bit in each of their masks."""
    meets = tail_sum_cover(layouts, ks, mass, scale, caps, cap_den)
    bit = 1 << len(covers)
    covers.append(meets)
    for i in feas._set_bits(meets):
        masks[i] |= bit


def scan_chunk(payload):
    """`feasibility._scan_chunk` on eagerly built masks."""
    p, n, ks, caps, cap_den, lo, hi, limit, deadline = payload
    built = feas._scan_layouts(p, ks, deadline)
    if built is None:
        return {"status": "time-limit", "checked": 0}
    layouts, _, (fixes, lowers_at, lowered) = built
    count = len(layouts)
    identity = tuple(range(1, p + 1))
    masks = [0] * count
    covers = []
    unions, skips = {}, {}
    checked = 0
    for head, kept in feas._heads(count, n - 1, lo, hi, fixes, lowers_at):
        if feas._expired(deadline):
            return {"status": "time-limit", "checked": checked}
        if kept is None:
            rest = n - 1 - len(head)
            checked += math.comb(count - head[-1] + rest - 1, rest)
            if limit is not None and checked > limit:
                return {"status": "profile-limit", "checked": limit}
            continue
        common = masks[head[0]]
        for i in head[1:]:
            common &= masks[i]
        if common not in unions:
            unions[common] = 0
            for b in feas._set_bits(common):
                unions[common] |= covers[b]
        covered = unions[common]
        if kept:
            if kept not in skips:
                skips[kept] = 0
                for b in feas._set_bits(kept):
                    skips[kept] |= lowered[b]
            covered |= skips[kept]
        j = head[-1]
        stop = count if limit is None else min(count, j + limit - checked)
        if j == stop:
            return {"status": "profile-limit", "checked": checked}
        while True:
            free = ~covered >> j
            miss = min(stop, j + (free & -free).bit_length() - 1)
            checked += miss - j
            if miss == stop:
                break
            checked += 1
            orders = [identity, *(layouts[i] for i in head), layouts[miss]]
            point, certificate = feas._implementing_point(p, ks, caps, cap_den, orders)
            if point is None:
                return {"status": "infeasible", "checked": checked, "orders": orders, "certificate": certificate}
            add_to_pool(masks, covers, *point, caps, cap_den, layouts, ks)
            covered |= covers[-1]
            j = miss + 1
        if stop < count:
            return {"status": "profile-limit", "checked": checked}
    return {"status": "feasible", "checked": checked}
