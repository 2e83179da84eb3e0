"""Composition operators that prepend a veto or dictator round to a guarantee.

``vt_compose`` wraps a guarantee on p ranks into p+n ranks by reserving the
worst rank (everyone can dodge one outcome) and the top n-1 ranks.
``rd_compose`` is its dual twin: it spreads mass on the worst n-1 ranks and
the best rank.  Iterating the two operators over a word in {VT, RD} yields
the canonical guarantees, which are uniform on their support and pair up
under duality by swapping the letters of the word.
"""

from __future__ import annotations

import itertools

from .lottery import RankLottery, ZERO, dual, uniform

VT = "VT"
RD = "RD"
_LETTERS = (VT, RD)


def vt_compose(lam: RankLottery, n: int) -> RankLottery:
    """Insert `lam` between one zero rank below and n-1 zero ranks above."""
    if n < 2:
        raise ValueError("composition needs n >= 2")
    return RankLottery((ZERO,) + lam.probs + (ZERO,) * (n - 1))


def rd_compose(lam: RankLottery, n: int) -> RankLottery:
    """Fill the worst n-1 ranks and the best rank, squeezing `lam` between.

    Boundary lotteries (some zero coordinate) use the direct filling rule;
    interior ones go through the duality identity, which agrees with the
    direct rule whenever both apply.
    """
    if n < 2:
        raise ValueError("composition needs n >= 2")
    if lam.is_boundary():
        top = lam.max_coordinate()
        denom = n * top + 1
        edge = top / denom
        middle = tuple(x / denom for x in lam.probs)
        return RankLottery((edge,) * (n - 1) + middle + (edge,))
    return dual(vt_compose(dual(lam), n))


def parse_word(text: str) -> tuple[str, ...]:
    letters = tuple(tok.strip().upper() for tok in text.split(","))
    if any(letter not in _LETTERS for letter in letters):
        raise ValueError(f"cannot parse word {text!r}; letters must be VT or RD")
    return letters


def canonical_word(word: tuple[str, ...] | str, n: int, p: int) -> RankLottery:
    """The guarantee named by a word over {VT, RD} at context (n, p).

    Words have length 1..floor((p-1)/n).  The word folds inward-out: its
    innermost letter composes over the uniform lottery on p - h * n
    outcomes (h = word length), and each outer letter adds n outcomes.
    """
    if isinstance(word, str):
        word = parse_word(word)
    if not 3 <= n < p:
        raise ValueError("canonical guarantees need 3 <= n < p")
    if any(letter not in _LETTERS for letter in word):
        raise ValueError(f"word letters must be in {_LETTERS}")
    depth = (p - 1) // n
    if not 1 <= len(word) <= depth:
        raise ValueError(f"word length must be between 1 and {depth} at (n={n}, p={p})")
    lam = uniform(p - len(word) * n)
    for letter in reversed(word):
        lam = vt_compose(lam, n) if letter == VT else rd_compose(lam, n)
    return lam


def enumerate_canonical(n: int, p: int) -> list[tuple[tuple[str, ...], RankLottery]]:
    """All canonical guarantees at (n, p): every word of length 1..depth."""
    if not 3 <= n < p:
        raise ValueError("canonical guarantees need 3 <= n < p")
    d = (p - 1) // n
    out = []
    for h in range(1, d + 1):
        for word in itertools.product(_LETTERS, repeat=h):
            out.append((word, canonical_word(word, n, p)))
    return out


def word_protocol(word: tuple[str, ...]) -> str:
    """The protocol text that plays a word: a veto round per VT, a padded
    dictator round per RD, and a uniform fallback after a final VT."""
    text = "; ".join("veto(1)" if letter == VT else "rd(pad)" for letter in word)
    return f"{text}; uniform" if word[-1] == VT else text


def dual_word(word: tuple[str, ...]) -> tuple[str, ...]:
    """Swap every VT with RD; names the dual canonical guarantee."""
    return tuple(RD if letter == VT else VT for letter in word)


def word_simplex(word: tuple[str, ...] | str, n: int, p: int) -> list[RankLottery]:
    """Vertices [uniform, word[:1], word[:2], ..., word] for a full-depth word.

    The d+1 vertices are affinely independent (checked exactly); their hull
    is a d-dimensional simplex of guarantees.
    """
    if isinstance(word, str):
        word = parse_word(word)
    if not 3 <= n < p:
        raise ValueError("canonical guarantees need 3 <= n < p")
    d = (p - 1) // n
    if len(word) != d:
        raise ValueError(f"need a word of full length {d}")
    vertices = [uniform(p)]
    for h in range(1, d + 1):
        vertices.append(canonical_word(word[:h], n, p))
    if not _affinely_independent(vertices):
        raise AssertionError("simplex vertices are affinely dependent")
    return vertices


def _affinely_independent(points: list[RankLottery]) -> bool:
    base = points[0].probs
    rows = [[x - b for x, b in zip(pt.probs, base)] for pt in points[1:]]
    rank = 0
    cols = len(base)
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank == len(rows)
