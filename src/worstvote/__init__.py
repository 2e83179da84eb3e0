"""Exact worst-case guarantee analysis for probabilistic voting and bargaining.

The package decides, with exact rational arithmetic throughout, which rank
guarantees are achievable for n agents choosing among p outcomes, which of
those are unimprovable, and which executable protocols deliver them.
"""

from .lottery import (
    RankLottery,
    convex_combination,
    dominates,
    dual,
    is_symmetric,
    lottery,
    m2_vertices,
    parse_lottery,
    rd,
    uniform,
    vt,
)
from .profiles import (
    OutcomeLottery,
    Preference,
    Profile,
    cyclic_pad_profile,
    rank_rearrange,
)
from .compose import (
    canonical_word,
    enumerate_canonical,
    rd_compose,
    vt_compose,
    word_simplex,
)
from .feasibility import (
    FeasibilityReport,
    balanced_family,
    is_feasible,
    necessary_cuts,
    system_count,
)
from .maximality import (
    MaximalityReport,
    forcing_profile,
    is_maximal,
)
from .protocols import (
    EvalReport,
    ProtocolSpec,
    cover_protocol,
    parse_protocol,
    run,
    verify_safe_strategy,
    worst_case_guarantee,
)

__version__ = "0.1.0"
