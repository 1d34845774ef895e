"""Minimal denominators of rational intervals and their exact sum identities.

The package answers three kinds of question:

* farey / minden: what is the least denominator of a fraction inside a given
  interval, and how do the answers tile ]0, 1] when the interval is a window
  of a uniform grid?
* sums: exact rational identities for S(n), the sum of the n grid window
  denominators, its integral smoothing, and the sawtooth decomposition of
  their difference.
* expsums: the mod-q Fourier toolbox (DFT, Kloosterman and Ramanujan sums,
  sawtooth transform) with the analytic bounds that control the remainder.

The command line entry point is ``mindenom`` (see mindenom.cli).
"""

from .expsums import (
    PeriodicFunction,
    b1,
    b1_hat_closed,
    beta,
    dft,
    divisor_count,
    geometric_sum_bound_check,
    idft,
    kloosterman,
    kloosterman_table,
    ramanujan,
    twisted_b1_bound,
    twisted_b1_sum,
    weighted_b1_bound,
    weighted_b1_sum,
    weil_bound,
)
from .farey import (
    AdjacentPair,
    adjacent_pairs,
    farey_sequence,
    inv_mod,
    next_denominator,
    totient_summatory,
)
from .minden import (
    Interval,
    min_denominator,
    min_denominator_grid,
    min_fraction,
)
from .sums import (
    SumReport,
    denominator_sum,
    denominator_sums,
    sum_report,
    variant_gap,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacentPair",
    "Interval",
    "PeriodicFunction",
    "SumReport",
    "adjacent_pairs",
    "b1",
    "b1_hat_closed",
    "beta",
    "denominator_sum",
    "denominator_sums",
    "dft",
    "divisor_count",
    "farey_sequence",
    "geometric_sum_bound_check",
    "idft",
    "inv_mod",
    "kloosterman",
    "kloosterman_table",
    "min_denominator",
    "min_denominator_grid",
    "min_fraction",
    "next_denominator",
    "ramanujan",
    "sum_report",
    "totient_summatory",
    "twisted_b1_bound",
    "twisted_b1_sum",
    "variant_gap",
    "weighted_b1_bound",
    "weighted_b1_sum",
    "weil_bound",
]
