"""Central tolerance/configuration record.

All floating-point tolerances used anywhere in the library live here, so that
classification answers never depend on scattered epsilons.  Exact code paths
use no tolerances at all.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Greedy reciprocal-pairing tolerance for the singular spectrum in mu().
    mu_pair_rtol: float = 1e-6
    # Envelope-exponent tolerance.  The closest predicted exponents are 5/4
    # and 4/3, separated by 1/12 ~ 0.083, so anything below that separates
    # them; 0.08 is what the verification suites assert.
    envelope_tol: float = 0.08
    # Tolerance on fitted log-power coefficients (they converge very slowly).
    log_power_tol: float = 0.3
    # Sampling ceiling: 2x2 minors of entries ~1e8 stay ~1e16, near the edge
    # of double precision but safe for max-of-minors.
    norm_ceiling: float = 1e8
    # Minimum sample count / decade span for exponent fitting.
    min_samples: int = 32
    min_decades: float = 3.0
    # Rounds of randomized polynomial identity testing on the exact
    # classification path.  Each round is an exact rational evaluation on a
    # large integer grid, so false negatives are astronomically unlikely.
    pit_rounds: int = 80
    # Integer grid half-width for PIT evaluation points.
    pit_grid: int = 10**6


DEFAULT = Tolerances()
