"""The floating-point tolerances, as module constants.

Every floating-point tolerance of the library lives here, so that answers
never depend on scattered epsilons.  `lab`, `metrics` and `verify` read
them; exact code paths use no tolerances at all.
"""

# Greedy reciprocal-pairing tolerance for the singular spectrum in mu().
MU_PAIR_RTOL = 1e-6
# Envelope-exponent tolerance.  The closest predicted exponents are 5/4
# and 4/3, separated by 1/12 ~ 0.083, so anything below that separates
# them; 0.08 is what the verification suites assert.
ENVELOPE_TOL = 0.08
# Tolerance on fitted log-power coefficients (they converge very slowly).
LOG_POWER_TOL = 0.3
# Sampling ceiling: 2x2 minors of entries ~1e8 stay ~1e16, near the edge
# of double precision but safe for max-of-minors.
NORM_CEILING = 1e8
# Minimum sample count / decade span for exponent fitting.
MIN_SAMPLES = 32
MIN_DECADES = 3.0
