"""rmflab: a desk-scale laboratory for partial sums of Rademacher random
multiplicative functions.

Subpackages: primes (sieves and the shared prime table), prime_series
(certified prime sums), rmf (simulation, traces, sign changes), sequences
(explicit parameter sequences at nested-log scale), chaining (dyadic
oscillation bounds), concentration (Hoeffding / Borel-Cantelli experiments),
cli (batch runner and the acceptance check table).
"""

__version__ = "0.1.0"
