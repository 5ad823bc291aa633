"""Sudden-quench quantum dynamics toolkit.

Two exactly solvable systems driven faster than they can respond:

* an infinite square well whose wall jumps instantly to a new position
  (``quenchkit.well``): re-expansion of the frozen ground state, truncated
  post-quench energy, and the matter-wave force on the wall;
* a spin-1/2 in a rotating magnetic field (``quenchkit.spin``): exact
  evolution, return probabilities, and the drive frequency beyond which the
  state stays frozen.

Closed forms are cross-checked against independent quadrature and ODE
oracles in ``quenchkit.numerics``.
"""

__version__ = "0.1.0"
