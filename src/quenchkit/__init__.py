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

import importlib

__version__ = "0.1.0"

# The public names, by defining module.  They load on first use (PEP 562),
# so that ``import quenchkit`` alone imports no numpy and the CLI can set up
# the process before numpy loads (see ``quenchkit.__main__``).
_EXPORTS = {
    "quenchkit.numerics": (
        "OdeDivergenceError",
        "OdeResult",
        "OdeSpec",
        "QuadratureConvergenceError",
        "central_difference",
        "integrate",
        "ode_evolve",
    ),
    "quenchkit.spin": (
        "ReturnCurve",
        "RotorConfig",
        "SpinState",
        "ThresholdReport",
        "anti_adiabatic_threshold",
        "branch_symmetry_check",
        "evolve_closed_form",
        "hamiltonian",
        "instantaneous_eigenstates",
        "omega_scan",
        "return_probability",
        "return_probability_cycle",
    ),
    "quenchkit.well": (
        "EnergyReport",
        "ForceProfile",
        "QuenchRatio",
        "Regime",
        "SpectralDecomposition",
        "WellConfig",
        "decompose",
        "eigen_energy",
        "eigen_wavefunction",
        "energy_scan",
        "expansion_coefficient",
        "force_scan",
        "matter_wave_force",
        "overlap_oracle",
        "population",
        "population_scan",
        "quench_energy",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
