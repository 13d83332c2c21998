"""Photon-pair four-wave mixing in gas-filled hollow-core fibers.

Subpackage layout mirrors the physics pipeline: gas and wall dispersion
(:mod:`hcfwm.gasmedia`), tube-model fiber dispersion with resonance bands
(:mod:`hcfwm.fibermodel`), multi-branch phase matching
(:mod:`hcfwm.phasematch`), joint spectral amplitudes (:mod:`hcfwm.jsa`),
Schmidt-mode entanglement measures (:mod:`hcfwm.schmidt`),
stimulated-emission tomography (:mod:`hcfwm.tomography`), parameter sweeps
(:mod:`hcfwm.sweeps`), and the command line front end (:mod:`hcfwm.cli`).

Frequency convention: every quantity named ``omega`` is an angular frequency
in rad/s, and axis labels or columns tagged ``THz`` are angular frequency in
units of 1e12 rad/s.  Wavelengths are vacuum wavelengths in nm.
"""

from .errors import (
    DivergenceZoneError,
    GridAxisError,
    HcfwmError,
    NumericalError,
    RangeError,
    ValidationError,
)

__all__ = [
    "DivergenceZoneError",
    "GridAxisError",
    "HcfwmError",
    "NumericalError",
    "RangeError",
    "ValidationError",
]

__version__ = "0.1.0"
