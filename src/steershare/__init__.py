"""Simulator for activating and sharing quantum steering with sequential
unsharp nonlocal measurements on a three-qubit state."""

from .states import BlochForm, DensityMatrix, bloch_form, compress, ghz
from .steering import SteeringEllipsoid, StrengthHistory, classical_bound, \
    closed_form_local, closed_form_nonlocal, ellipsoid, ellipsoid_volume_check
from .scenario import ScanTable, ScenarioConfig, ellipsoid_series, make_config, \
    max_simultaneous_pairs, run_scenario, scan_region, simultaneous_window, \
    sweep_curve

__all__ = [
    "BlochForm", "DensityMatrix", "bloch_form", "compress", "ghz",
    "SteeringEllipsoid", "StrengthHistory", "classical_bound", "closed_form_local",
    "closed_form_nonlocal", "ellipsoid", "ellipsoid_volume_check", "ScanTable",
    "ScenarioConfig", "ellipsoid_series", "make_config", "max_simultaneous_pairs",
    "run_scenario", "scan_region", "simultaneous_window", "sweep_curve",
]

__version__ = "0.1.0"
