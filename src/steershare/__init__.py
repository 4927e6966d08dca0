"""Simulator for activating and sharing quantum steering with sequential
unsharp nonlocal measurements on a three-qubit state."""

from .states import BlochForm, CompressionBasis, DensityMatrix, bloch_form, \
    compress, ghz, reconstruct
from .measurement import Instrument, UnsharpSetting, local_pair_update, \
    luders_update, make_instrument
from .steering import SteeringEllipsoid, StrengthHistory, classical_bound, \
    closed_form_local, closed_form_nonlocal, ellipsoid, ellipsoid_volume_check, \
    optimal_partner_setting, optimal_settings_from_ellipsoid, steering_parameter
from .scenario import ScanTable, ScenarioConfig, ellipsoid_series, make_config, \
    max_simultaneous_pairs, run_scenario, scan_region, simultaneous_window, \
    sweep_curve

__all__ = [
    "BlochForm", "CompressionBasis", "DensityMatrix", "bloch_form", "compress",
    "ghz", "reconstruct", "Instrument", "UnsharpSetting", "local_pair_update",
    "luders_update", "make_instrument", "SteeringEllipsoid", "StrengthHistory",
    "classical_bound", "closed_form_local", "closed_form_nonlocal", "ellipsoid",
    "ellipsoid_volume_check", "optimal_partner_setting",
    "optimal_settings_from_ellipsoid", "steering_parameter", "ScanTable",
    "ScenarioConfig", "ellipsoid_series", "make_config",
    "max_simultaneous_pairs", "run_scenario", "scan_region",
    "simultaneous_window", "sweep_curve",
]

__version__ = "0.1.0"
