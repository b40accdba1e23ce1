"""System simulator for device-collaboration cellular links.

A primary handheld device recruits nearby companion devices over a short
local link; the package quantifies the resulting downlink diversity,
uplink rank, and positioning improvements against legacy single-device
operation in a multi-cell deployment.
"""

from .channel import (friis_db, los_probability, o2i_penetration,
                      o2i_wall_loss_db, pathloss)
from .collab import (compose_af_link, relay_gain, relay_rx_beamformer,
                     stack_rx, stack_tx)
from .errors import CalibrationError, ConfigurationError, EstimationError
from .localization import (build_virtual_array, localize, noncoherent_aoa,
                           run_loc_experiment, steering_vector)
from .phy import effective_se, sinr_to_se
from .scenario import (Case, Ftp3, FullBuffer, ScenarioConfig, SiteLayout,
                       build_hex_layout, drop_ues)
from .simloop import (DropStats, ThroughputRecord, calibrate_load,
                      ftp3_arrivals, map_drops, pf_schedule, run_drop,
                      upt_stats)

__all__ = [
    "CalibrationError", "Case", "ConfigurationError", "DropStats",
    "EstimationError", "Ftp3", "FullBuffer", "ScenarioConfig", "SiteLayout",
    "ThroughputRecord", "build_hex_layout", "build_virtual_array",
    "calibrate_load", "compose_af_link", "drop_ues", "effective_se",
    "friis_db", "ftp3_arrivals", "localize", "los_probability",
    "map_drops",
    "noncoherent_aoa", "o2i_penetration", "o2i_wall_loss_db", "pathloss",
    "pf_schedule", "relay_gain", "relay_rx_beamformer", "run_drop",
    "run_loc_experiment", "sinr_to_se", "stack_rx", "stack_tx",
    "steering_vector", "upt_stats",
]

__version__ = "0.1.0"
