"""Circuit-level simulator and analytic performance model for cross-point
STT-MRAM arrays.

The package splits into five layers:

* :mod:`xpointsim.device` - junction resistance, critical current,
  switching dynamics, access transistor;
* :mod:`xpointsim.network` - nodal solver for one array of resistive
  branches, including sneak-current decomposition;
* :mod:`xpointsim.array` - array construction: plain grids and the
  balanced split-column layout with embedded reference cells;
* :mod:`xpointsim.ops` - write and read protocols simulated against the
  solver, with full current traces;
* :mod:`xpointsim.perf` - closed-form area, speed and power models plus
  design-space sweeps.

:mod:`xpointsim.config`, :mod:`xpointsim.report` and :mod:`xpointsim.cli`
wrap the above for batch use.
"""

__version__ = "0.1.0"

from .device import (
    MtjDevice,
    MtjParams,
    MtjState,
    SwitchingParams,
    TransistorModel,
    brinkman_resistance,
    critical_current,
    mtj_resistance,
    reference_params,
    reference_surface,
    switching_delay,
    switching_step,
    transistor_current,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    IndeterminateReadError,
    InvariantError,
    ParameterError,
    ReadDisturbError,
    SimulationError,
    SingularNetworkError,
    WriteFailureError,
    XPointError,
)
from .network import (
    CrossbarNetwork,
    DeviceBranch,
    LineBias,
    NetworkSolution,
    RowDriver,
    SneakReport,
    build_network,
    equivalent_resistance,
    sneak_decomposition,
    solve_network,
)
from .array import CrossbarArray
from .ops import (
    DriveConfig,
    OperationTrace,
    SenseResult,
    SensingPowerReport,
    WriteMode,
    WriteRequest,
    compare_sensing_power,
    read_cycle_time,
    read_word,
    sense_bit,
    serial_sneak_profile,
    trace_to_csv,
    write_word,
)
from .perf import (
    ArchitectureConfig,
    PerfReport,
    PerfRow,
    cell_area,
    cell_area_asymptotic,
    cell_area_physical_floor,
    dynamic_energy,
    dynamic_power,
    parse_sweep_csv,
    sweep_area,
)
from .config import (
    ScenarioConfig,
    build_architecture,
    build_array,
    build_drive,
    build_dynamics,
    build_transistor,
    default_config,
    parse_config,
    serialize_config,
)
from .report import RunManifest, config_digest, make_manifest
