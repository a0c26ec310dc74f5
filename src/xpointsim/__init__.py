"""Circuit-level simulator and analytic performance model for cross-point
STT-MRAM arrays.

The package splits into five layers:

* :mod:`xpointsim.device` - junction resistance, critical current,
  switching dynamics, access transistor;
* :mod:`xpointsim.network` - nodal solver for one array of resistive
  branches;
* :mod:`xpointsim.array` - array construction: plain grids and the
  balanced split-column layout with embedded reference cells;
* :mod:`xpointsim.ops` - write and read protocols simulated against the
  solver, with full current traces;
* :mod:`xpointsim.perf` - closed-form area, speed and power models plus
  design-space sweeps.

:mod:`xpointsim.config`, :mod:`xpointsim.report` and :mod:`xpointsim.cli`
wrap the above for batch use; every exception type lives in
:mod:`xpointsim.errors`.

Each public name has one import path, the module that defines it (for
example ``xpointsim.ops.write_word`` or ``xpointsim.config.parse_config``).
The package root carries only ``__version__`` and the submodules.
"""

__version__ = "0.1.0"

from . import array, config, device, errors, network, ops, perf, report
