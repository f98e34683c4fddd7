"""Host wall-clock performance harness.

Everything in this package measures *host* time -- how long the Python
process takes to execute simulated work -- never simulated time.  The
two clocks are strictly separated: optimizations selected through
:mod:`repro.fastpath` may change host time only, and
:func:`repro.perf.wallclock.equivalence_check` continuously proves that
digests, MACs, consumed cycles and telemetry are byte-identical across
engines.  Plumbing shared by every harness lives in
:mod:`repro.perf.harness`.  See ``docs/performance.md``.
"""

from . import fleet
from .fleet import FleetEngine, FleetSpec
from .harness import write_report
from .wallclock import (REPORT_SCHEMA_ID, build_report, equivalence_check,
                        hmac_cache_timing, time_measurement)

__all__ = [
    "REPORT_SCHEMA_ID", "build_report", "equivalence_check",
    "hmac_cache_timing", "time_measurement", "write_report",
    "fleet", "FleetEngine", "FleetSpec",
]
