"""repro — secure multi-GPU communication simulator.

A from-scratch reproduction of *"Supporting Secure Multi-GPU Computing
with Dynamic and Batched Metadata Management"* (HPCA 2024): a trace-driven
discrete-event simulator of a CPU + N-GPU system with fine-grained shared
memory, counter-mode authenticated-encrypted interconnects, four OTP
buffer-management schemes (Private / Shared / Cached and the paper's
Dynamic), and security-metadata batching.

Quickstart::

    from repro import MultiGpuSystem, scheme_config, get_workload

    trace = get_workload("matrixmultiplication").generate(n_gpus=4, seed=1)
    baseline = MultiGpuSystem(scheme_config("unsecure")).run(trace)
    secured = MultiGpuSystem(scheme_config("batching")).run(trace)

    print(f"overhead: {secured.slowdown_vs(baseline) - 1:.1%}")
"""

from repro.configs import (
    AdversaryConfig,
    FaultConfig,
    GpuConfig,
    LinkConfig,
    MetadataConfig,
    MigrationConfig,
    SecurityConfig,
    SystemConfig,
    default_config,
    scheme_config,
)
from repro.interconnect.faults import LinkFailureError
from repro.obs import MetricsRegistry
from repro.secure.adversary import AttackKind, AttackReport
from repro.secure.invariants import InvariantMonitor, InvariantViolationError
from repro.system import MultiGpuSystem, OtpDistribution, SimulationReport, run_workload
from repro.workloads import (
    CompiledTrace,
    TraceBuilder,
    WorkloadSpec,
    all_workloads,
    get_workload,
    workloads_in_class,
)

__version__ = "1.5.0"

__all__ = [
    "AdversaryConfig",
    "AttackKind",
    "AttackReport",
    "FaultConfig",
    "InvariantMonitor",
    "InvariantViolationError",
    "MetricsRegistry",
    "GpuConfig",
    "LinkConfig",
    "LinkFailureError",
    "MetadataConfig",
    "MigrationConfig",
    "SecurityConfig",
    "SystemConfig",
    "default_config",
    "scheme_config",
    "MultiGpuSystem",
    "OtpDistribution",
    "SimulationReport",
    "run_workload",
    "CompiledTrace",
    "TraceBuilder",
    "WorkloadSpec",
    "all_workloads",
    "get_workload",
    "workloads_in_class",
    "__version__",
]
