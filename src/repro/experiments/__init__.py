"""Experiment harnesses: one module per paper table/figure.

Every module exposes ``run(...)`` and ``format_result(result)``, which
renders the same rows/series the paper plots.  A (workload ×
configuration) figure's ``run`` is its configuration dict handed to
:meth:`~repro.experiments.common.ExperimentRunner.sweep`, and its result
is the :class:`~repro.experiments.common.Grid` that call returns; the
ablations reduce theirs to a ``SweepResult`` of averages, and Figs 10,
13/14 and 15/16 keep a result of their own shape.  The benchmarks in
``benchmarks/`` are thin wrappers over these.

Experiment index (see DESIGN.md §4 for the full mapping):

========  ====================================================
Table I   ``table1_storage``      OTP storage vs entries
Fig 8     ``fig08_otp_sensitivity``  Private, OTP 1x-16x
Fig 9     ``fig09_prior_schemes``    Private/Shared/Cached
Fig 10/22 ``fig10_otp_distribution`` hit/partial/miss split
Fig 11    ``fig11_overhead_breakdown`` +SecureCommu / +Traffic
Fig 12/23 ``fig12_traffic``          traffic ratios
Fig 13/14 ``fig13_14_timelines``     communication timelines
Fig 15/16 ``fig15_16_burstiness``    burst accumulation times
Fig 21    ``fig21_main_result``      the headline comparison
Fig 24/25 ``fig24_25_scaling``       8- and 16-GPU systems
Fig 26    ``fig26_aes_latency``      AES-GCM latency sweep
§IV-D     ``hw_overhead``            hardware cost accounting
—         ``fig_fault_sweep``        unreliable-link recovery sweep
—         ``fig_collectives``        schemes × NCCL-style collectives
========  ====================================================

The last two are reproduction extensions, not paper figures: the fault
sweep prices detect-and-recover on an unreliable fabric
(``docs/ROBUSTNESS.md``), the collectives sweep prices the schemes on
production collective-communication traffic (``docs/WORKLOADS.md``).
"""

from repro.experiments.common import ExperimentRunner, Grid, WorkloadResult, geometric_mean

__all__ = ["ExperimentRunner", "Grid", "WorkloadResult", "geometric_mean"]
