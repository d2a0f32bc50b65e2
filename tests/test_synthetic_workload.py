"""Synthetic workload generator: the dials must move the right metrics."""

import pytest

from repro.configs import scheme_config
from repro.memory.address_space import page_of
from repro.system import run_workload
from repro.workloads.synthetic import synthetic_spec, synthetic_workload

from tests.test_workload_structure import remote_fraction as measured_remote_fraction


def build(**knobs):
    return synthetic_workload(n_gpus=4, seed=1, scale=0.3, **knobs)


class TestDials:
    def test_remote_fraction_dial(self):
        low = build(remote_fraction=0.1)
        high = build(remote_fraction=0.9)
        assert measured_remote_fraction(high, 1) > measured_remote_fraction(low, 1) + 0.3

    def test_gap_dial_changes_rpki(self):
        fast = run_workload(scheme_config("unsecure"), build(gap=0))
        slow = run_workload(scheme_config("unsecure"), build(gap=20))
        assert fast.rpki > slow.rpki

    def test_skew_dial_concentrates_destinations(self):
        def owner_entropy(trace):
            counts = {}
            for lane in trace.gpu_traces[1].lanes:
                for addr in lane.addrs:
                    o = trace.initial_owners[page_of(addr)]
                    if o not in (0, 1):
                        counts[o] = counts.get(o, 0) + 1
            total = sum(counts.values())
            return max(counts.values()) / total if total else 0.0

        uniform = build(skew=0.0, remote_fraction=0.9, phase_length=1000)
        skewed = build(skew=20.0, remote_fraction=0.9, phase_length=1000)
        assert owner_entropy(skewed) > owner_entropy(uniform)

    def test_burst_length_dial(self):
        thin = run_workload(scheme_config("unsecure"), build(burst_length=2))
        fat = run_workload(scheme_config("unsecure"), build(burst_length=32))
        frac_fat = fat.burst16_fractions[0] + fat.burst16_fractions[1]
        frac_thin = thin.burst16_fractions[0] + thin.burst16_fractions[1]
        assert frac_fat >= frac_thin

    def test_cpu_share_dial(self):
        def cpu_touches(trace):
            return sum(
                1
                for lane in trace.gpu_traces[1].lanes
                for addr in lane.addrs
                if trace.initial_owners[page_of(addr)] == 0
            )

        none = build(cpu_share=0.0, remote_fraction=0.8)
        lots = build(cpu_share=0.9, remote_fraction=0.8)
        assert cpu_touches(lots) > cpu_touches(none)


class TestValidation:
    def test_traces_validate_and_run(self):
        trace = build()
        trace.validate()
        report = run_workload(scheme_config("batching"), trace)
        assert report.execution_cycles > 0

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            build(remote_fraction=1.5)
        with pytest.raises(ValueError):
            build(burst_length=0)
        with pytest.raises(ValueError):
            build(gap=-1)
        with pytest.raises(ValueError):
            build(cpu_share=-0.1)

    def test_spec_wrapper_is_registry_compatible(self):
        spec = synthetic_spec("my-app", rpki_class="high", remote_fraction=0.8)
        trace = spec.generate(n_gpus=4, seed=2, scale=0.2)
        trace.validate()
        assert spec.suite == "synthetic"

    def test_deterministic_per_seed(self):
        a = synthetic_workload(4, seed=9, scale=0.2)
        b = synthetic_workload(4, seed=9, scale=0.2)
        assert a.gpu_traces[2].lanes[0].addrs == b.gpu_traces[2].lanes[0].addrs
