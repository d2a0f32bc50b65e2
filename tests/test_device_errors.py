"""Error-path and edge-case tests for the device models."""

import pytest

from repro.configs import SecurityConfig
from repro.interconnect.packet import Packet, PacketKind
from repro.secure.schemes.ideal import IdealScheme
from repro.workloads.compiled import CompiledGpuTrace

from tests.test_gpu_device import host_cpu, make_gpu, reads


class TestGpuErrorPaths:
    def test_double_trace_load_rejected(self, sim, fake_transport):
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        gpu.load_trace(CompiledGpuTrace((reads([4096]),), instructions=1))
        with pytest.raises(RuntimeError):
            gpu.load_trace(CompiledGpuTrace((reads([4096]),), instructions=1))

    def test_stray_data_response_rejected(self, sim, fake_transport):
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        stray = Packet(kind=PacketKind.DATA_RESP, src=0, dst=1, size_bytes=80, txn_id=999)
        with pytest.raises(ValueError):
            gpu._on_message(stray, 0)

    def test_stray_write_ack_rejected(self, sim, fake_transport):
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        stray = Packet(kind=PacketKind.WRITE_ACK, src=0, dst=1, size_bytes=16, txn_id=999)
        with pytest.raises(ValueError):
            gpu._on_message(stray, 0)

    def test_unexpected_packet_kind_rejected(self, sim, fake_transport):
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        ack = Packet(kind=PacketKind.SEC_ACK, src=0, dst=1, size_bytes=16)
        with pytest.raises(ValueError):
            gpu._on_message(ack, 0)

    def test_unknown_migration_data_is_ignored(self, sim, fake_transport):
        # late blocks for a migration that already committed must be benign
        gpu, _ = make_gpu(sim, fake_transport, {1: 1})
        late = Packet(kind=PacketKind.MIGRATION_DATA, src=0, dst=1, size_bytes=80, address=0)
        gpu._on_message(late, 0)  # no exception


class TestHostCpu:
    def test_cpu_rejects_data_responses(self, sim, fake_transport):
        cpu = host_cpu(sim, fake_transport)
        resp = Packet(kind=PacketKind.DATA_RESP, src=1, dst=0, size_bytes=80)
        with pytest.raises(ValueError):
            cpu._on_message(resp, 0)

    def test_cpu_serves_reads(self, sim, fake_transport):
        cpu = host_cpu(sim, fake_transport)
        fake_transport.register(1, lambda p, t: None)
        req = Packet(kind=PacketKind.READ_REQ, src=1, dst=0, size_bytes=16, txn_id=1)
        cpu._on_message(req, 0)
        sim.run()
        kinds = [p.kind for p in fake_transport.sent]
        assert PacketKind.DATA_RESP in kinds


class TestIdealScheme:
    def _scheme(self):
        return IdealScheme(1, [0, 2], SecurityConfig(scheme="ideal"))

    def test_always_hits(self):
        s = self._scheme()
        for t in (0, 0, 0, 1000):
            assert s.acquire_send(2, t) == (0, True)
            assert s.acquire_recv(0, t, synced=False) == 0

    def test_stats_recorded(self):
        s = self._scheme()
        s.acquire_send(2, 0)
        assert s.send_outcomes.fractions() == {"hit": 1.0}

    def test_pool_size_reports_unbounded(self):
        assert self._scheme().pool_size() == 0

    def test_ideal_upper_bounds_private_in_system(self, sim, fake_transport):
        from repro.configs import scheme_config
        from repro.system import run_workload
        from repro.workloads import get_workload

        trace = get_workload("fft").generate(4, seed=1, scale=0.1)
        ideal = run_workload(scheme_config("ideal"), trace)
        trace = get_workload("fft").generate(4, seed=1, scale=0.1)
        private = run_workload(scheme_config("private"), trace)
        assert ideal.execution_cycles <= private.execution_cycles * 1.02
