"""Secure inter-processor communication layer.

Combines the timing model of OTP pre-generation (pad streams fed by
pipelined AES-GCM engines), the metadata/ACK wire protocol, the four OTP
buffer-management schemes, and the :class:`SecureTransport` that routes
device messages over the interconnect with all security costs applied.
"""

from repro.secure.otp_buffer import PadStream
from repro.secure.adversary import AttackKind, AttackReport, LinkPerturbation
from repro.secure.invariants import InvariantMonitor, InvariantViolationError
from repro.secure.metadata import MetadataAccountant
from repro.secure.replay import ReplayGuard
from repro.secure.channel import SecureTransport, UnsecureTransport, build_transport
from repro.secure.schemes import build_scheme

__all__ = [
    "PadStream",
    "AttackKind",
    "AttackReport",
    "LinkPerturbation",
    "InvariantMonitor",
    "InvariantViolationError",
    "MetadataAccountant",
    "ReplayGuard",
    "SecureTransport",
    "UnsecureTransport",
    "build_transport",
    "build_scheme",
]
