"""The *Ideal* scheme: an unbounded pad table (analysis upper bound).

Not part of the paper's design space — every acquisition hits, as if each
stream had infinite pre-generated pads with perfectly synced counters.
Useful for ablations: the residual overhead under Ideal is exactly the
metadata-bandwidth + fast-path-latency cost that no OTP buffer-management
scheme can remove (only batching can), cleanly separating the two problems
the paper attacks.
"""

from __future__ import annotations

from repro.secure.schemes.base import OtpScheme


class IdealScheme(OtpScheme):
    name = "ideal"

    def acquire_send(self, peer: int, now: int) -> tuple[int, bool]:
        return self._record(self.send_outcomes, 0), True

    def acquire_recv(self, peer: int, now: int, synced: bool = True) -> int:
        # even a desync cannot miss with unbounded lookahead
        return self._record(self.recv_outcomes, 0)

    def pool_size(self) -> int:
        return 0  # unbounded: no finite provisioning to report


__all__ = ["IdealScheme"]
