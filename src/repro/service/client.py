"""Synchronous client for the simulation service (``submit`` / ``status``).

A thin blocking wrapper over the NDJSON socket protocol: connect to the
server's Unix socket, send one request line, read one response line.
Used by the ``repro-sim submit`` / ``repro-sim status`` / ``repro-sim
cancel`` subcommands, by the CI smoke (two concurrent clients), and by
the end-to-end tests.  The client never interprets reports — it hands
back the decoded response objects so callers can render the canonical
JSON themselves (:func:`repro.service.protocol.canonical_report_json`).
"""

from __future__ import annotations

import socket
from pathlib import Path
from typing import Any

from repro.service import protocol


class ServiceUnavailable(ConnectionError):
    """The server socket is absent or refused the connection."""


class ServiceClient:
    """One blocking connection to a running ``repro-sim serve``."""

    def __init__(self, socket_path: str | Path, timeout: float | None = None) -> None:
        self.socket_path = Path(socket_path)
        self._buffer = b""
        try:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(str(self.socket_path))
        except OSError as exc:
            raise ServiceUnavailable(
                f"no simulation service at {self.socket_path} ({exc}); "
                "is `repro-sim serve` running?"
            ) from exc

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one request line and block for its response line."""
        self._sock.sendall(protocol.encode(message))
        return protocol.decode(self._read_line())

    def _read_line(self) -> bytes:
        while b"\n" not in self._buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ServiceUnavailable(
                    f"service at {self.socket_path} closed the connection"
                )
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def ping(self) -> dict[str, Any]:
        return self.request({"op": "ping"})

    def submit(
        self,
        workload: str,
        *,
        scheme: str = "batching",
        gpus: int = 4,
        seed: int = 1,
        scale: float = 1.0,
        n_lanes: int = 8,
        client: str = "anonymous",
        wait: bool = True,
        deadline_s: float | None = None,
    ) -> dict[str, Any]:
        """Submit one cell; with ``wait`` the response carries the report."""
        return self.request(
            {
                "op": "submit",
                "client": client,
                "wait": wait,
                "deadline_s": deadline_s,
                "job": {
                    "workload": workload,
                    "scheme": scheme,
                    "gpus": gpus,
                    "seed": seed,
                    "scale": scale,
                    "n_lanes": n_lanes,
                },
            }
        )

    def status(self, job_id: str | None = None) -> dict[str, Any]:
        return self.request({"op": "status", "job_id": job_id})

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self.request({"op": "cancel", "job_id": job_id})

    def metrics(self) -> dict[str, Any]:
        return self.request({"op": "metrics"})


__all__ = ["ServiceClient", "ServiceUnavailable"]
