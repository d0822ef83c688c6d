"""Client for the campaign daemon's Unix-socket job API.

One connection per request (the protocol's framing contract); the
``results`` op keeps its connection open and yields result frames as the
daemon streams them.  Used by ``repro-sim submit|status`` and the soak
harness; scripts can use it directly::

    client = ServiceClient(spool / "daemon.sock")
    submitted = client.submit(design_doc, replications=3, seed=7)
    for frame in client.results(submitted["id"]):
        ...
"""

from __future__ import annotations

import socket
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from .protocol import ProtocolError, encode, read_lines


class ServiceError(RuntimeError):
    """The daemon rejected a request (the message carries its error)."""


class ServiceClient:
    """Thin synchronous client; every method opens one connection."""

    def __init__(
        self, socket_path: Union[str, Path], timeout: Optional[float] = 60.0
    ) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self.socket_path)
        return sock

    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._connect() as sock:
            sock.sendall(encode(message))
            for frame in read_lines(sock):
                return frame
        raise ProtocolError("daemon closed the connection without a response")

    # -- ops -----------------------------------------------------------------

    def submit(
        self,
        design: Dict[str, Any],
        replications: Optional[int] = None,
        seed: int = 0,
        priority: int = 0,
    ) -> Dict[str, Any]:
        """Submit one design document; raises :class:`ServiceError` on
        rejection *except* load shedding, which returns the response so
        callers can honor ``retry_after``."""
        message: Dict[str, Any] = {
            "op": "submit",
            "design": design,
            "seed": seed,
            "priority": priority,
        }
        if replications is not None:
            message["replications"] = replications
        response = self._request(message)
        if not response.get("ok") and "retry_after" not in response:
            raise ServiceError(response.get("error", "submit failed"))
        return response

    def status(self, campaign_id: Optional[str] = None) -> Dict[str, Any]:
        message: Dict[str, Any] = {"op": "status"}
        if campaign_id is not None:
            message["id"] = campaign_id
        response = self._request(message)
        if not response.get("ok"):
            raise ServiceError(response.get("error", "status failed"))
        return response

    def results(
        self, campaign_id: str, follow: bool = True
    ) -> Iterator[Dict[str, Any]]:
        """Yield ``{"index": i, "result": doc}`` frames in job-index order.

        Blocks between frames while the campaign runs (``follow=True``);
        raises :class:`ServiceError` if the campaign failed or is
        unknown.
        """
        with self._connect() as sock:
            sock.sendall(
                encode({"op": "results", "id": campaign_id, "follow": follow})
            )
            frames = read_lines(sock)
            header = next(frames, None)
            if header is None or not header.get("ok"):
                raise ServiceError(
                    (header or {}).get("error", "no response from daemon")
                )
            for frame in frames:
                if frame.get("done"):
                    if frame.get("error"):
                        raise ServiceError(frame["error"])
                    return
                yield frame

    def collect(self, campaign_id: str) -> Dict[int, Dict[str, Any]]:
        """All results of one campaign, keyed by job index (blocking)."""
        return {
            frame["index"]: frame["result"]
            for frame in self.results(campaign_id)
        }

    def cancel(self, campaign_id: str) -> bool:
        return bool(self._request({"op": "cancel", "id": campaign_id}).get("ok"))

    def drain(self) -> Dict[str, Any]:
        return self._request({"op": "drain"})

    def shutdown(self) -> None:
        self._request({"op": "shutdown"})

    def wait_ready(self, timeout: float = 30.0, interval: float = 0.05) -> None:
        """Block until the daemon answers ``status`` (startup barrier)."""
        import time

        deadline = time.time() + timeout
        last: Optional[Exception] = None
        while time.time() < deadline:
            try:
                self.status()
                return
            except (OSError, ProtocolError, ServiceError) as exc:
                last = exc
                time.sleep(interval)
        raise ServiceError(
            f"daemon at {self.socket_path} not ready after {timeout}s: {last}"
        )


__all__ = ["ServiceClient", "ServiceError"]
