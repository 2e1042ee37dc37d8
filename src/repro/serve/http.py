"""Minimal asyncio HTTP/1.1 front end for the scheduling service.

The repo deliberately carries no third-party web framework: this module
speaks just enough HTTP/1.1 over :func:`asyncio.start_server` streams to
serve the JSON API -- request line, headers, ``Content-Length`` bodies,
keep-alive -- with hard limits on header and body sizes.  Everything
response-shaped comes from
:meth:`~repro.serve.service.ScheduleService.handle`, so the protocol
layer stays dumb and the service layer stays socket-free (and therefore
unit-testable without a port).
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Tuple

from .service import Response, ScheduleService

__all__ = ["HttpServer"]

_MAX_HEADER_BYTES = 16 * 1024
_MAX_HEADERS = 100
_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    505: "HTTP Version Not Supported",
}


class HttpServer:
    """One asyncio HTTP server bound to a :class:`ScheduleService`."""

    def __init__(
        self,
        service: ScheduleService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port  # 0: pick an ephemeral port, see .start()
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    async def start(self) -> "HttpServer":
        """Bind and start accepting; resolves the actual port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Block serving until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting and close the listening sockets."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        """Base URL of the bound server."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: a keep-alive loop of request/response."""
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, path, headers, body, error = parsed
                if error is not None:
                    status, message = error
                    response = Response(
                        status,
                        (
                            '{"error":{"code":"protocol_error","message":'
                            + _json_string(message)
                            + "}}\n"
                        ).encode(),
                    )
                    keep_alive = False
                else:
                    response = await self.service.handle(
                        method, path, body, headers
                    )
                    keep_alive = (
                        headers.get("connection", "keep-alive").lower()
                        != "close"
                    )
                await self._write_response(writer, response, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        except asyncio.CancelledError:
            pass  # server shutting down with the connection open
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; ``None`` on clean EOF, error tuple on junk."""
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            return "", "", {}, b"", (431, "request line too long")
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return "", "", {}, b"", (400, "malformed request line")
        method, path, version = parts
        if not version.startswith("HTTP/1."):
            return "", "", {}, b"", (505, f"unsupported {version}")
        headers: Dict[str, str] = {}
        total = len(request_line)
        while True:
            line = await reader.readline()
            total += len(line)
            if total > _MAX_HEADER_BYTES or len(headers) > _MAX_HEADERS:
                return method, path, headers, b"", (431, "headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            return method, path, headers, b"", (400, "bad Content-Length")
        if length < 0:
            return method, path, headers, b"", (400, "bad Content-Length")
        from .api import MAX_BODY_BYTES

        if length > MAX_BODY_BYTES:
            return method, path, headers, b"", (413, "request body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return method, path, headers, b"", (400, "truncated body")
        return method, path, headers, body, None

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter, response: Response, keep_alive: bool
    ) -> None:
        reason = _STATUS_TEXT.get(response.status, "Unknown")
        headers = {
            "Content-Type": "application/json",
            **response.headers,
            "Content-Length": str(len(response.body)),
            "Connection": "keep-alive" if keep_alive else "close",
        }
        head = f"HTTP/1.1 {response.status} {reason}\r\n" + "".join(
            f"{k}: {v}\r\n" for k, v in headers.items()
        )
        writer.write(head.encode("latin-1") + b"\r\n" + response.body)
        await writer.drain()


def _json_string(text: str) -> str:
    """A JSON string literal of ``text`` (for hand-built error bodies)."""
    import json

    return json.dumps(text)
