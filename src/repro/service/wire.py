"""The minimal HTTP/1.1 subset the daemon, the router and their clients speak.

JSON bodies, ``Content-Length`` framing, keep-alive — enough for the
``/v1`` API and the bundled client, not a general-purpose web server.

* :class:`FrontEnd` is the server side shared by
  :class:`~repro.service.server.SchedulingService` and
  :class:`~repro.service.router.ShardRouter`: the listen socket, the
  keep-alive connection loop with drain-on-stop, request-head parsing,
  response encoding, and the 400/404/405/413/503 answers a front end
  originates itself, all in the ``/v1`` envelope.  A subclass fills
  ``_routes`` and answers routed requests in :meth:`FrontEnd._serve`.
* :class:`HttpClient` is one persistent client connection (the loadgen,
  the smokes, and the router's shard hop).
"""

from __future__ import annotations

import asyncio
import json
import time

from .protocol import API_VERSION, error_body, v1_envelope

__all__ = ["FrontEnd", "HttpClient", "RawBody", "encode_request", "request_once"]

MAX_BODY = 16 * 1024 * 1024  # refuse absurd payloads before buffering them

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class RawBody:
    """A response body sent as-is: Prometheus text or a forwarded response."""

    __slots__ = ("data", "content_type")

    def __init__(self, data: bytes, content_type: str):
        self.data = data
        self.content_type = content_type


class HttpError(Exception):
    """A malformed message head; the front end answers it and closes."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


def _parse_head(head: bytes) -> tuple[list[str], dict[str, str], int]:
    """Start-line fields, lowercased headers and the declared body length."""
    lines = head.decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for raw in lines[1:]:
        if ":" in raw:
            name, _, value = raw.partition(":")
            headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "")
    if length and not length.isdecimal():
        raise HttpError(400, "bad_request", f"invalid Content-Length {length!r}")
    return lines[0].split(), headers, int(length or 0)


async def read_request(reader: asyncio.StreamReader):
    """One request as ``(method, target, headers, body)``; None on clean EOF.

    Raises :class:`HttpError` for a malformed head or an oversized body.
    """
    try:
        # one readuntil for the whole head: fewer event-loop round trips
        # per request than line-by-line parsing (this is the serving hot loop)
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between keep-alive requests
        raise
    start, headers, length = _parse_head(head)
    if len(start) != 3:
        raise HttpError(400, "bad_request", "malformed request line")
    if length > MAX_BODY:
        raise HttpError(413, "payload_too_large", "body too large")
    body = await reader.readexactly(length) if length else b""
    return start[0].upper(), start[1], headers, body


def encode_response(status: int, payload, keep_alive: bool) -> bytes:
    """Wire bytes of one response: a JSON document or a :class:`RawBody`."""
    if isinstance(payload, RawBody):
        data, ctype = payload.data, payload.content_type
    else:
        data, ctype = json.dumps(payload).encode(), "application/json"
    return (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(data)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1") + data


def encode_request(method: str, path: str, body: bytes, headers: dict) -> bytes:
    """Wire bytes of one request with a ``Content-Length``-framed body."""
    extra = "".join(f"{k}: {v}\r\n" for k, v in headers.items())
    return (
        f"{method} {path} HTTP/1.1\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        "\r\n"
    ).encode("latin-1") + body


class FrontEnd:
    """Listen socket + keep-alive connection loop of one HTTP front end."""

    #: ``meta.shard`` of the responses this front end originates
    shard_label: int | str | None = None

    def __init__(self) -> None:
        #: (method, path) → handler; anything else answers 404/405
        self._routes: dict[tuple[str, str], object] = {}
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._closing = False

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._server is None:
            raise RuntimeError(f"{type(self).__name__} is not running")
        return self._server.sockets[0].getsockname()[1]

    async def _listen(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(self._handle_conn, host, port)

    async def _stop_listening(self) -> None:
        """Refuse new connections; open ones answer 503 from now on."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _close_connections(self) -> None:
        """Close idle keep-alive connections and let their tasks unwind."""
        for writer in list(self._connections):
            writer.close()
        # let the loop deliver the EOFs so per-connection tasks unwind
        # cleanly instead of being cancelled mid-read at loop teardown
        deadline = time.monotonic() + 1.0
        while self._connections and time.monotonic() < deadline:
            await asyncio.sleep(0.01)

    def _meta(self, payload, trace_id: str | None) -> dict:
        """The ``meta`` block every response carries."""
        return {
            "api_version": API_VERSION,
            "solver": None,
            "shard": self.shard_label,
            "trace_id": trace_id,
        }

    def _envelope(self, payload, trace_id: str | None = None):
        """Wrap a payload in the ``/v1`` envelope; raw bodies pass through."""
        if isinstance(payload, RawBody):
            return payload
        return v1_envelope(payload, self._meta(payload, trace_id))

    async def _serve(self, handler, method, path, headers, body, conn):
        """Answer one routed request with ``(status, payload)``.

        None severs the connection instead of answering.  ``conn`` is a
        dict that lives as long as the client connection.
        """
        raise NotImplementedError

    async def _connection_closed(self, conn: dict) -> None:
        """Release whatever :meth:`_serve` kept in ``conn``."""

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        conn: dict = {}
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    payload = self._envelope(error_body(exc.code, str(exc)))
                    writer.write(encode_response(exc.status, payload, False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                handler = self._routes.get((method, path))
                if self._closing:
                    keep_alive = False
                    status, payload = 503, self._envelope(
                        error_body("shutting_down", "shutting down")
                    )
                elif handler is None:
                    known = any(p == path for (_, p) in self._routes)
                    status = 405 if known else 404
                    code = "method_not_allowed" if known else "not_found"
                    payload = self._envelope(
                        error_body(code, f"no route {method} {path}")
                    )
                else:
                    response = await self._serve(
                        handler, method, path, headers, body, conn
                    )
                    if response is None:
                        break  # severed without an answer
                    status, payload = response
                writer.write(encode_response(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request
        finally:
            self._connections.discard(writer)
            await self._connection_closed(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # teardown only: nothing left to do for this connection


class HttpClient:
    """One persistent HTTP/1.1 connection speaking JSON."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    def encode_request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ) -> bytes:
        """Serialize one request to wire bytes (reusable across sends)."""
        body = json.dumps(payload).encode() if payload is not None else b""
        return encode_request(
            method,
            path,
            body,
            {
                "Host": f"{self.host}:{self.port}",
                "Content-Type": "application/json",
                **(headers or {}),
            },
        )

    async def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict]:
        """Issue one request; reconnects transparently if the peer closed."""
        return await self.request_encoded(
            self.encode_request(method, path, payload, headers)
        )

    async def request_full(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict, dict]:
        """Like :meth:`request` but also returns the response headers.

        For callers that assert on wire metadata — content types, framing.
        """
        status, resp_headers, data = await self.request_raw(
            self.encode_request(method, path, payload, headers)
        )
        return status, resp_headers, self._decode_body(resp_headers, data)

    async def request_encoded(
        self, data: bytes, decode: bool = True
    ) -> tuple[int, dict]:
        """Send pre-encoded request bytes (the loadgen hot path).

        ``decode=False`` still reads the full body off the socket but skips
        ``json.loads`` — for drivers that only care about the status code.
        """
        status, headers, body = await self.request_raw(data)
        if not decode:
            return status, {}
        return status, self._decode_body(headers, body)

    async def request_raw(
        self, data: bytes
    ) -> tuple[int, dict, bytes]:
        """Send pre-encoded bytes; return (status, headers, raw body bytes).

        The router's forwarding path: shard response bodies pass through
        byte-for-byte, never re-serialized.  Reconnects transparently once
        if the peer closed the keep-alive connection.
        """
        if self._writer is None:
            await self.connect()
        try:
            self._writer.write(data)
            await self._writer.drain()
            return await self._read_response()
        except (ConnectionError, asyncio.IncompleteReadError):
            # server closed the keep-alive connection: retry once, fresh
            await self.close()
            await self.connect()
            self._writer.write(data)
            await self._writer.drain()
            return await self._read_response()

    @staticmethod
    def _decode_body(headers: dict, data: bytes) -> dict:
        if not data:
            return {}
        # non-JSON bodies (e.g. a Prometheus exposition) come back raw
        if "json" in headers.get("content-type", "application/json"):
            return json.loads(data.decode())
        return {"text": data.decode()}

    async def _read_response(self) -> tuple[int, dict, bytes]:
        try:
            head = await self._reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            raise ConnectionError("server closed connection") from exc
        start, headers, length = _parse_head(head)
        data = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return int(start[1]), headers, data


async def request_once(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
    headers: dict | None = None,
) -> tuple[int, dict]:
    """One-shot request on a throwaway connection (smoke tests)."""
    client = HttpClient(host, port)
    await client.connect()
    try:
        return await client.request(method, path, payload, headers)
    finally:
        await client.close()
