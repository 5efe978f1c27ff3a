"""Line-oriented JSON wire format for protocol messages.

Each frame is one party's message, one JSON object per line:
{"v": 1, "run": ..., "round": ..., "from": ..., "to": ..., "type": ...,
 "payload": ...}
where the type is one of FRAME_TYPES and complex amplitudes are encoded
as [re, im] pairs. Floats round-trip bit for bit through the encoder (json
emits repr of the double), so an in-process transport is equivalent to
running the computation directly.

Every number on the wire is finite: `encode_frame` refuses NaN and
infinities, and `decode_frame` refuses the literals NaN, Infinity and
-Infinity and any float literal that overflows (such as 1e400);
`decode_payload` refuses a scalar that is not a finite float and a
state_vector that is not a list of [re, im] pairs of finite floats (such
as an integer 10**400, the string "nan" or float("nan")), all with
WireError.

Each frame costs one encode and one validating decode (by the protocol
harness). Both transports hand the line back unchanged: the in-process one
without leaving the process, and a TCP collector by echoing the line it
received once it has decoded it, so an accepted line, canonical or not,
comes back byte for byte. The protocol harness refuses with WireError any
returned line other than the one it sent, even one that decodes to an
equal frame.
"""

from __future__ import annotations

import itertools
import json
import math
import socket
import socketserver
import threading

import numpy as np

WIRE_VERSION = 1

FRAME_TYPES = ("state_vector", "outcomes", "scalar")


class WireError(ValueError):
    """Malformed frame or payload."""


def encode_payload(ptype: str, payload) -> object:
    if ptype == "state_vector":
        arr = np.ascontiguousarray(payload, dtype=complex)
        if arr.ndim != 1:
            raise WireError(f"state_vector payload must be 1-D, got shape {arr.shape}")
        # complex128 is (re, im) float64 pairs in memory; tolist keeps every bit
        return arr.view(np.float64).reshape(-1, 2).tolist()
    if ptype == "outcomes":
        arr = np.asarray(payload)
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise WireError(
                f"outcomes payload must be a 1-D integer array, got {arr.dtype} of shape {arr.shape}"
            )
        return arr.tolist()
    if ptype == "scalar":
        return float(payload)
    raise WireError(f"unknown payload type {ptype!r}")


def decode_payload(ptype: str, payload) -> object:
    if ptype == "state_vector":
        # the encoder's rule: a list of [re, im] pairs of finite floats
        try:
            flat = list(itertools.chain.from_iterable(payload))
            pairs = type(payload) is list and set(map(len, payload)) <= {2}
        except TypeError:  # not a list of sized entries
            pairs = False
        if not pairs or not set(map(type, flat)) <= {float} or not all(map(math.isfinite, flat)):
            raise WireError("bad state_vector payload: expected a list of [re, im] pairs of finite floats")
        # float64 (re, im) pairs are complex128 in memory, so every bit is kept
        return np.fromiter(flat, dtype=np.float64, count=len(flat)).view(complex)
    if ptype == "outcomes":
        # the encoder's rule: a flat list of integers, each fitting int64
        if type(payload) is not list or not set(map(type, payload)) <= {int}:
            raise WireError("outcomes payload must be a flat list of integers")
        try:
            return np.array(payload, dtype=np.int64)
        except OverflowError as exc:
            raise WireError(f"bad outcomes payload: {exc}") from exc
    if ptype == "scalar":
        # the encoder's rule: one finite float
        if type(payload) is not float or not math.isfinite(payload):
            raise WireError("scalar payload must be a finite float")
        return payload
    raise WireError(f"unknown payload type {ptype!r}")


def make_frame(run: str, round_: int, sender: str, receiver: str, ptype: str, payload) -> dict:
    if ptype not in FRAME_TYPES:
        raise WireError(f"unknown frame type {ptype!r}")
    return {
        "v": WIRE_VERSION,
        "run": run,
        "round": round_,
        "from": sender,
        "to": receiver,
        "type": ptype,
        "payload": encode_payload(ptype, payload),
    }


# json.dumps(frame, sort_keys=True, separators=(",", ":"), allow_nan=False)
# without building an encoder per frame; encode() keeps no state between calls
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def encode_frame(frame: dict) -> str:
    try:
        return _ENCODER.encode(frame)
    except ValueError as exc:  # NaN or infinity, which JSON cannot carry
        raise WireError(f"unencodable frame: {exc}") from exc


def _non_finite_constant(name: str):
    raise WireError(f"non-finite number {name} in frame")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise WireError(f"float literal {text[:32]} overflows")
    return value


# json.loads with hooks that refuse non-finite numbers: NaN, Infinity and
# -Infinity reach parse_constant, overflowing literals parse_float
_DECODER = json.JSONDecoder(parse_constant=_non_finite_constant, parse_float=_finite_float)


def decode_frame(line: str) -> dict:
    try:
        frame = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise WireError(f"bad frame: {exc}") from exc
    if not isinstance(frame, dict):
        raise WireError(f"frame is not a JSON object: {line[:32]!r}")
    for key in ("v", "run", "round", "from", "to", "type", "payload"):
        if key not in frame:
            raise WireError(f"frame missing {key!r}")
    if frame["v"] != WIRE_VERSION:
        raise WireError(f"unsupported wire version {frame['v']}")
    if frame["type"] not in FRAME_TYPES:
        raise WireError(f"unknown frame type {frame['type']!r}")
    return frame


class InprocTransport:
    """Hands each frame line back unchanged, without leaving the process."""

    def exchange(self, line: str) -> str:
        # the caller's decode_frame validates the line
        return line

    def close(self) -> None:
        pass


class TcpTransport:
    """Sends each frame line to a collector that echoes it back."""

    def __init__(self, addr: str):
        host, _, port = addr.rpartition(":")
        if not host or not port.isdigit():
            raise WireError(f"bad tcp address {addr!r}; expected host:port")
        self._sock = socket.create_connection((host, int(port)), timeout=10.0)
        self._reader = self._sock.makefile("r", encoding="utf-8", newline="\n")

    def exchange(self, line: str) -> str:
        self._sock.sendall((line + "\n").encode("utf-8"))
        echoed = self._reader.readline()
        if not echoed:
            raise WireError("collector closed the connection")
        return echoed.rstrip("\n")

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()


def open_transport(spec: str):
    """Transport factory: "inproc" or "tcp:<host>:<port>"."""
    if spec == "inproc":
        return InprocTransport()
    if spec.startswith("tcp:"):
        return TcpTransport(spec[4:])
    raise WireError(f"unknown transport {spec!r}")


class _EchoHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            line = raw.decode("utf-8").rstrip("\n")
            if not line:
                continue
            frame = decode_frame(line)  # collectors reject malformed frames
            self.server.frames.append(frame)
            self.wfile.write(raw)


class FrameCollectorServer:
    """Threaded line server that validates, logs, and echoes frames.

    Each line is decoded (a malformed one ends the connection, so the
    client's exchange raises WireError), its frame appended to `frames`,
    and the line itself written back unchanged, as InprocTransport hands it
    back.

    The peer for `--transport tcp:<host>:<port>`: the CLI only connects to
    a collector, so start one yourself (as the tcp transport tests do).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _EchoHandler)
        self._server.frames = []
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    @property
    def frames(self) -> list:
        return self._server.frames

    def start(self) -> "FrameCollectorServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
