"""Two-party protocol harness with a referee.

Alice, Bob, and the Referee exchange classical messages under one of
three settings: simultaneous messages to the referee, a single one-way
Alice-to-Bob message, or alternating interactive rounds; each setting
class holds the (sender, receiver) edges it allows. Strategies are
callbacks receiving a PartyContext (own quantum input, own rng stream,
and the run's one transcript, which all three contexts read their inbox
from and send into). Only the parties' messages go over the wire: each is
checked against the setting's rules before it is encoded, then passes
through a pluggable transport as one wire frame. The harness refuses
(WireError) any returned line other than the one it sent, so the
transcript records the message it checked, with the payload the wire
carried, and the in-process and tcp transports produce identical
transcripts.

Stream assignment matches the estimator layout: shared randomness is
child 0, Alice child 1, Bob child 2, Referee child 3 of the run stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, ClassVar

from .estimators import (
    STREAM_SHARED, STREAM_ALICE, STREAM_BOB, STREAM_REFEREE,
    dipe_decide_pi0, multicopy_referee, singlecopy_outcomes, singlecopy_referee,
)
from .linalg import PureState
from .rng import RngStream
from .symmetric import standard_povm_sample
from .wire import InprocTransport, WireError, decode_frame, decode_payload, encode_frame, make_frame

__all__ = [
    "Role",
    "Smp",
    "OneWay",
    "Interactive",
    "Message",
    "Transcript",
    "ProtocolViolation",
    "PartyContext",
    "run_protocol",
    "validate_transcript",
    "transcript_cost",
    "multicopy_smp_strategies",
    "singlecopy_smp_strategies",
    "pi0_oneway_strategies",
]


class Role(str, enum.Enum):
    ALICE = "alice"
    BOB = "bob"
    REFEREE = "referee"


@dataclass(frozen=True)
class Smp:
    """Both parties send one simultaneous message to the referee."""

    EDGES: ClassVar = frozenset({(Role.ALICE, Role.REFEREE), (Role.BOB, Role.REFEREE)})


@dataclass(frozen=True)
class OneWay:
    """One Alice-to-Bob message, then Bob reports to the referee."""

    EDGES: ClassVar = frozenset({(Role.ALICE, Role.BOB), (Role.BOB, Role.REFEREE)})


@dataclass(frozen=True)
class Interactive:
    """Alternating Alice/Bob messages, at most max_rounds, then a report."""

    EDGES: ClassVar = Smp.EDGES | OneWay.EDGES | {(Role.BOB, Role.ALICE)}
    max_rounds: int = 2


Setting = Smp | OneWay | Interactive


@dataclass(frozen=True)
class Message:
    round: int
    sender: Role
    receiver: Role
    mtype: str
    payload: object
    nbytes: int


@dataclass
class Transcript:
    """The messages of one run in send order, and the referee's result.
    The run's streams stay with the caller: the shared one, if any, is
    rng.child(STREAM_SHARED) of the stream passed to run_protocol."""

    setting: Setting
    messages: list[Message] = field(default_factory=list)
    result: object = None


class ProtocolViolation(RuntimeError):
    pass


class PartyContext:
    """What one party sees of a run: its input and rng, the messages
    addressed to it so far, and a send checked against the setting. The
    three contexts of a run share its transcript and transport."""

    def __init__(self, role: Role, quantum_input, rng: RngStream, shared: RngStream | None,
                 transcript: Transcript, transport, run_id: str):
        self.role = role
        self.input = quantum_input
        self.rng = rng
        self.shared = shared
        self._transcript = transcript
        self._transport = transport
        self._run_id = run_id

    @property
    def inbox(self) -> list[Message]:
        """Messages addressed to this party so far."""
        return [m for m in self._transcript.messages if m.receiver == self.role]

    def send(self, receiver: Role, mtype: str, payload) -> None:
        messages = self._transcript.messages
        round_ = len(messages) + 1
        candidate = Message(round_, self.role, receiver, mtype, payload, 0)
        verdict = _violation(self._transcript.setting, [*messages, candidate], complete=False)
        if verdict is not None:
            raise ProtocolViolation(verdict)
        line = encode_frame(make_frame(self._run_id, round_, self.role.value, receiver.value, mtype, payload))
        back = self._transport.exchange(line)
        frame = decode_frame(back)
        if back != line:
            raise WireError(f"round {round_}: the transport returned a line other than the one sent")
        # the message just checked; its payload is the one the wire carried
        payload = decode_payload(mtype, frame["payload"])
        messages.append(Message(round_, self.role, receiver, mtype, payload, len(back.encode("utf-8"))))


def run_protocol(
    setting: Setting,
    alice_strategy: Callable,
    bob_strategy: Callable,
    referee_strategy: Callable,
    inputs: dict[Role, object],
    rng: RngStream,
    transport=None,
    shared_randomness: bool = False,
    run_id: str = "run",
) -> Transcript:
    """Execute the three strategies under the setting; return the validated
    transcript. Deterministic given (seed, setting, strategies)."""
    transport = transport or InprocTransport()
    shared = rng.child(STREAM_SHARED) if shared_randomness else None
    transcript = Transcript(setting)
    actx, bctx, rctx = (
        PartyContext(role, inputs.get(role), rng.child(stream), shared, transcript, transport, run_id)
        for role, stream in zip(Role, (STREAM_ALICE, STREAM_BOB, STREAM_REFEREE))
    )

    if isinstance(setting, (Smp, OneWay)):
        alice_strategy(actx)
        bob_strategy(bctx)
    else:
        for turn in range(setting.max_rounds):
            before = len(transcript.messages)
            (alice_strategy, bob_strategy)[turn % 2]((actx, bctx)[turn % 2])
            sent = transcript.messages[before:]
            if not sent or any(m.receiver == Role.REFEREE for m in sent):
                break

    transcript.result = referee_strategy(rctx)
    verdict = validate_transcript(transcript)
    if verdict != "ok":
        raise ProtocolViolation(verdict)
    return transcript


def validate_transcript(t: Transcript) -> str:
    """Return "ok" or a description of the first violation found."""
    return _violation(t.setting, t.messages, complete=True) or "ok"


_SHORT = {Role.ALICE: "A", Role.BOB: "B", Role.REFEREE: "Referee"}


def _violation(setting: Setting, messages: list[Message], complete: bool) -> str | None:
    """The first rule of the setting that the messages break, or None.

    With complete=False the messages are a run so far, and only what no
    later message could mend is a violation: a missing SMP message or
    one-way report is not."""
    last_round = 0
    for m in messages:
        if m.sender == m.receiver:
            return f"message from {m.sender.value} to itself"
        if (m.sender, m.receiver) not in setting.EDGES:
            edge = f"{_SHORT[m.sender]}→{_SHORT[m.receiver]}"
            return f"{edge} not allowed in {type(setting).__name__.upper()}"
        if m.round < last_round:
            return f"round numbers decrease at round {m.round}"
        last_round = m.round

    if isinstance(setting, Smp):
        for who in (Role.ALICE, Role.BOB):
            n = sum(1 for m in messages if m.sender == who)
            if n > 1 or (complete and n != 1):
                return f"{who.value} sent {n} messages in SMP, expected 1"
    elif isinstance(setting, OneWay):
        edges = [(m.sender, m.receiver) for m in messages]
        want = [(Role.ALICE, Role.BOB), (Role.BOB, Role.REFEREE)]
        if edges != (want if complete else want[:len(edges)]):
            return "one-way requires exactly A→B then B→Referee"
    else:
        chat = [m for m in messages if m.receiver != Role.REFEREE]
        reports = [m for m in messages if m.receiver == Role.REFEREE]
        if len(chat) > setting.max_rounds:
            return f"{len(chat)} alternations exceed max_rounds={setting.max_rounds}"
        for i, m in enumerate(chat):
            if m.sender != (Role.ALICE if i % 2 == 0 else Role.BOB):
                why = f"{m.sender.value} sent twice" if i else "alice must send first"
                return f"alternation broken at message {i}: {why}"
        if len(reports) > 1:
            return "more than one report to the referee"
        if reports and messages[-1] is not reports[0]:
            return "report to the referee must be the last message"
    return None


def transcript_cost(t: Transcript) -> tuple[int, int]:
    """(message count, total bytes on the wire) of the parties' messages,
    which are all the frames run_protocol sends."""
    return len(t.messages), sum(m.nbytes for m in t.messages)


# --- canned strategies for the two estimation protocols ---


def multicopy_smp_strategies(k: int):
    """SMP strategies reproducing the multi-copy estimator bit for bit."""

    def party(ctx: PartyContext):
        u = standard_povm_sample(ctx.input, k, ctx.rng)
        ctx.send(Role.REFEREE, "state_vector", u.amplitudes)

    def referee(ctx: PartyContext):
        by_sender = {m.sender: PureState(m.payload) for m in ctx.inbox}
        w, x = multicopy_referee(by_sender[Role.ALICE], by_sender[Role.BOB], k)
        return {"w": w, "raw": x}

    return party, party, referee


def singlecopy_smp_strategies(d: int, n_bases: int, m: int):
    """SMP strategies reproducing the single-copy estimator bit for bit.

    Requires shared randomness (the measurement bases)."""

    def party(ctx: PartyContext):
        if ctx.shared is None:
            raise ValueError("single-copy strategies need shared_randomness=True (the measurement bases)")
        if ctx.input.dim != d:
            raise ValueError(
                f"{ctx.role.value}'s input has dimension {ctx.input.dim}, strategies built for d={d}"
            )
        outcomes = singlecopy_outcomes(ctx.input, n_bases, m, ctx.shared, ctx.rng)
        ctx.send(Role.REFEREE, "outcomes", outcomes.ravel())

    def referee(ctx: PartyContext):
        by_sender = {m_.sender: m_.payload.reshape(n_bases, m) for m_ in ctx.inbox}
        w, raw = singlecopy_referee(by_sender[Role.ALICE], by_sender[Role.BOB], d)
        return {"w": w, "raw": raw}

    return party, party, referee


def pi0_oneway_strategies(k: int):
    """One-way decider: Alice sends her POVM outcome, Bob tests his copies
    against it and reports the case label."""

    def alice(ctx: PartyContext):
        u = standard_povm_sample(ctx.input, k, ctx.rng)
        ctx.send(Role.BOB, "state_vector", u.amplitudes)

    def bob(ctx: PartyContext):
        u = PureState(ctx.inbox[0].payload)
        case = dipe_decide_pi0(u, ctx.input, k, ctx.rng)
        ctx.send(Role.REFEREE, "scalar", float(case))

    def referee(ctx: PartyContext):
        return {"case": int(ctx.inbox[0].payload)}

    return alice, bob, referee
