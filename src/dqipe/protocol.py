"""Two-party protocol harness with a referee.

Alice, Bob, and the Referee exchange classical messages under one of
three settings: simultaneous messages to the referee, a single one-way
Alice-to-Bob message, or alternating interactive rounds. Strategies are
callbacks receiving a PartyContext (own quantum input, own rng stream,
messages visible so far). Only the parties' messages go over the wire:
each is checked against the setting's rules before it is encoded, then
passes through a pluggable transport as one wire frame. The harness
refuses (WireError) any returned line other than the one it sent, so the
transcript records the message it checked, with the payload the wire
carried, and the in-process and tcp transports produce identical
transcripts.

Stream assignment matches the estimator layout: shared randomness is
child 0, Alice child 1, Bob child 2, Referee child 3 of the run stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

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

    name: str = field(default="smp", init=False)


@dataclass(frozen=True)
class OneWay:
    """One Alice-to-Bob message, then Bob reports to the referee."""

    name: str = field(default="oneway", init=False)


@dataclass(frozen=True)
class Interactive:
    """Alternating Alice/Bob messages, at most max_rounds, then a report."""

    max_rounds: int = 2
    name: str = field(default="interactive", init=False)


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
    setting: Setting
    messages: list[Message] = field(default_factory=list)
    result: object = None
    shared_seed: tuple | None = None  # (seed, path) of the pre-shared stream


class ProtocolViolation(RuntimeError):
    pass


_EDGES = {
    "smp": {(Role.ALICE, Role.REFEREE), (Role.BOB, Role.REFEREE)},
    "oneway": {(Role.ALICE, Role.BOB), (Role.BOB, Role.REFEREE)},
    "interactive": {
        (Role.ALICE, Role.BOB),
        (Role.BOB, Role.ALICE),
        (Role.ALICE, Role.REFEREE),
        (Role.BOB, Role.REFEREE),
    },
}


class PartyContext:
    """What one party sees: its input, rng, inbox, and a validated send."""

    def __init__(self, role: Role, quantum_input, rng: RngStream,
                 shared: RngStream | None, inbox_fn: Callable[[], list[Message]],
                 deliver: Callable):
        self.role = role
        self.input = quantum_input
        self.rng = rng
        self.shared = shared
        self._inbox_fn = inbox_fn
        self._deliver = deliver

    @property
    def inbox(self) -> list[Message]:
        """Messages addressed to this party so far."""
        return self._inbox_fn()

    def send(self, receiver: Role, mtype: str, payload) -> None:
        self._deliver(self.role, receiver, mtype, payload)


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
    transcript = Transcript(
        setting=setting,
        shared_seed=(shared.seed, shared.path) if shared is not None else None,
    )

    def deliver(sender: Role, receiver: Role, mtype: str, payload):
        round_ = len(transcript.messages) + 1
        candidate = Message(round_, sender, receiver, mtype, payload, 0)
        verdict = _violation(setting, [*transcript.messages, candidate], complete=False)
        if verdict is not None:
            raise ProtocolViolation(verdict)
        line = encode_frame(make_frame(run_id, round_, sender.value, receiver.value, mtype, payload))
        back = transport.exchange(line)
        frame = decode_frame(back)
        if back != line:
            raise WireError(f"round {round_}: the transport returned a line other than the one sent")
        # the message just checked; its payload is the one the wire carried
        payload = decode_payload(mtype, frame["payload"])
        transcript.messages.append(Message(round_, sender, receiver, mtype, payload, len(back.encode("utf-8"))))

    def inbox_for(role: Role) -> list[Message]:
        return [m for m in transcript.messages if m.receiver == role]

    def ctx(role: Role, stream_idx: int) -> PartyContext:
        return PartyContext(
            role, inputs.get(role), rng.child(stream_idx), shared,
            lambda: inbox_for(role), deliver,
        )

    if isinstance(setting, (Smp, OneWay)):
        alice_strategy(ctx(Role.ALICE, STREAM_ALICE))
        bob_strategy(ctx(Role.BOB, STREAM_BOB))
    else:
        actx = ctx(Role.ALICE, STREAM_ALICE)
        bctx = ctx(Role.BOB, STREAM_BOB)
        for turn in range(setting.max_rounds):
            before = len(transcript.messages)
            (alice_strategy if turn % 2 == 0 else bob_strategy)(
                actx if turn % 2 == 0 else bctx
            )
            sent = transcript.messages[before:]
            if not sent or any(m.receiver == Role.REFEREE for m in sent):
                break

    transcript.result = referee_strategy(ctx(Role.REFEREE, STREAM_REFEREE))

    verdict = validate_transcript(transcript)
    if verdict != "ok":
        raise ProtocolViolation(verdict)
    return transcript


def validate_transcript(t: Transcript) -> str:
    """Return "ok" or a description of the first violation found."""
    return _violation(t.setting, t.messages, complete=True) or "ok"


def _violation(setting: Setting, messages: list[Message], complete: bool) -> str | None:
    """The first rule of the setting that the messages break, or None.

    With complete=False the messages are a run so far, and only what no
    later message could mend is a violation: a missing SMP message or
    one-way report is not."""
    allowed = _EDGES[setting.name]
    last_round = 0
    for m in messages:
        if m.sender == m.receiver:
            return f"message from {m.sender.value} to itself"
        if (m.sender, m.receiver) not in allowed:
            return f"{_edge_label(m)} not allowed in {setting.name.upper()}"
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
            want = Role.ALICE if i % 2 == 0 else Role.BOB
            if m.sender != want:
                return f"alternation broken at message {i}: {m.sender.value} sent twice"
        if len(reports) > 1:
            return "more than one report to the referee"
        if reports and messages[-1] is not reports[0]:
            return "report to the referee must be the last message"
    return None


def _edge_label(m: Message) -> str:
    short = {Role.ALICE: "A", Role.BOB: "B", Role.REFEREE: "Referee"}
    return f"{short[m.sender]}→{short[m.receiver]}"


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
            raise ValueError(
                "single-copy strategies need shared_randomness=True (the measurement bases)"
            )
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
