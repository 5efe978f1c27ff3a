import json
import math
import socketserver
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqipe import estimators as est
from dqipe import protocol, wire
from dqipe.cli import main as cli_main
from dqipe.protocol import (
    Interactive,
    Message,
    OneWay,
    ProtocolViolation,
    Role,
    Smp,
    Transcript,
    multicopy_smp_strategies,
    pi0_oneway_strategies,
    run_protocol,
    singlecopy_smp_strategies,
    transcript_cost,
    validate_transcript,
)
from dqipe.rng import RngStream


def _msg(sender, receiver, round_=1, mtype="scalar", payload=0.0, nbytes=10):
    return Message(round_, sender, receiver, mtype, payload, nbytes)


def _pair(seed=5, d=8, f=0.5):
    root = RngStream(seed)
    phi, psi = est.make_state_pair(d, f, root.child(0))
    return phi, psi, root.child(1)


# --- wire format ---


@given(
    re=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
    im=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_state_vector_roundtrip_is_exact(re, im):
    n = min(len(re), len(im))
    vec = np.array([complex(a, b) for a, b in zip(re[:n], im[:n])])
    frame = wire.make_frame("r", 1, "alice", "referee", "state_vector", vec)
    back = wire.decode_frame(wire.encode_frame(frame))
    decoded = wire.decode_payload(back["type"], back["payload"])
    assert np.array_equal(decoded, vec)


def test_state_vector_codec_is_bit_exact_at_the_edges():
    vec = np.array([complex(-0.0, 5e-324), complex(1e308, -0.0), complex(-5e-324, -1e308), 0.1 + 0.2j])
    payload = wire.encode_payload("state_vector", vec)
    # the per-element encoding the codec replaced, kept as the reference
    assert payload == [[float(z.real), float(z.imag)] for z in vec]
    line = wire.encode_frame(wire.make_frame("r", 1, "alice", "referee", "state_vector", vec))
    back = wire.decode_frame(line)
    decoded = wire.decode_payload(back["type"], back["payload"])
    assert decoded.dtype == complex
    assert decoded.tobytes() == vec.tobytes()  # signed zeros and subnormals included


def test_bad_state_vector_payloads_rejected():
    with pytest.raises(wire.WireError):
        wire.encode_payload("state_vector", np.eye(2))
    for bad in ([[1.0, 2.0, 3.0]], [[None, 1.0]], [["1.0", "0.0"]], 1.0,
                [["nan"]], [["1e400"]], [[1.0]], [[True, False]], [["1+2j"]],
                [[0.5, 0.0], [1, 0.0]], [[0.5, 0.0], 1.0], ["ab"], {"0": [0.5, 0.0]},
                [[math.nan, 0.0], [math.inf, 1.0]], [[0.5, math.inf]], [[-math.inf, 0.0]]):
        with pytest.raises(wire.WireError, match="bad state_vector payload"):
            wire.decode_payload("state_vector", bad)


def test_outcomes_codec_emits_plain_ints_and_rejects_other_arrays():
    for dtype in (np.int64, np.int32, np.uint8):
        out = np.array([0, 7, 31, 2], dtype=dtype)
        frame = wire.make_frame("r", 1, "alice", "referee", "outcomes", out)
        assert frame["payload"] == [0, 7, 31, 2]
        assert wire.encode_frame(frame).startswith('{"from":"alice","payload":[0,7,31,2],')
    for bad in (np.zeros((2, 2), dtype=np.int64), np.array([1.5, 2.0]), np.array([True])):
        with pytest.raises(wire.WireError, match="1-D integer array"):
            wire.encode_payload("outcomes", bad)


def test_outcomes_decoder_accepts_only_flat_integer_lists():
    good = wire.decode_payload("outcomes", [0, 7, 31, -2])
    assert good.dtype == np.int64 and good.tolist() == [0, 7, 31, -2]
    empty = wire.decode_payload("outcomes", [])
    assert empty.dtype == np.int64 and empty.shape == (0,)
    for bad in ([1.5, 2.7], [1, 2.0], [[1, 2], [3, 4]], [[1], 2], [True, False], [1, True],
                [2**70], [-(2**70)], [1, None], ["1"], 3, "12", {"0": 1}):
        with pytest.raises(wire.WireError, match="outcomes payload"):
            wire.decode_payload("outcomes", bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_payload_raises_wire_error(bad):
    frame = wire.make_frame("r", 0, "alice", "referee", "state_vector", np.array([bad, 1.0]))
    with pytest.raises(wire.WireError):
        wire.encode_frame(frame)
    with pytest.raises(wire.WireError):
        wire.encode_frame(wire.make_frame("r", 0, "alice", "referee", "scalar", bad))


def test_finite_frame_bytes_unchanged():
    frame = wire.make_frame(
        "r", 2, "alice", "referee", "state_vector", np.array([complex(-0.0, 5e-324), 1e308 - 0.5j])
    )
    assert wire.encode_frame(frame) == json.dumps(frame, sort_keys=True, separators=(",", ":"))
    assert wire.encode_frame(frame) == (
        '{"from":"alice","payload":[[-0.0,5e-324],[1e+308,-0.5]],"round":2,'
        '"run":"r","to":"referee","type":"state_vector","v":1}'
    )


_NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400 + ".0"]


def _frame_line(ptype, payload, to="referee"):
    return (
        f'{{"from":"alice","payload":{payload},"round":1,"run":"r","to":"{to}",'
        f'"type":"{ptype}","v":1}}'
    )


@pytest.mark.parametrize("literal", _NON_FINITE, ids=lambda s: s if len(s) < 20 else "401-digit-float")
def test_decode_frame_rejects_non_finite_numbers(literal):
    for ptype, payload in [
        ("scalar", literal),
        ("state_vector", f"[[0.5,0.0],[{literal},0.0]]"),
        ("outcomes", f"[0,{literal},1]"),
    ]:
        with pytest.raises(wire.WireError):
            wire.decode_frame(_frame_line(ptype, payload))


def test_tcp_collector_refuses_non_finite_numbers():
    server = wire.FrameCollectorServer().start()
    try:
        for literal in _NON_FINITE:
            tp = wire.open_transport(f"tcp:{server.address}")
            try:
                with pytest.raises(wire.WireError, match="closed the connection"):
                    tp.exchange(_frame_line("scalar", literal))
            finally:
                tp.close()
        assert server.frames == []
    finally:
        server.stop()


def test_non_canonical_line_comes_back_byte_for_byte():
    # valid, but with spaces after separators and the keys in another order
    line = (
        '{"v": 1, "type": "state_vector", "run": "r", "round": 1, "to": "referee",'
        ' "from": "alice", "payload": [[0.6, 0.0], [0.0, 0.8]]}'
    )
    assert wire.encode_frame(wire.decode_frame(line)) != line
    assert wire.InprocTransport().exchange(line) == line
    server = wire.FrameCollectorServer().start()
    try:
        tp = wire.open_transport(f"tcp:{server.address}")
        try:
            assert tp.exchange(line) == line
        finally:
            tp.close()
        assert server.frames == [json.loads(line)]
    finally:
        server.stop()


@pytest.mark.parametrize(
    "payload", ["nan", "inf", "1e400", "0.5", [0.5], {"w": 0.5}, None, True, 1, 10**400, math.nan, -math.inf]
)
def test_decode_payload_refuses_scalars_that_are_not_finite_floats(payload):
    with pytest.raises(wire.WireError, match="scalar payload"):
        wire.decode_payload("scalar", payload)
    assert wire.decode_payload("scalar", 0.5) == 0.5


def test_decode_payload_refuses_state_vector_entries_too_large_for_a_float():
    for bad in ([[10**400, 0.0]], [[0.5, 0.0], [0.5, -(10**400)]]):
        with pytest.raises(wire.WireError, match="bad state_vector payload"):
            wire.decode_payload("state_vector", bad)


@pytest.mark.parametrize("line", ["3", "null", "true", '"frame"', "[1, 2]"])
def test_decode_frame_refuses_a_line_that_is_not_an_object(line):
    with pytest.raises(wire.WireError, match="not a JSON object"):
        wire.decode_frame(line)


def _cli_against_peer(answer, capsys) -> str:
    """Run estimate-multicopy over tcp against a peer that answers each line
    with answer(line); assert exit 2 with one stderr line and return it."""

    class _Answer(socketserver.StreamRequestHandler):
        def handle(self):
            for raw in self.rfile:
                self.wfile.write((answer(raw.decode("utf-8").rstrip("\n")) + "\n").encode("utf-8"))

    class _Server(socketserver.ThreadingTCPServer):
        daemon_threads = True

    server = _Server(("127.0.0.1", 0), _Answer)
    threading.Thread(target=server.serve_forever, args=(wire._POLL_S,), daemon=True).start()
    try:
        host, port = server.server_address[:2]
        argv = ["estimate-multicopy", "--trials", "2", "--transport", f"tcp:{host}:{port}"]
        assert cli_main(argv) == 2
    finally:
        server.shutdown()
        server.server_close()
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dqipe: ")
    return lines[0]


def test_cli_exits_2_when_the_collector_answers_a_non_object(capsys):
    assert _cli_against_peer(lambda line: "3", capsys).startswith("dqipe: frame is not a JSON object")


def _altered(line: str, **changes) -> str:
    return wire.encode_frame({**wire.decode_frame(line), **changes})


def _swap_two_pairs(line: str) -> str:
    pairs = wire.decode_frame(line)["payload"]
    return _altered(line, payload=[pairs[1], pairs[0], *pairs[2:]])


_OTHER_LINES = {
    "round-string": lambda line: _altered(line, round="x"),
    "round-null": lambda line: _altered(line, round=None),
    "pairs-swapped": _swap_two_pairs,
    "spaces": lambda line: json.dumps(wire.decode_frame(line)),
}


@pytest.mark.parametrize("answer", list(_OTHER_LINES.values()), ids=list(_OTHER_LINES))
def test_cli_exits_2_when_the_peer_answers_another_line(answer, capsys):
    # the referee may use only what the party sent: a peer that changes a
    # header field, the payload or only the bytes is refused, not believed
    line = _cli_against_peer(answer, capsys)
    assert line == "dqipe: round 1: the transport returned a line other than the one sent"


def test_inproc_transport_returning_another_line_is_refused_before_the_referee():
    phi, psi, rng = _pair()
    a, b, _ = multicopy_smp_strategies(4)
    referee_ran = []

    class _Swapping(wire.InprocTransport):
        def exchange(self, line):
            return _swap_two_pairs(line)

    with pytest.raises(wire.WireError, match="other than the one sent"):
        run_protocol(
            Smp(), a, b, referee_ran.append, {Role.ALICE: phi, Role.BOB: psi}, rng,
            transport=_Swapping(),
        )
    assert referee_ran == []


@pytest.mark.parametrize("ptype", ["hello", "result"])
def test_bookkeeping_frame_types_are_refused(ptype):
    # only the parties' messages go over the wire
    assert wire.FRAME_TYPES == ("state_vector", "outcomes", "scalar")
    with pytest.raises(wire.WireError, match="unknown frame type"):
        wire.decode_frame(_frame_line(ptype, '{"setting":"smp"}'))
    with pytest.raises(wire.WireError, match="unknown frame type"):
        wire.make_frame("r", 0, "referee", "referee", ptype, {"setting": "smp"})
    with pytest.raises(wire.WireError, match="unknown payload type"):
        wire.decode_payload(ptype, {"setting": "smp"})


def test_bad_frames_rejected():
    with pytest.raises(wire.WireError):
        wire.decode_frame("not json")
    with pytest.raises(wire.WireError):
        wire.decode_frame('{"v": 1}')
    with pytest.raises(wire.WireError):
        wire.decode_frame(
            '{"v": 9, "run": "r", "round": 0, "from": "alice", "to": "bob",'
            ' "type": "scalar", "payload": 1.0}'
        )
    with pytest.raises(wire.WireError):
        wire.make_frame("r", 0, "alice", "bob", "telepathy", None)


# --- validator on canned transcripts ---


def test_valid_smp_transcript_ok():
    t = Transcript(
        Smp(),
        [_msg(Role.ALICE, Role.REFEREE, 1), _msg(Role.BOB, Role.REFEREE, 2)],
    )
    assert validate_transcript(t) == "ok"


def test_smp_rejects_alice_to_bob():
    t = Transcript(Smp(), [_msg(Role.ALICE, Role.BOB)])
    assert validate_transcript(t) == "A→B not allowed in SMP"


def test_oneway_rejects_wrong_order():
    t = Transcript(
        OneWay(),
        [_msg(Role.BOB, Role.REFEREE, 1), _msg(Role.ALICE, Role.BOB, 2)],
    )
    assert "A→B then B→Referee" in validate_transcript(t)


def test_interactive_rejects_excess_alternations():
    msgs = [
        _msg(Role.ALICE, Role.BOB, 1),
        _msg(Role.BOB, Role.ALICE, 2),
        _msg(Role.ALICE, Role.BOB, 3),
        _msg(Role.BOB, Role.ALICE, 4),
    ]
    t = Transcript(Interactive(max_rounds=3), msgs)
    assert "exceed max_rounds" in validate_transcript(t)


def test_interactive_bob_opening_is_not_called_sending_twice():
    t = Transcript(Interactive(), [_msg(Role.BOB, Role.ALICE)])
    assert validate_transcript(t) == "alternation broken at message 0: alice must send first"


_A, _B, _R = Role.ALICE, Role.BOB, Role.REFEREE
_ONE_MESSAGE_VERDICTS = {
    "SMP": {
        (_A, _A): "message from alice to itself",
        (_A, _B): "A→B not allowed in SMP",
        (_A, _R): "bob sent 0 messages in SMP, expected 1",
        (_B, _A): "B→A not allowed in SMP",
        (_B, _B): "message from bob to itself",
        (_B, _R): "alice sent 0 messages in SMP, expected 1",
        (_R, _A): "Referee→A not allowed in SMP",
        (_R, _B): "Referee→B not allowed in SMP",
        (_R, _R): "message from referee to itself",
    },
    "ONEWAY": {
        (_A, _A): "message from alice to itself",
        (_A, _B): "one-way requires exactly A→B then B→Referee",
        (_A, _R): "A→Referee not allowed in ONEWAY",
        (_B, _A): "B→A not allowed in ONEWAY",
        (_B, _B): "message from bob to itself",
        (_B, _R): "one-way requires exactly A→B then B→Referee",
        (_R, _A): "Referee→A not allowed in ONEWAY",
        (_R, _B): "Referee→B not allowed in ONEWAY",
        (_R, _R): "message from referee to itself",
    },
    "INTERACTIVE": {
        (_A, _A): "message from alice to itself",
        (_A, _B): "ok",
        (_A, _R): "ok",
        (_B, _A): "alternation broken at message 0: alice must send first",
        (_B, _B): "message from bob to itself",
        (_B, _R): "ok",
        (_R, _A): "Referee→A not allowed in INTERACTIVE",
        (_R, _B): "Referee→B not allowed in INTERACTIVE",
        (_R, _R): "message from referee to itself",
    },
}


@pytest.mark.parametrize(
    "setting", [Smp(), OneWay(), Interactive()], ids=lambda s: type(s).__name__.upper()
)
def test_one_message_verdicts_edge_by_edge(setting):
    verdicts = {
        (sender, receiver): validate_transcript(Transcript(setting, [_msg(sender, receiver)]))
        for sender in Role for receiver in Role
    }
    assert verdicts == _ONE_MESSAGE_VERDICTS[type(setting).__name__.upper()]


def test_validator_rejects_self_message():
    t = Transcript(Smp(), [_msg(Role.ALICE, Role.ALICE)])
    assert "itself" in validate_transcript(t)


def test_transcript_cost_empty():
    assert transcript_cost(Transcript(Smp())) == (0, 0)


# --- run_protocol ---


def test_multicopy_smp_bit_identical_to_direct():
    phi, psi, rng = _pair()
    direct = est.multicopy_estimate(phi, psi, 16, rng)
    a, b, ref = multicopy_smp_strategies(16)
    t = run_protocol(Smp(), a, b, ref, {Role.ALICE: phi, Role.BOB: psi}, rng)
    assert t.result["w"] == direct.value
    assert t.result["raw"] == direct.raw
    assert validate_transcript(t) == "ok"


def test_singlecopy_smp_bit_identical_to_direct():
    phi, psi, rng = _pair(seed=6)
    for n_bases in (1, 3):
        direct = est.singlecopy_estimate(phi, psi, n_bases, 16, rng)
        a, b, ref = singlecopy_smp_strategies(8, n_bases, 16)
        t = run_protocol(
            Smp(), a, b, ref, {Role.ALICE: phi, Role.BOB: psi}, rng,
            shared_randomness=True,
        )
        assert t.result["w"] == direct.value
        assert t.result["raw"] == direct.raw


@pytest.mark.parametrize("n_bases", [1, 3])
def test_singlecopy_draws_each_shared_basis_once_per_trial(monkeypatch, n_bases):
    phi, psi, rng = _pair(seed=7)
    drawn = []
    draw = est.sample_haar_unitary
    monkeypatch.setattr(est, "sample_haar_unitary", lambda d, s: drawn.append(s.path) or draw(d, s))
    direct = est.singlecopy_estimate(phi, psi, n_bases, 16, rng)
    shared = rng.child(est.STREAM_SHARED).path
    assert drawn == [shared + (i,) for i in range(n_bases)]
    drawn.clear()
    a, b, ref = singlecopy_smp_strategies(8, n_bases, 16)
    t = run_protocol(
        Smp(), a, b, ref, {Role.ALICE: phi, Role.BOB: psi}, rng, shared_randomness=True,
    )
    assert drawn == [shared + (i,) for i in range(n_bases)]
    assert t.result["w"] == direct.value
    assert t.result["raw"] == direct.raw


@pytest.mark.parametrize("k", range(1, 13))
def test_multicopy_smp_equals_direct_at_d1(k):
    # at d=1 the overlap is exactly 1; the referee says so on both paths
    a, b, ref = multicopy_smp_strategies(k)
    for seed in range(30):
        phi, psi, rng = _pair(seed=seed, d=1, f=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # d=1 is a supported input
            direct = est.multicopy_estimate(phi, psi, k, rng)
            t = run_protocol(Smp(), a, b, ref, {Role.ALICE: phi, Role.BOB: psi}, rng)
        assert t.result["w"] == direct.value == 1.0
        assert t.result["raw"] == direct.raw == 1.0
        assert direct.degenerate


def test_singlecopy_smp_equals_direct_at_d1():
    a, b, ref = singlecopy_smp_strategies(1, 2, 16)
    for seed in range(30):
        phi, psi, rng = _pair(seed=seed, d=1, f=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # d=1 is a supported input
            direct = est.singlecopy_estimate(phi, psi, 2, 16, rng)
            t = run_protocol(
                Smp(), a, b, ref, {Role.ALICE: phi, Role.BOB: psi}, rng,
                shared_randomness=True,
            )
        assert t.result["w"] == direct.value == 1.0
        assert t.result["raw"] == direct.raw == 1.0
        assert direct.degenerate


def test_singlecopy_smp_rejects_input_of_another_dimension():
    phi, psi, rng = _pair(d=4)
    a, b, ref = singlecopy_smp_strategies(8, 1, 16)
    with pytest.raises(ValueError, match="dimension 4.*d=8"):
        run_protocol(
            Smp(), a, b, ref, {Role.ALICE: phi, Role.BOB: psi}, rng,
            shared_randomness=True,
        )


def test_singlecopy_smp_without_shared_randomness_names_it():
    phi, psi, rng = _pair()
    a, b, ref = singlecopy_smp_strategies(8, 1, 16)
    with pytest.raises(ValueError, match=r"shared_randomness=True \(the measurement bases\)"):
        run_protocol(Smp(), a, b, ref, {Role.ALICE: phi, Role.BOB: psi}, rng)


@pytest.mark.parametrize("outcome", [40, -1])
def test_singlecopy_smp_referee_refuses_a_peers_outcome_outside_the_dimension(outcome):
    phi, psi, rng = _pair(d=32)
    alice, bob, referee = singlecopy_smp_strategies(32, 1, 2)

    def bad_alice(ctx):
        ctx.send(Role.REFEREE, "outcomes", np.array([outcome, 1]))

    with pytest.raises(ValueError, match=r"outcomes must lie in \[0, 32\)"):
        run_protocol(
            Smp(), bad_alice, bob, referee, {Role.ALICE: phi, Role.BOB: psi}, rng,
            shared_randomness=True,
        )


def test_pi0_oneway_two_messages():
    phi, psi, rng = _pair(seed=8, d=6, f=0.0)
    a, b, ref = pi0_oneway_strategies(3)
    t = run_protocol(OneWay(), a, b, ref, {Role.ALICE: phi, Role.BOB: psi}, rng)
    assert len(t.messages) == 2
    assert (t.messages[0].sender, t.messages[0].receiver) == (Role.ALICE, Role.BOB)
    assert (t.messages[1].sender, t.messages[1].receiver) == (Role.BOB, Role.REFEREE)
    assert t.result["case"] in (1, 2)


def test_disallowed_send_raises_and_names_edge():
    phi, psi, rng = _pair()

    def bad_alice(ctx):
        ctx.send(Role.BOB, "scalar", 1.0)

    def bob(ctx):
        ctx.send(Role.REFEREE, "scalar", 1.0)

    with pytest.raises(ProtocolViolation, match="A→B not allowed in SMP"):
        run_protocol(
            Smp(), bad_alice, bob, lambda ctx: None,
            {Role.ALICE: phi, Role.BOB: psi}, rng,
        )


def test_second_message_rejected_in_smp():
    phi, psi, rng = _pair()

    def chatty(ctx):
        ctx.send(Role.REFEREE, "scalar", 1.0)
        ctx.send(Role.REFEREE, "scalar", 2.0)

    with pytest.raises(ProtocolViolation, match="alice sent 2 messages in SMP, expected 1"):
        run_protocol(
            Smp(), chatty, chatty, lambda ctx: None,
            {Role.ALICE: phi, Role.BOB: psi}, rng,
        )


def test_interactive_alternation():
    phi, psi, rng = _pair()

    def alice(ctx):
        ctx.send(Role.BOB, "scalar", float(len(ctx.inbox)))

    def bob(ctx):
        if len(ctx.inbox) >= 2:
            ctx.send(Role.REFEREE, "scalar", 1.0)
        else:
            ctx.send(Role.ALICE, "scalar", float(len(ctx.inbox)))

    def ref(ctx):
        return ctx.inbox[0].payload

    t = run_protocol(
        Interactive(max_rounds=6), alice, bob, ref,
        {Role.ALICE: phi, Role.BOB: psi}, rng,
    )
    assert validate_transcript(t) == "ok"
    senders = [m.sender for m in t.messages]
    assert senders == [Role.ALICE, Role.BOB, Role.ALICE, Role.BOB]
    assert t.result == 1.0


def test_transcripts_deterministic():
    phi, psi, rng = _pair(seed=12)
    a, b, ref = multicopy_smp_strategies(8)
    runs = [
        run_protocol(Smp(), a, b, ref, {Role.ALICE: phi, Role.BOB: psi}, rng)
        for _ in range(2)
    ]
    assert runs[0].result == runs[1].result
    for m1, m2 in zip(runs[0].messages, runs[1].messages):
        assert m1.round == m2.round and m1.sender == m2.sender
        assert np.array_equal(m1.payload, m2.payload)


def test_tcp_transport_matches_inproc():
    phi, psi, rng = _pair(seed=13)
    a, b, ref = multicopy_smp_strategies(8)
    inputs = {Role.ALICE: phi, Role.BOB: psi}
    t_in = run_protocol(Smp(), a, b, ref, inputs, rng)

    server = wire.FrameCollectorServer().start()
    try:
        tp = wire.open_transport(f"tcp:{server.address}")
        try:
            t_tcp = run_protocol(Smp(), a, b, ref, inputs, rng, transport=tp)
        finally:
            tp.close()
    finally:
        server.stop()

    assert t_tcp.result == t_in.result
    assert len(server.frames) == len(t_in.messages)
    for m1, m2 in zip(t_in.messages, t_tcp.messages):
        assert np.array_equal(m1.payload, m2.payload)
        assert m1.nbytes == m2.nbytes


def test_transcript_cost_counts_bytes():
    phi, psi, rng = _pair(seed=14)
    a, b, ref = multicopy_smp_strategies(4)
    t = run_protocol(Smp(), a, b, ref, {Role.ALICE: phi, Role.BOB: psi}, rng)
    n, total = transcript_cost(t)
    assert n == 2
    assert total == sum(m.nbytes for m in t.messages) > 0


def test_malformed_frame_on_inproc_path_raises(monkeypatch):
    # the in-process transport hands lines back unchanged, so run_protocol's
    # own decode is what validates each frame
    phi, psi, rng = _pair()
    a, b, ref = multicopy_smp_strategies(4)
    monkeypatch.setattr(protocol, "encode_frame", lambda frame: wire.encode_frame(frame)[:-1])
    with pytest.raises(wire.WireError):
        run_protocol(Smp(), a, b, ref, {Role.ALICE: phi, Role.BOB: psi}, rng)


class _Recording:
    """Transport wrapper that keeps every (sent, returned) line."""

    def __init__(self, inner):
        self.inner = inner
        self.lines = []

    def exchange(self, line):
        back = self.inner.exchange(line)
        self.lines.append((line, back))
        return back


@pytest.mark.parametrize("case", ["smp-multicopy", "oneway-pi0"])
def test_tcp_lines_equal_inproc_lines_byte_for_byte(case):
    phi, psi, rng = _pair(seed=15, d=6, f=0.0)
    setting, strategies = (
        (Smp(), multicopy_smp_strategies(8)) if case == "smp-multicopy"
        else (OneWay(), pi0_oneway_strategies(3))
    )
    inputs = {Role.ALICE: phi, Role.BOB: psi}
    inproc = _Recording(wire.InprocTransport())
    run_protocol(setting, *strategies, inputs, rng, transport=inproc, run_id="t0")

    server = wire.FrameCollectorServer().start()
    try:
        tp = wire.open_transport(f"tcp:{server.address}")
        try:
            tcp = _Recording(tp)
            run_protocol(setting, *strategies, inputs, rng, transport=tcp, run_id="t0")
        finally:
            tp.close()
    finally:
        server.stop()

    assert len(inproc.lines) == 2  # the two party messages
    assert tcp.lines == inproc.lines
    assert all(sent == back for sent, back in inproc.lines)


def test_oneway_report_before_alice_sends_never_reaches_the_wire():
    phi, psi, rng = _pair()

    def silent_alice(ctx):
        pass

    def bob(ctx):
        ctx.send(Role.REFEREE, "scalar", 1.0)

    recording = _Recording(wire.InprocTransport())
    with pytest.raises(ProtocolViolation) as refused:
        run_protocol(
            OneWay(), silent_alice, bob, lambda ctx: None,
            {Role.ALICE: phi, Role.BOB: psi}, rng, transport=recording,
        )
    # the send-time rule is the validator's, word for word
    assert str(refused.value) == validate_transcript(
        Transcript(OneWay(), [_msg(Role.BOB, Role.REFEREE)])
    ) == "one-way requires exactly A→B then B→Referee"
    assert recording.lines == []


def test_interactive_second_send_in_one_turn_is_refused_at_send_time():
    phi, psi, rng = _pair()

    def twice(ctx):
        ctx.send(Role.BOB, "scalar", 1.0)
        ctx.send(Role.BOB, "scalar", 2.0)

    recording = _Recording(wire.InprocTransport())
    with pytest.raises(ProtocolViolation, match="alternation broken at message 1: alice sent twice"):
        run_protocol(
            Interactive(max_rounds=4), twice, twice, lambda ctx: None,
            {Role.ALICE: phi, Role.BOB: psi}, rng, transport=recording,
        )
    assert len(recording.lines) == 1  # only the first send went over the wire


@pytest.mark.parametrize("case", ["smp-multicopy", "smp-singlecopy", "oneway-pi0"])
def test_tcp_collector_sees_exactly_the_counted_messages(case):
    phi, psi, rng = _pair(seed=16, d=6, f=0.0)
    setting, strategies, shared = {
        "smp-multicopy": (Smp(), multicopy_smp_strategies(8), False),
        "smp-singlecopy": (Smp(), singlecopy_smp_strategies(6, 2, 16), True),
        "oneway-pi0": (OneWay(), pi0_oneway_strategies(3), False),
    }[case]
    server = wire.FrameCollectorServer().start()
    try:
        tp = wire.open_transport(f"tcp:{server.address}")
        try:
            tcp = _Recording(tp)
            t = run_protocol(
                setting, *strategies, {Role.ALICE: phi, Role.BOB: psi}, rng,
                transport=tcp, shared_randomness=shared,
            )
        finally:
            tp.close()
    finally:
        server.stop()

    assert len(server.frames) == len(t.messages) == 2
    for frame, m in zip(server.frames, t.messages):
        assert (frame["round"], frame["from"], frame["to"], frame["type"]) == (
            m.round, m.sender.value, m.receiver.value, m.mtype
        )
        assert np.array_equal(wire.decode_payload(frame["type"], frame["payload"]), m.payload)
    assert sum(len(back.encode("utf-8")) for _, back in tcp.lines) == transcript_cost(t)[1]
