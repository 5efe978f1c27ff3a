"""Span tracing for the benchmark's traced run, installed from outside dqipe.

`install` replaces each layer's public entry points with wrappers that record
one span per call: (id, parent id, name, start, end, thread). Every dqipe
module that bound the entry point by name (``from .wire import encode_frame``)
gets the wrapper too, and methods are patched on their class, so calls made
inside the package are seen as well. Spans and counts stay in memory until
the run ends; `uninstall` puts the original objects back.

`layer_metrics` turns the spans of one run into the per-layer metrics listed
in BENCHMARK.json. The `oracles` module is a check, not product code, and is
left untraced on purpose.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("rng", "linalg", "symmetric", "estimators", "wire", "protocol", "experiments", "cli")

# Public entry points per layer; "Class.method" names are patched on the class.
ENTRY_POINTS = {
    "rng": ("RngStream.child",),
    "linalg": (
        "PureState.__post_init__", "DensityMatrix.__post_init__",
        "sample_haar_state", "sample_haar_unitary", "trace_distance", "dmax",
    ),
    "symmetric": (
        "standard_povm_sample", "sym_basis", "sym_projector", "pi_u_t",
        "rho_u_closed_form", "maximally_mixed_sym", "mp_channel",
        "trace_distance_rho_u_block",
    ),
    "estimators": (
        "make_state_pair", "multicopy_constants", "multicopy_estimate",
        "singlecopy_estimate", "born_sample", "classical_collision",
        "multicopy_variance_exact", "singlecopy_variance_exact_pure",
    ),
    "wire": (
        "make_frame", "encode_frame", "decode_frame", "decode_payload",
        "open_transport", "InprocTransport.exchange", "TcpTransport.exchange",
    ),
    "protocol": (
        "run_protocol", "validate_transcript", "PartyContext.send",
        "multicopy_smp_strategies", "singlecopy_smp_strategies",
    ),
    # the two batch kernels are private, but they are the variance gates' hot path
    "experiments": ("run_experiment", "emit_result", "_multicopy_w_batch", "_singlecopy_w_batch"),
    "cli": ("main",),
}

# Entry points that are counted but get no span of their own.
COUNTED = {"rng": ("RngStream.__init__",)}

# The spans whose own time is protocol bookkeeping (see protocol.self_us).
_PROTOCOL_BOOKKEEPING = ("protocol.run_protocol", "protocol.PartyContext.send", "protocol.validate_transcript")
_PROJECTOR_BUILD = ("symmetric.sym_projector", "symmetric.sym_basis")


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, thread)
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()  # (span name, exception class name)
        self.frame_bytes: list[int] = []  # party messages only, as transcript_cost counts
        self.transcript_bytes: list[int] = []
        self.mp_channel_flops: list[int] = []
        self.batch_trials = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # --- recording ---

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, post=None):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, threading.get_ident()))
            if hook is not None:
                hook(self, args, out)
            return post(out) if post is not None else out

        return traced

    def count(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # --- installing ---

    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items()) if n == "dqipe" or n.startswith("dqipe.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"dqipe.{layer}")
            for attr in ENTRY_POINTS[layer]:
                name = f"{layer}.{attr}"
                post = self._wrap_strategies if attr.endswith("_strategies") else None
                self._patch(mod, attr, modules, lambda fn, n=name, p=post: self.wrap(fn, n, p))
            for attr in COUNTED.get(layer, ()):
                self._patch(mod, attr, modules, lambda fn, n=f"{layer}.{attr}": self.count(fn, n))
        return self

    def _patch(self, mod, attr: str, modules, make) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, key, original))
                    setattr(m, key, wrapper)

    def _wrap_strategies(self, strategies):
        return tuple(self.wrap(s, "protocol.strategy") for s in strategies)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # --- output ---

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, thread in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "thread": thread}) + "\n")


def _hook_run_protocol(tracer, args, out):
    sizes = [m.nbytes for m in out.messages]
    tracer.frame_bytes.extend(sizes)
    tracer.transcript_bytes.append(sum(sizes))


def _hook_validate(tracer, args, out):
    if out != "ok":
        tracer.counts["protocol.invalid_transcripts"] += 1


def _hook_mp_channel(tracer, args, out):
    # multiply-adds of the contraction over the 2k-copy projector (n^4) and of
    # the two n x n projections (2 n^3), two flops each; computed from shapes
    n = args[1] ** args[2]
    tracer.mp_channel_flops.append(2 * (n**4 + 2 * n**3))


def _hook_batch_kernel(tracer, args, out):
    tracer.batch_trials += int(args[3])


_HOOKS = {
    "protocol.run_protocol": _hook_run_protocol,
    "protocol.validate_transcript": _hook_validate,
    "symmetric.mp_channel": _hook_mp_channel,
    "experiments._multicopy_w_batch": _hook_batch_kernel,
    "experiments._singlecopy_w_batch": _hook_batch_kernel,
}


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part covered by its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, _, _, start, end, _ in spans}


def layer_self_s(spans) -> dict[str, float]:
    """Seconds of self time per layer, summed over threads."""
    own = self_times(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for sid, _, name, *_ in spans:
        out[name.split(".", 1)[0]] += own[sid]
    return out


def span_summary(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, median microseconds."""
    own = self_times(spans)
    durs: dict[str, list[float]] = defaultdict(list)
    selfs: dict[str, float] = defaultdict(float)
    for sid, _, name, start, end, _ in spans:
        durs[name].append(end - start)
        selfs[name] += own[sid]
    return {
        name: {"calls": len(d), "total_s": sum(d), "self_s": selfs[name],
               "median_us": statistics.median(d) * 1e6}
        for name, d in sorted(durs.items())
    }


def layer_metrics(tracer: Tracer, trials: int) -> dict[str, float]:
    """Per-layer metrics of one run of `trials` trials.

    Times that need a call to the entry point are left out when the run made
    none; counts are always present."""
    spans = tracer.spans
    own = self_times(spans)
    durs: dict[str, list[float]] = defaultdict(list)
    by_id = {}
    children: dict[int, list[int]] = defaultdict(list)
    for span in spans:
        sid, parent, name, start, end, _ = span
        durs[name].append(end - start)
        by_id[sid] = span
        children[parent].append(sid)

    def median(name, scale):
        return median_of(durs[name], scale)

    def total(names, scale):
        values = [d for n in names for d in durs[n]]
        return sum(values) * scale if values else None

    frames = len(durs["wire.make_frame"])
    out = {
        "rng.child_us": median("rng.RngStream.child", 1e6),
        "rng.streams_per_trial": tracer.counts["rng.RngStream.__init__"] / trials,
        "wire.encode_us": total(("wire.make_frame", "wire.encode_frame"), 1e6 / max(frames, 1)),
        "wire.decode_us": total(("wire.decode_frame", "wire.decode_payload"), 1e6 / max(frames, 1)),
        "wire.json_passes_per_frame": (len(durs["wire.encode_frame"]) + len(durs["wire.decode_frame"])) / frames if frames else 0.0,
        "wire.exchange_us": median_of(durs["wire.InprocTransport.exchange"] + durs["wire.TcpTransport.exchange"], 1e6),
        "wire.frames_per_trial": frames / trials,
        "wire.frame_bytes_p50": float(statistics.median(tracer.frame_bytes)) if tracer.frame_bytes else 0.0,
        "wire.errors": float(sum(n for (name, exc), n in tracer.raised.items()
                                 if name.startswith("wire.") and exc == "WireError")),
        "wire.bytes_per_trial": sum(tracer.transcript_bytes) / trials,
        "protocol.run_us": median("protocol.run_protocol", 1e6),
        "protocol.validate_us": median("protocol.validate_transcript", 1e6),
        "protocol.violations": float(tracer.counts["protocol.invalid_transcripts"] + sum(
            n for (name, exc), n in tracer.raised.items() if exc == "ProtocolViolation"
            and name == "protocol.run_protocol")),
        "symmetric.povm_sample_us": median("symmetric.standard_povm_sample", 1e6),
        "symmetric.mp_channel_ms": median("symmetric.mp_channel", 1e3),
        "symmetric.mp_channel_flops": statistics.fmean(tracer.mp_channel_flops) if tracer.mp_channel_flops else 0.0,
        "symmetric.rho_u_closed_form_ms": median("symmetric.rho_u_closed_form", 1e3),
        "estimators.make_state_pair_us": median("estimators.make_state_pair", 1e6),
        "estimators.born_sample_us": median("estimators.born_sample", 1e6),
        "estimators.classical_collision_us": median("estimators.classical_collision", 1e6),
        "linalg.haar_unitary_us": median("linalg.sample_haar_unitary", 1e6),
        "linalg.density_check_us": median("linalg.DensityMatrix.__post_init__", 1e6),
        "linalg.eig_ms": total(("linalg.trace_distance", "linalg.dmax"), 1e3),
        "experiments.batch_kernel_ns_per_trial": (
            total(("experiments._multicopy_w_batch", "experiments._singlecopy_w_batch"), 1e9) / tracer.batch_trials
            if tracer.batch_trials else None),
        "experiments.self_s": sum(own[sid] for sid, _, n, *_ in spans if n == "experiments.run_experiment")
        if durs["experiments.run_experiment"] else None,
        "experiments.emit_ms": median("experiments.emit_result", 1e3),
    }

    # symmetric.projector_build_s: outermost projector/basis builds; cache hits cost ~1 us
    builds = [end - start for sid, parent, name, start, end, _ in spans
              if name in _PROJECTOR_BUILD and not _has_ancestor(by_id, parent, _PROJECTOR_BUILD)]
    out["symmetric.projector_build_s"] = sum(builds) if builds else None

    # protocol.self_us: run_protocol minus its wire, strategy and other-layer
    # children, i.e. the self time of the protocol bookkeeping spans under it
    per_run = []
    for sid, _, name, *_ in spans:
        if name == "protocol.run_protocol":
            acc, todo = 0.0, [sid]
            while todo:
                cur = todo.pop()
                if by_id[cur][2] in _PROTOCOL_BOOKKEEPING:
                    acc += own[cur]
                todo.extend(children[cur])
            per_run.append(acc)
    out["protocol.self_us"] = statistics.median(per_run) * 1e6 if per_run else None
    return {k: float(v) for k, v in out.items() if v is not None}


def median_of(values, scale):
    return statistics.median(values) * scale if values else None


def _has_ancestor(by_id, parent, names) -> bool:
    while parent >= 0:
        span = by_id[parent]
        if span[2] in names:
            return True
        parent = span[1]
    return False
