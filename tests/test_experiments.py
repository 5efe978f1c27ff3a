import dataclasses
import hashlib
import importlib.util
import json
import math
import pathlib
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqipe import estimators as est
from dqipe import experiments as ex
from dqipe import linalg, oracles, protocol, wire
from dqipe import rng as rng_module
from dqipe import symmetric as sym
from dqipe.cli import build_parser, main as cli_main
from dqipe.linalg import DensityMatrix, PureState, dmax, overlap2
from dqipe.rng import RngStream

seeds = st.integers(min_value=0, max_value=2**31)


# --- config ---


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ex.ExperimentConfig("no-such-experiment")
    with pytest.raises(ValueError):
        ex.ExperimentConfig("dipe-threshold", trials=0)
    with pytest.raises(ValueError):
        ex.ExperimentConfig("dipe-threshold", f=1.5)
    with pytest.raises(ValueError):
        ex.ExperimentConfig("dipe-threshold", fmt="xml")


def test_config_dict_roundtrip():
    cfg = ex.ExperimentConfig("dipe-threshold", d=64, trials=10, seed=3, fmt="csv")
    assert ex.ExperimentConfig.from_dict(cfg.to_dict()) == cfg


# --- generators ---


def test_dipe_instance_cases():
    r = RngStream(1)
    phi, psi = ex.gen_dipe_instance(4, 1, r.child(0))
    assert overlap2(phi, psi) == pytest.approx(1.0, abs=1e-12)
    a1, b1 = ex.gen_dipe_instance(4, 2, r.child(1))
    a2, b2 = ex.gen_dipe_instance(4, 2, r.child(1))
    assert np.array_equal(a1.amplitudes, a2.amplitudes)
    assert np.array_equal(b1.amplitudes, b2.amplitudes)
    with pytest.raises(ValueError):
        ex.gen_dipe_instance(4, 3, r.child(2))


def test_dipe_case2_mean_overlap():
    d = 64
    r = RngStream(2)
    xs = np.array(
        [overlap2(*ex.gen_dipe_instance(d, 2, r.child(t))) for t in range(10000)]
    )
    se = xs.std(ddof=1) / math.sqrt(xs.size)
    assert xs.mean() == pytest.approx(1 / d, abs=3 * se)


def test_problem1_instance_structure():
    d, eps = 16, 0.2
    r = RngStream(3)
    a, b = ex.gen_problem1_instance(d, eps, 1, r.child(0))
    assert a.dim == d + 1 and b.dim == d + 1
    assert abs(a.amplitudes[0]) ** 2 == pytest.approx(1 - eps, abs=1e-12)
    assert abs(b.amplitudes[0]) ** 2 == pytest.approx(1 - eps, abs=1e-12)
    # case 1 keeps the tails parallel: overlap depends only on the phases
    delta = np.angle(b.amplitudes[0]) - np.angle(a.amplitudes[0])
    want = 1 - 2 * eps + 2 * eps**2 + 2 * eps * (1 - eps) * math.cos(delta)
    assert overlap2(a, b) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize(
    "d,eps,case,message",
    [
        (1, 0.1, 1, "d must be >= 2"),
        (8, 0.1, 3, "case must be 1 or 2"),
        (8, 0.0, 1, "eps must be in \\(0, 1\\)"),
        (8, 1.0, 2, "eps must be in \\(0, 1\\)"),
    ],
)
def test_problem1_instance_refuses_bad_arguments(d, eps, case, message):
    with pytest.raises(ValueError, match=message):
        ex.gen_problem1_instance(d, eps, case, RngStream(0))


def test_problem1_case2_mean_overlap():
    d, eps = 64, 0.1
    r = RngStream(4)
    xs = np.array(
        [
            overlap2(*ex.gen_problem1_instance(d, eps, 2, r.child(t)))
            for t in range(10000)
        ]
    )
    se = xs.std(ddof=1) / math.sqrt(xs.size)
    want = (1 - eps) ** 2 + eps**2 / d
    assert xs.mean() == pytest.approx(want, abs=3 * se)


def _load_calibrate_script():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "calibrate_dipe.py"
    spec = importlib.util.spec_from_file_location("calibrate_dipe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [7, 8])
def test_calibration_replays_dipe_threshold_draws(seed):
    # at c=1 (k=8) case 1 succeeds about half the time, so other draws
    # would most likely give another hit count
    d, c, trials = 64, 1, 60
    hits = _load_calibrate_script().hit_counts(d, c, trials, seed)
    k = c * math.ceil(math.sqrt(d))
    cfg = ex.ExperimentConfig("dipe-threshold", d=d, k=k, trials=trials, seed=seed)
    summary = ex.run_experiment(cfg).summary
    for case in (1, 2):
        assert hits[case] == round(summary[f"success_rate_case{case}"] * trials)


# --- stream blocks ---


_PREFETCHED_LOOPS = [
    ("estimate-multicopy", {}),
    ("estimate-singlecopy", {"n_bases": 3}),
    ("dipe-threshold", {"d": 16}),
    ("dipe-pi0", {}),
    ("problem1-distinguish", {}),
]


def _streams_with_and_without_blocks(cfg, monkeypatch):
    """cfg's document with RngStream.trials blocks and without them, and how
    many streams each run built from a block and from a SeedSequence."""
    built = []

    class TableWords(rng_module._SeedWords):
        def __init__(self, words):
            built[-1]["table"] += 1
            super().__init__(words)

    # seed_words builds a SeedSequence for each block's pool, so count the
    # streams seeded from one, not the SeedSequences built
    class CountedPCG64(np.random.PCG64):
        def __init__(self, seed_seq):
            if isinstance(seed_seq, np.random.SeedSequence):
                built[-1]["seed_sequence"] += 1
            super().__init__(seed_seq)

    monkeypatch.setattr(rng_module, "_SeedWords", TableWords)
    monkeypatch.setattr(np.random, "PCG64", CountedPCG64)
    # blocks of 7 trials: 20 trials end in a partial block
    monkeypatch.setattr(rng_module, "TRIAL_BLOCK", 7)

    def document():
        built.append({"table": 0, "seed_sequence": 0})
        doc = json.loads(ex.emit_result(ex.run_experiment(cfg)))
        del doc["wall_clock"]
        return doc

    with_blocks = document()
    with monkeypatch.context() as m:
        # a plain range sets no block, so every stream builds its SeedSequence
        m.setattr(rng_module.RngStream, "trials", lambda self, n: iter(range(n)))
        without = document()
    return with_blocks, without, built


@pytest.mark.parametrize("seed", [3, 2**64 + 1])
@pytest.mark.parametrize("experiment,overrides", _PREFETCHED_LOOPS)
def test_stream_prefetch_changes_no_output(experiment, overrides, seed, monkeypatch):
    """Blocks only make streams cheaper: without them each loop gives the
    same document; with them, every stream the loop builds comes from its
    block."""
    cfg = ex.ExperimentConfig(experiment, trials=20, seed=seed, **overrides)
    with_blocks, without, (blocked, plain) = _streams_with_and_without_blocks(cfg, monkeypatch)
    assert blocked["table"] > 0 and blocked["seed_sequence"] == 0
    assert without == with_blocks
    assert plain["table"] == 0 and plain["seed_sequence"] > 0


@pytest.mark.parametrize("seed", [3, 2**64 + 1])
def test_mp_bound_check_blocks_change_no_output(seed, monkeypatch):
    # the anchor stream, child(trials), lies past the loop's blocks, so it
    # builds its SeedSequence either way
    cfg = ex.ExperimentConfig("mp-bound-check", trials=20, seed=seed)
    with_blocks, without, (blocked, plain) = _streams_with_and_without_blocks(cfg, monkeypatch)
    assert "anchor_dev" in with_blocks["summary"] and blocked["table"] == cfg.trials
    assert without == with_blocks
    assert plain["table"] == 0 and plain["seed_sequence"] > blocked["seed_sequence"]


# --- batch kernels ---


def _singlecopy_w_loop(d, m, f, n, g):
    """Per-trial form of the single-copy kernel through the protocol's own
    steps: the n=1 Born draw of the party step and the referee step with its
    collision statistic. The kernel must match it bit for bit."""
    phi, psi = est.state_pairs(d, f, n, g)
    z = linalg.complex_normals((n, d, d), g)
    stream = types.SimpleNamespace(rng=g)  # the party's stream: its Generator
    w = np.empty(n)
    for i in range(n):
        u = linalg.haar_unitaries(z[i])
        x = est.born_sample(PureState(phi[i]), u, m, stream)
        y = est.born_sample(PureState(psi[i]), u, m, stream)
        w[i] = est.singlecopy_referee(x[None], y[None], d)[0]
    return w


_BLOCK = linalg.ROW_BLOCK


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5000])
@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("m", [1, 32])
def test_singlecopy_batch_matches_per_trial_loop(n, d, m):
    g_batch = np.random.default_rng([n, d, m])
    g_loop = np.random.default_rng([n, d, m])
    w = ex._singlecopy_w_batch(d, m, 0.3, n, g_batch)
    want = _singlecopy_w_loop(d, m, 0.3, n, g_loop)
    assert w.shape == (n,)
    assert np.array_equal(w.view(np.int64), want.view(np.int64))
    # the generator is left where the loop leaves it
    assert g_batch.integers(2**62) == g_loop.integers(2**62)


@pytest.mark.parametrize("d", [2, 8, 32])
def test_singlecopy_batch_and_loop_draw_from_the_same_probabilities(d, monkeypatch):
    # the multinomial hides last-bit differences in its probabilities, so
    # w alone cannot show that the party's Born probabilities are the kernel's
    seen = {"batch": [], "loop": []}
    born_counts = est.born_counts

    def spy(probs, m, g):
        seen[side].append(probs.reshape(-1, d).copy())
        return born_counts(probs, m, g)

    monkeypatch.setattr(est, "born_counts", spy)
    side = "batch"
    ex._singlecopy_w_batch(d, 4, 0.3, 50, np.random.default_rng(d))
    side = "loop"
    _singlecopy_w_loop(d, 4, 0.3, 50, np.random.default_rng(d))
    batch, loop = np.concatenate(seen["batch"]), np.concatenate(seen["loop"])
    assert batch.shape == loop.shape == (100, d)
    assert np.array_equal(batch.view(np.int64), loop.view(np.int64))


class _Recorder:
    """Wraps a Generator and keeps every draw: (method name, array)."""

    def __init__(self, g):
        self.g, self.draws = g, []

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            out = getattr(self.g, name)(*args, **kwargs)
            self.draws.append((name, out))
            return out

        return draw


class _RowReplay:
    """Stands in for a Generator: each draw returns row i of the next
    recorded draw, which must have been made by the same method."""

    def __init__(self, draws, i):
        self._rows = iter((name, out[i : i + 1]) for name, out in draws)

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            recorded, row = next(self._rows)
            assert recorded == name
            return row

        return draw


@pytest.mark.parametrize(
    "d,k,f,n",
    [(2, 1, 0.0, 40), (8, 16, 0.5, 40), (33, 5, 1.0, 40), (4, 3, 0.7, linalg.ROW_BLOCK + 1)],
    ids=["2-1-0.0", "8-16-0.5", "33-5-1.0", "above-one-row-block"],
)
def test_multicopy_batch_rows_equal_the_protocol_steps(d, k, f, n):
    # each row of the kernel, replayed through the n=1 state pair, POVM and
    # referee calls that the direct API and the strategies make
    rec = _Recorder(np.random.default_rng([d, k]))
    w = ex._multicopy_w_batch(d, k, f, n, rec)
    steps = np.empty(n)
    for i in range(n):
        stream = types.SimpleNamespace(rng=_RowReplay(rec.draws, i))
        phi, psi = est.make_state_pair(d, f, stream)
        u = sym.standard_povm_sample(phi, k, stream)
        v = sym.standard_povm_sample(psi, k, stream)
        steps[i] = est.multicopy_referee(u, v, k)[0]
    assert np.array_equal(w.view(np.int64), steps.view(np.int64))


# sha256 of w's bytes from each kernel at d=8, n = 3 blocks + 1 row, taken
# before the kernels worked in blocks: blocking may change no bit
_PINNED_KERNELS = {
    "multicopy": "762179c635b5080ac8efadeb8d4c387704e7f3047b3ce242441a50aa120f6e9b",
    "singlecopy": "803689b8642a7b55bce78f7da3501cf6dd501d27fa93e208e053206acc825f94",
}


def test_batch_kernels_pinned_across_blocks():
    n = 6145
    assert n == 3 * linalg.ROW_BLOCK + 1
    ws = {
        "multicopy": ex._multicopy_w_batch(8, 16, 0.5, n, np.random.default_rng([8, n])),
        "singlecopy": ex._singlecopy_w_batch(8, 32, 0.5, n, np.random.default_rng([8, n])),
    }
    assert {key: hashlib.sha256(w.tobytes()).hexdigest() for key, w in ws.items()} == _PINNED_KERNELS


def _traced_peak(kernel, d, param, f, n):
    kernel(d, param, f, 10, np.random.default_rng(0))  # fills the kernels' caches
    tracemalloc.start()
    try:
        kernel(d, param, f, n, np.random.default_rng(1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_kernels_peak_under_their_stated_bytes():
    # the bounds of the kernels' docstrings; whole-run temporaries break them,
    # and so does a single-copy block counted in trials at d=33
    for n, d in [(20_000, 8), (5_000, 33)]:
        big = min(n, linalg.ROW_BLOCK)
        b = min(big, max(1, 64 * linalg.ROW_BLOCK // d**2))
        multicopy = 56 * n * d + 56 * n + 32 * d * linalg.ROW_BLOCK
        singlecopy = 8 * n * d * d + 48 * n * d + 8 * n + 80 * b * d * d + 64 * big * d + 16 * 1024
        assert _traced_peak(ex._multicopy_w_batch, d, 16, 0.5, n) <= multicopy
        assert _traced_peak(ex._singlecopy_w_batch, d, 32, 0.5, n) <= singlecopy


def test_singlecopy_batch_matches_per_trial_loop_across_byte_sized_blocks():
    # at d=33 a block holds 120 matrices, so 250 trials take three
    d, m, n = 33, 8, 250
    assert n > 2 * (64 * linalg.ROW_BLOCK // d**2)
    w = ex._singlecopy_w_batch(d, m, 0.3, n, np.random.default_rng([n, d, m]))
    want = _singlecopy_w_loop(d, m, 0.3, n, np.random.default_rng([n, d, m]))
    assert np.array_equal(w.view(np.int64), want.view(np.int64))


def test_variance_check_singlecopy_summary_pinned():
    # 3000 trials span two blocks; values from the per-trial kernel
    cfg = ex.ExperimentConfig(
        "variance-check-singlecopy", d=8, m=32, f=0.5, trials=3000, seed=11
    )
    result = ex.run_experiment(cfg)
    assert result.summary == {
        "mean_w": 0.5013505859375,
        "se": 0.008852661366396548,
        "empirical_var": 0.23510883980427,
        "exact_var": 0.2318964177911932,
        "ratio": 1.0138528315515825,
        "m": 32,
        "f": 0.5,
    }
    assert result.passed


# --- wilson intervals ---


@given(
    n=st.integers(min_value=1, max_value=10000),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=50, deadline=None)
def test_wilson_interval_contains_point_estimate(n, frac):
    s = int(round(frac * n))
    lo, hi = ex.wilson_interval(s, n)
    assert 0.0 <= lo <= hi <= 1.0
    assert lo - 1e-12 <= s / n <= hi + 1e-12


def test_wilson_interval_known_value():
    lo, hi = ex.wilson_interval(50, 100)
    assert lo == pytest.approx(0.4038, abs=2e-3)
    assert hi == pytest.approx(0.5962, abs=2e-3)


# --- gate rules at their edges ---


@pytest.mark.parametrize(
    "emp,passed",
    [
        (0.95, True),
        (1.05, True),
        (float(np.nextafter(0.95, 0.0)), False),
        (float(np.nextafter(1.05, 2.0)), False),
    ],
)
def test_variance_gate_band_edges(emp, passed):
    band, ok = ex._variance_gate(emp, 1.0)
    assert band == {"empirical_var": emp, "exact_var": 1.0, "ratio": emp}
    assert list(band) == ["empirical_var", "exact_var", "ratio"]
    assert ok is passed


def test_mean_gate_edges():
    # a sample with no spread passes on its target and fails off it
    assert ex._mean_gate(0.5, 0.5, 0.0) == (0.0, True)
    assert ex._mean_gate(0.3, 0.5, 0.0) == (math.inf, False)
    assert ex._mean_gate(4.0, 0.0, 1.0) == (4.0, True)
    z, ok = ex._mean_gate(float(np.nextafter(4.0, 5.0)), 0.0, 1.0)
    assert z > 4.0 and not ok


@pytest.mark.parametrize("experiment", ["estimate-multicopy", "estimate-singlecopy"])
def test_mean_gate_passes_d1_estimates_on_target(experiment):
    # at d=1 every w is exactly f = 1: a sample with no spread, on its target
    assert cli_main([experiment, "--d", "1", "--f", "1", "--trials", "50"]) == 0


def test_mean_gate_fails_a_zero_spread_sample_off_target(monkeypatch):
    # a referee that reports 0.9 at d=1 gives a sample with no spread whose
    # mean is off the target f = 1
    monkeypatch.setattr(protocol, "multicopy_referee", lambda u, v, k: (0.9, 1.0))
    assert cli_main(["estimate-multicopy", "--d", "1", "--f", "1", "--trials", "50"]) == 1


def test_wilson_gate_records_case_2_after_case_1_fails():
    # a decider that always answers 2: case 1 never succeeds, case 2 always
    trials = 30
    summary: dict = {}

    def always_2(case, t, stream):
        return 2

    assert not ex._wilson_gate(summary, trials, lambda case: ex._case_hits(case, trials, RngStream(0), always_2))
    lo, hi = ex.wilson_interval(trials, trials)
    assert summary == {
        "success_rate_case1": 0.0,
        "wilson_lo_case1": 0.0,
        "wilson_hi_case1": ex.wilson_interval(0, trials)[1],
        "success_rate_case2": 1.0,
        "wilson_lo_case2": lo,
        "wilson_hi_case2": hi,
    }
    assert lo >= 2.0 / 3.0
    assert ex._wilson_gate({}, trials, {1: trials, 2: trials}.get)


# --- result files ---


def _result(fmt):
    cfg = ex.ExperimentConfig(
        "estimate-multicopy", d=4, k=4, f=0.5, trials=5, seed=1, fmt=fmt
    )
    return ex.run_experiment(cfg)


def test_json_roundtrip():
    r = _result("json")
    assert ex.parse_result(ex.emit_result(r)).content_equal(r)


def test_csv_roundtrip():
    r = _result("csv")
    assert ex.parse_result(ex.emit_result(r)).content_equal(r)


def test_csv_roundtrip_summary_only():
    cfg = ex.ExperimentConfig("tracedist-check", d=25, k=3, seed=1, fmt="csv")
    r = ex.run_experiment(cfg)
    back = ex.parse_result(ex.emit_result(r))
    assert back.config == r.config and back.summary == r.summary


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_documents_with_dropped_setting_key_still_parse(fmt):
    r = _result(fmt)
    text = ex.emit_result(r)
    if fmt == "json":
        doc = json.loads(text)
        doc["config"] = {**doc["config"], "setting": "smp"}
        old = json.dumps(doc, indent=2)
    else:
        lines = text.split("\n")
        i = next(i for i, line in enumerate(lines) if line.startswith("# config: "))
        config = json.loads(lines[i][len("# config: "):])
        lines[i] = f"# config: {json.dumps({**config, 'setting': 'smp'})}"
        old = "\n".join(lines)
    assert '"setting": "smp"' in old
    assert ex.parse_result(old).content_equal(r)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_documents_carry_the_output_version(fmt):
    r = _result(fmt)
    text = ex.emit_result(r)
    if fmt == "json":
        assert json.loads(text)["output_version"] == ex.OUTPUT_VERSION == 2
    else:
        assert text.startswith("# output_version: 2\n")
    back = ex.parse_result(text)
    assert back.output_version == 2 and back.content_equal(r)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_documents_without_output_version_are_version_1(fmt):
    r = _result(fmt)
    text = ex.emit_result(r)
    if fmt == "json":
        doc = json.loads(text)
        del doc["output_version"]
        old = json.dumps(doc, indent=2)
    else:
        old = text.split("\n", 1)[1]
        assert old.startswith("# config: ")
    back = ex.parse_result(old)
    assert back.output_version == 1
    assert (back.config, back.rows, back.summary, back.passed) == (r.config, r.rows, r.summary, r.passed)
    # the same content under another version is another document
    assert not back.content_equal(r)


def test_same_config_same_output():
    a, b = _result("csv"), _result("csv")
    assert ex.emit_result(a) == ex.emit_result(b)


def test_estimate_rows_schema():
    r = _result("json")
    assert len(r.rows) == 5
    assert list(r.rows[0].keys()) == ["trial", "seed_path", "w", "raw_stat"]


# --- sweep invariant ---


def test_multicopy_error_p90_decreases_in_k():
    d, f = 8, 0.5
    g = np.random.default_rng(17)
    p90 = []
    for k in (2, 8, 32, 128):
        w = ex._multicopy_w_batch(d, k, f, 4000, g)
        p90.append(np.quantile(np.abs(w - f), 0.9))
    assert all(a > b for a, b in zip(p90, p90[1:]))


# --- cli ---


def test_cli_has_a_flag_for_every_config_field():
    flags = {action.dest for action in build_parser()._actions if action.option_strings}
    fields = {field.name for field in dataclasses.fields(ex.ExperimentConfig)}
    assert fields - {"experiment"} <= flags


def test_readme_cli_table_names_every_experiment_in_order():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| name | what it does |") + 2  # past the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1].strip())
    assert tuple(rows) == tuple(f"`{name}`" for name in ex.EXPERIMENTS)


def test_cli_pass_exit_code(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = cli_main(
        ["tracedist-check", "--d", "25", "--k", "3", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


def test_cli_fail_exit_code(tmp_path, capsys):
    # k=1 cannot decide the promise at d=64: case 1 success is far below 2/3
    out = tmp_path / "r.json"
    code = cli_main(
        [
            "dipe-threshold", "--d", "64", "--k", "1", "--trials", "60",
            "--seed", "2", "--out", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("dipe-threshold: FAIL")
    assert json.loads(out.read_text())["passed"] is False


def test_dipe_threshold_passes_at_its_defaults():
    # d=8, the smallest calibrated dimension, at k = c * ceil(sqrt(8)) = 24
    result = ex.run_experiment(ex.ExperimentConfig("dipe-threshold", trials=300))
    assert result.summary["k"] == 24
    assert result.passed


@pytest.mark.parametrize("d", [16, 64, 256])
def test_dipe_threshold_fails_at_sqrt_d_copies(d):
    # k = ceil(sqrt(d)) (c=1): the estimate exceeds 1/2 in case 1 about half
    # the time, so the gate must FAIL
    k = math.ceil(math.sqrt(d))
    result = ex.run_experiment(ex.ExperimentConfig("dipe-threshold", d=d, k=k, trials=200))
    assert not result.passed
    assert result.summary["success_rate_case1"] < 0.6


def test_dipe_threshold_below_its_smallest_calibrated_d_exits_2(capsys):
    min_d = ex.load_defaults()["dipe_threshold_min_d"]
    assert cli_main(["dipe-threshold", "--d", str(min_d - 1), "--k", "64", "--trials", "5"]) == 2
    assert capsys.readouterr().err == (
        f"dqipe: dipe-threshold needs d >= {min_d}, the smallest d it is calibrated at\n"
    )


@pytest.mark.parametrize("experiment", ["tracedist-check", "spectrum-check", "mp-bound-check"])
def test_sym_k_checks_pass_at_d1(experiment, capsys):
    # Sym^k(C^1) is one-dimensional: rho_u is the 1 x 1 identity
    assert cli_main([experiment, "--d", "1", "--trials", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    deviations = {"tracedist-check": "dense", "spectrum-check": "max_entry_dev", "mp-bound-check": "anchor_dev"}
    assert doc["summary"][deviations[experiment]] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum-check", "--d", "12", "--k", "4"],  # DenseBudgetError
        ["dipe-threshold", "--d", "1"],
        ["estimate-multicopy", "--seed", "-1", "--trials", "2"],
        # nothing listens on port 1: the connection is refused
        ["estimate-multicopy", "--trials", "2", "--transport", "tcp:127.0.0.1:1"],
        # the exact variance refuses d < 2 before the kernel draws
        ["variance-check-singlecopy", "--d", "1", "--trials", "50"],
        ["variance-check-multicopy", "--d", "1", "--trials", "50"],
        # an exact variance of 0 leaves the variance gate no ratio
        ["variance-check-swap", "--f", "1"],
        # one trial has no sample variance, so no gate can judge it
        ["variance-check-swap", "--trials", "1"],
        ["variance-check-multicopy", "--trials", "1"],
        ["variance-check-singlecopy", "--trials", "1"],
        ["estimate-multicopy", "--trials", "1"],
        ["estimate-singlecopy", "--trials", "1"],
        ["dipe-pi0", "--trials", "1"],
        ["moment-check", "--trials", "1"],
        # in C^1 the moments are exact up to rounding: no spread to judge
        ["moment-check", "--d", "1"],
    ],
)
def test_cli_run_errors_exit_2_with_one_line(argv, capsys):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dqipe: ")


_NUMPY_OOM = "Unable to allocate 11.6 TiB for an array with shape (100000000000, 8) and data type complex128"


@pytest.mark.parametrize(
    "error,line",
    [(MemoryError(), "dqipe: out of memory"), (MemoryError(_NUMPY_OOM), f"dqipe: {_NUMPY_OOM}")],
    ids=["bare", "numpy"],
)
def test_cli_out_of_memory_exits_2_with_one_line(error, line, monkeypatch, capsys):
    # a kernel raises instead of allocating: a real huge allocation need not fail fast
    def kernel(*args):
        raise error

    monkeypatch.setattr(ex, "_multicopy_w_batch", kernel)
    assert cli_main(["variance-check-multicopy", "--trials", "100000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


def _refuse_dense_work(*args):
    raise AssertionError("dense work ran before the budget guard")


def _spectrum_check_refused(d, k, monkeypatch, capsys):
    """spectrum-check's stderr line, asserting that it exits 2 with no dense work."""
    monkeypatch.setattr(sym, "rho_u_closed_form", _refuse_dense_work)
    monkeypatch.setattr(oracles, "sym_projector_perm_sum", _refuse_dense_work)
    assert cli_main(["spectrum-check", "--d", str(d), "--k", str(k)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_spectrum_check_oracle_over_budget_exits_2_before_dense_work(monkeypatch, capsys):
    # the oracle's projector on 2k = 8 factors alone would take 32 GiB
    assert _spectrum_check_refused(4, 4, monkeypatch, capsys) == (
        "dqipe: rho_u_numeric: needs 98308.0 MiB, over the byte budget of 256 MiB\n"
    )


@pytest.mark.parametrize(
    "d,k,message",
    [
        # (2k)! d^(4k) updates: hours of work in a few MiB
        (2, 5, "3.81e+12 element updates, over the work budget of 1e+10"),
        (3, 4, "needs 985.7 MiB, over the byte budget of 256 MiB"),
        (2, 7, "needs 6145.0 MiB, over the byte budget of 256 MiB"),
        # 1.2e10 updates and 384 MiB: refused on both counts
        (4, 3, "needs 384.2 MiB, over the byte budget of 256 MiB"),
    ],
)
def test_spectrum_check_oracle_work_over_budget_exits_2(d, k, message, monkeypatch, capsys):
    assert _spectrum_check_refused(d, k, monkeypatch, capsys) == f"dqipe: rho_u_numeric: {message}\n"


class _GuardPassed(Exception):
    pass


@pytest.mark.parametrize("d,k", [(3, 2), (3, 3), (2, 4)])
def test_spectrum_check_oracle_within_budget_runs(d, k, monkeypatch):
    # (2, 4) makes 2.6e9 updates, about 20 s of work, under the 1e10 bound
    def reached(*args):
        raise _GuardPassed

    monkeypatch.setattr(oracles, "sym_projector_perm_sum", reached)
    with pytest.raises(_GuardPassed):
        cli_main(["spectrum-check", "--d", str(d), "--k", str(k)])


def _mp_bound_trials(d, k, trials, seed):
    """Each trial's output lifted to (C^d)^{⊗k} by the dense mp_channel."""
    basis = sym.sym_basis(d, k)
    n = basis.shape[1]
    root = RngStream(seed)
    outs = []
    for t in range(trials):
        g = root.child(t).rng
        z = g.standard_normal(n) + 1j * g.standard_normal(n)
        v = basis @ (z / np.linalg.norm(z))
        tau = DensityMatrix(np.outer(v, v.conj()))
        outs.append((tau, sym.mp_channel(tau, d, k)))
    return basis, outs


@pytest.mark.parametrize("d,k", [(4, 1), (4, 2), (6, 2), (4, 3)])
def test_mp_bound_check_statistics_equal_the_dense_ones(d, k):
    trials, seed = 4, 5
    result = ex.run_experiment(ex.ExperimentConfig("mp-bound-check", d=d, k=k, trials=trials, seed=seed))
    summary = result.summary
    floor = math.exp(-(k**2) / d)
    sigma_m = sym.maximally_mixed_sym(d, k)
    basis, outs = _mp_bound_trials(d, k, trials, seed)
    slack = min(
        float(np.linalg.eigvalsh(basis.T @ (out.matrix - floor * sigma_m.matrix) @ basis)[0])
        for _, out in outs
    )
    excess = max(dmax(sigma_m, out) - k**2 / d for _, out in outs)
    assert summary["min_eig_slack"] == pytest.approx(slack, rel=0, abs=1e-12)
    assert summary["max_dmax_excess"] == pytest.approx(excess, rel=0, abs=1e-10)
    assert summary["floor_over_D"] == floor / sym.sym_dimension(d, k)
    # the outputs themselves are the cloning mixture's, entry by entry
    for tau, out in outs:
        mixture = sym.chiribella_combination(tau, d, k).matrix
        assert np.max(np.abs(out.matrix - mixture)) <= 1e-10


def test_mp_bound_check_slack_is_positive_on_sym_k():
    # on all of (C^d)^{⊗k} the slack read about -5e-17, from the zeros off Sym^k
    summary = ex.run_experiment(ex.ExperimentConfig("mp-bound-check", d=4, k=3, trials=20)).summary
    assert summary["min_eig_slack"] > 0


def test_mp_bound_check_gate_has_power():
    # slack below a tenth of floor/D: a floor 10% higher would FAIL the gate
    result = ex.run_experiment(ex.ExperimentConfig("mp-bound-check", d=12, k=2, trials=20))
    assert result.passed
    assert 0 < result.summary["min_eig_slack"] < 0.1 * result.summary["floor_over_D"]


@pytest.mark.parametrize("d,k", [(9, 3), (12, 3), (16, 3), (12, 4)])
def test_mp_bound_check_runs_at_k_squared_over_d_near_one(d, k):
    result = ex.run_experiment(ex.ExperimentConfig("mp-bound-check", d=d, k=k, trials=2))
    assert result.passed and result.summary["min_eig_slack"] > 0
    # the anchor's lifts fit the budget at d^k = 729, not at 1728
    assert ("anchor_dev" in result.summary) == (d**k < 1000)


@pytest.mark.parametrize("d,k", [(2, 1), (4, 2), (4, 3)])
def test_mp_bound_check_anchor_sees_a_transposed_contraction(d, k, monkeypatch):
    config = ex.ExperimentConfig("mp-bound-check", d=d, k=k, trials=4)
    result = ex.run_experiment(config)
    assert result.passed and result.summary["anchor_dev"] <= 1e-14
    channel = sym.mp_channel_occupation
    monkeypatch.setattr(sym, "mp_channel_occupation", lambda x, d, k: channel(x.T, d, k))
    mutated = ex.run_experiment(config)
    # the spectrum cannot tell X from X^T; rho_u can
    assert mutated.summary["min_eig_slack"] == pytest.approx(result.summary["min_eig_slack"], abs=1e-12)
    assert mutated.summary["anchor_dev"] > 1e-3
    assert not mutated.passed


def test_mp_bound_check_over_budget_exits_2_before_the_trial_loop(monkeypatch, capsys):
    monkeypatch.setattr(sym, "type_vectors", _refuse_dense_work)
    monkeypatch.setattr(sym, "mp_channel_occupation", _refuse_dense_work)
    assert cli_main(["mp-bound-check", "--d", "16", "--k", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dqipe: ")


def test_tracedist_check_dense_value_unchanged():
    result = ex.run_experiment(ex.ExperimentConfig("tracedist-check", d=10, k=3, seed=1))
    assert result.summary["regime"] == "beta1>=1/D"
    # the value the dense (C^10)^{⊗3} computation gave at this seed
    assert result.summary["dense"] == pytest.approx(0.387362637362638, rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "d,k",
    # d^k = 2^18, 7^5 and 4^8 are out of reach of the embedded basis; D is 19, 462 and 165
    [(2, 1), (3, 3), (3, 4), (4, 3), (2, 5), (2, 14), (10, 3), (25, 3), (2, 18), (7, 5), (4, 8)],
)
def test_tracedist_check_reports_its_regime_and_passes(d, k, monkeypatch):
    # the dense value is computed on Sym^k alone
    monkeypatch.setattr(sym, "sym_basis", _refuse_dense_work)
    result = ex.run_experiment(ex.ExperimentConfig("tracedist-check", d=d, k=k))
    in_regime = sym.beta_coefficient_exact(d, k, 1) >= Fraction(1, sym.sym_dimension(d, k))
    assert result.summary["regime"] == ("beta1>=1/D" if in_regime else "general")
    assert result.passed
    # dense wherever the budget admits it; outside the regime it is the only check
    assert "dense" in result.summary or in_regime


def test_tracedist_check_outside_regime_over_budget_exits_2(monkeypatch, capsys):
    # D = C(23, 20) = 1771: its D x D arrays are over the byte budget
    monkeypatch.setattr(sym, "type_vectors", _refuse_dense_work)
    assert cli_main(["tracedist-check", "--d", "4", "--k", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dqipe: tracedist-check: beta_1 < 1/D")


def test_cli_usage_error_unknown_experiment():
    with pytest.raises(SystemExit) as exc:
        cli_main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_setting_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli_main(["estimate-multicopy", "--setting", "interactive", "--trials", "2"])
    assert exc.value.code == 2


def test_cli_usage_error_bad_config(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text('{"trials": 0}')
    code = cli_main(["tracedist-check", "--config", str(bad)])
    assert code == 2


@pytest.mark.parametrize(
    "experiment,text,field",
    [
        ("estimate-multicopy", '{"d": 8.5}', "d"),
        ("estimate-multicopy", '{"d": 1e400}', "d"),
        ("estimate-multicopy", '{"transport": 5}', "transport"),
        ("estimate-singlecopy", '{"m": 3.5}', "m"),
        ("estimate-singlecopy", '{"n_bases": 1.5}', "n_bases"),
        ("estimate-multicopy", '{"seed": "7"}', "seed"),
        ("estimate-multicopy", '{"d": true}', "d"),
        ("estimate-multicopy", '{"k": 2.5}', "k"),
        ("estimate-multicopy", '{"out": 1}', "out"),
        ("estimate-multicopy", '{"eps": false}', "eps"),
    ],
)
def test_cli_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, experiment, text, field):
    bad = tmp_path / "cfg.json"
    bad.write_text(text)
    assert cli_main([experiment, "--trials", "5", "--config", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"dqipe: {field} must be ")


def test_config_field_types_accept_what_they_name():
    cfg = ex.ExperimentConfig("estimate-multicopy", eps=1, f=0, out=None)
    assert (cfg.eps, cfg.f, cfg.out) == (1, 0, None)
    assert ex.ExperimentConfig("estimate-multicopy", out="r.json").out == "r.json"


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    # a "setting" key, which older versions read, is accepted and ignored
    cfg.write_text(json.dumps({"d": 25, "k": 3, "seed": 1, "fmt": "json", "setting": "smp"}))
    out = tmp_path / "r.json"
    code = cli_main(
        ["tracedist-check", "--config", str(cfg), "--d", "3", "--k", "2",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["d"] == 3 and doc["config"]["k"] == 2


def test_cli_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("DQIPE_SEED", "777")
    out = tmp_path / "r.json"
    assert cli_main(["tracedist-check", "--d", "25", "--k", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 777


# Seeded output pinned byte for byte: the sha256 of every in-process frame
# line, concatenated in send order, and of each result document without its
# wall_clock, re-serialised with indent=2. A change that alters any of them
# changes every downstream statistic, so it must re-pin these on purpose.
_PINNED_RUNS = [
    (["estimate-multicopy", "--trials", "30"],
     "ab0b1719dec8c9874ee2db14eeb346d202a9228db60bcce0c99e169de7aef026"),
    (["estimate-singlecopy", "--d", "8", "--m", "32", "--n-bases", "3", "--trials", "30"],
     "00cf6c41cb29e39b410d4d5abcbda7cbf65e9d648c42be55c5a8dc8c49778b2e"),
    (["dipe-pi0", "--d", "8", "--trials", "30"],
     "b77d6f2fdb676d343d2cf61836d3a515cd5a157fcece7d9c9f4d9c78e2163c1e"),
]
_PINNED_FRAMES = "9433f5f7b937024bb7bc217560e53bbfd48ea28693b0c7518049eb52bcc5204a"


def test_seeded_frames_and_results_pinned(monkeypatch, capsys):
    frames = hashlib.sha256()
    count = 0
    exchange = wire.InprocTransport.exchange

    def recording(self, line):
        nonlocal count
        frames.update(line.encode("utf-8"))
        count += 1
        return exchange(self, line)

    monkeypatch.setattr(wire.InprocTransport, "exchange", recording)
    for argv, want in _PINNED_RUNS:
        assert cli_main(argv + ["--seed", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["wall_clock"]
        assert hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest() == want, argv[0]
    assert count == 240
    assert frames.hexdigest() == _PINNED_FRAMES


# The same pin, with the exit code, for the experiments that send no
# frames; a FAIL is pinned as well, so no re-seed can hide it.
_PINNED_VERDICTS = [
    (["dipe-threshold", "--trials", "30"], 0,
     "66f6dea389655f831b59a5166c06d5cc0bd8bf7bc1aa983a0e64fede1c7cabe3"),
    (["problem1-distinguish", "--trials", "30"], 1,
     "15ff3e8bc7dd90e8c05ff8c934e9e72a7b80610e931c3551abd0667c12f1ce87"),
    (["moment-check", "--trials", "200"], 0,
     "e6ad7519d6539ca299a4e1013aef5f898e53485e41d8fb0e1901c6dadb0791f6"),
    (["variance-check-multicopy", "--trials", "200"], 1,
     "2d070746b93d9e7fd8d9cde2ec8888d94a40cb7a7d1c93f30c01d2bc95070437"),
    (["variance-check-swap", "--trials", "200"], 1,
     "1a1d9f6a93d6a3389b1becce18b1e63cbba806c2e9040bba1ccf77b3df2f916a"),
]


@pytest.mark.parametrize("argv,code,want", _PINNED_VERDICTS, ids=[a[0] for a, _, _ in _PINNED_VERDICTS])
def test_seeded_verdicts_pinned(argv, code, want, capsys):
    assert cli_main(argv + ["--seed", "4"]) == code
    doc = json.loads(capsys.readouterr().out)
    del doc["wall_clock"]
    assert hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest() == want
