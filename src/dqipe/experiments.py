"""Monte Carlo experiment driver.

Instance generators for the promise problems and lower-bound witness
constructions, the named experiments dispatched by the CLI, Wilson
confidence intervals, and CSV/JSON result files that round-trip.

Each statistical gate decides through one function per rule: _mean_gate
(|mean - target| <= 4 standard errors), _variance_gate (empirical/exact
variance in [0.95, 1.05]) and _wilson_gate (both cases' Wilson 95% lower
ends >= 2/3, each case's trials counted by _case_hits). The mean and
variance gates read their sample through _summary_stats, which refuses
fewer than 2 trials, and the variance checks refuse a zero exact variance
(_judgeable_variance) before they draw; both exit 2 at the CLI.

CSV layout: comment lines "# output_version: <n>", "# config: <json>",
"# passed: ...", "# summary: <json>", then a header row and data rows.
Estimate experiments emit one row per trial with columns (trial,
seed_path, w, raw_stat); check experiments emit the summary as a single
row. JSON files mirror the same content with an "output_version" field
and a "summary" object.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import time
from contextlib import closing
from dataclasses import dataclass, asdict, fields
from fractions import Fraction
from importlib import resources

import numpy as np

from .linalg import (
    DensityMatrix,
    PureState,
    SUPPORT_TOL,
    complex_normals,
    haar_states,
    haar_unitaries,
    ROW_BLOCK,
    row_blocks,
    sample_haar_state,
    squared_overlaps,
    trace_distance,
)
from .rng import RngStream
from . import estimators as est
from . import symmetric as sym
from .symmetric import povm_samples as _povm_samples_batch  # imported by the acceptance tests
from . import oracles
from .protocol import (
    Role,
    Smp,
    OneWay,
    run_protocol,
    multicopy_smp_strategies,
    singlecopy_smp_strategies,
    pi0_oneway_strategies,
)
from .wire import open_transport

__all__ = [
    "OUTPUT_VERSION",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "load_defaults",
    "wilson_interval",
    "gen_dipe_instance",
    "gen_problem1_instance",
    "run_experiment",
    "emit_result",
    "parse_result",
]

# Version of the result documents: 2 once the scalar API and the strategies
# drew through the batch samplers. Documents without the field are version 1.
OUTPUT_VERSION = 2


def load_defaults() -> dict:
    """Constants shipped with the package. tests/test_threshold_rates.py
    checks the dipe-threshold ones against the decider's exact success
    rates."""
    with resources.files("dqipe").joinpath("defaults.json").open() as fh:
        return json.load(fh)


# The values each field annotation of ExperimentConfig accepts; bool,
# although an int, is refused everywhere.
_ACCEPTS = {"int": int, "float": (int, float), "str": str, "str | None": (str, type(None))}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    d: int = 8
    k: int = 0  # 0 selects the experiment's calibrated default
    m: int = 32
    n_bases: int = 1
    eps: float = 0.1
    f: float = 0.5
    trials: int = 1000
    seed: int = 0
    transport: str = "inproc"
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        for fld in fields(self):
            value = getattr(self, fld.name)
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS[fld.type]):
                raise ValueError(f"{fld.name} must be {fld.type}, got {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if min(self.d, self.m, self.n_bases, self.trials) < 1 or self.k < 0:
            raise ValueError("d, m, n_bases, trials must be positive; k nonnegative")
        if not (0.0 <= self.eps <= 1.0 and 0.0 <= self.f <= 1.0):
            raise ValueError("eps and f must lie in [0, 1]")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        # documents written before the unused "setting" field was dropped carry it
        return cls(**{k: v for k, v in data.items() if k != "setting"})


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[dict]
    summary: dict
    passed: bool
    wall_clock: float = 0.0
    output_version: int = OUTPUT_VERSION

    def content_equal(self, other: "ExperimentResult") -> bool:
        """Equality up to wall-clock time; used for round-trip checks."""
        fields = ("output_version", "config", "rows", "summary", "passed")
        return all(getattr(self, f) == getattr(other, f) for f in fields)


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    z = 1.959963984540054  # the standard normal's 97.5% quantile
    if n < 1:
        raise ValueError("n must be >= 1")
    p = successes / n
    denom = 1.0 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2))
    return max(0.0, center - half), min(1.0, center + half)


# --- instance generators ---


def gen_dipe_instance(d: int, case: int, rng: RngStream) -> tuple[PureState, PureState]:
    """Case 1: the same Haar state twice. Case 2: two independent Haar states,
    not a promise f <= 1/2: f > 1/2 with probability 2^(1-d). The CLI runs
    dipe-threshold only at d >= 8 (dipe_threshold_min_d), where that is at
    most 1/128; dipe-pi0's closed form is for independent states."""
    if d < 2:
        raise ValueError("d must be >= 2")
    phi = sample_haar_state(d, rng)
    if case == 1:
        return phi, phi
    if case == 2:
        return phi, sample_haar_state(d, rng)
    raise ValueError("case must be 1 or 2")


def gen_problem1_instance(
    d: int, eps: float, case: int, rng: RngStream
) -> tuple[PureState, PureState]:
    """Phase-fragile states in C^{d+1}: sqrt(1-eps) e^{i theta} |0> +
    sqrt(eps)|phi> with phi Haar in the span of the last d basis states.

    Two phases are drawn, then the tails are gen_dipe_instance's pair:
    case 1 shares phi between the parties (fresh phases), case 2 draws
    independent phi and psi."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    angles = rng.rng.uniform(0.0, 2.0 * math.pi, size=2)
    tails = gen_dipe_instance(d, case, rng)
    return tuple(
        PureState(np.concatenate(
            ([math.sqrt(1.0 - eps) * np.exp(1j * angle)], math.sqrt(eps) * tail.amplitudes)
        ))
        for angle, tail in zip(angles, tails)
    )


# --- vectorized kernels for the variance checks ---
#
# Each kernel draws its n trials through the samplers that the scalar API
# and the protocol strategies call at n=1 (see linalg), so the variance
# gates test the protocol's own arithmetic.


def _singlecopy_w_batch(d: int, m: int, f: float, n: int, g: np.random.Generator) -> np.ndarray:
    """Cross-collision estimates of n trials in one shared Haar basis each.

    All Gaussians are drawn first: the state pairs, all real parts of the
    Ginibre matrices, then their imaginary parts row block by row block
    (linalg.row_blocks), each block factored as it arrives, so that only
    the Born probabilities are kept. A block holds as many d x d matrices
    as ROW_BLOCK does at d=8, so its bytes do not grow with d. Then each
    ROW_BLOCK of trials makes one multinomial call on its (trial, party,
    outcome) probabilities, which numpy walks in C order: trial i's Alice
    counts, then its Bob counts, as a per-trial loop would draw them.
    LAPACK factors each matrix on its own, so no bit depends on a block.

    Peak bytes, from the shapes: at most 8nd^2 + 48nd + 8n held (the real
    parts, the pair, the probabilities), plus 80bd^2 for one block of
    b = min(n, ROW_BLOCK, max(1, 64 ROW_BLOCK // d^2)) matrices (its
    Gaussians and QR), 64Bd for the row steps over B = min(n, ROW_BLOCK)
    trials (the pair's, the Born step's, the counts') and 16 KiB of fixed
    allocations; 1.48 kB a trial at d=8, n=20000."""
    phi, psi = est.state_pairs(d, f, n, g)
    real = g.standard_normal((n, d, d))
    probs = np.empty((n, 2, d))
    rows = min(ROW_BLOCK, max(1, ROW_BLOCK * 64 // d**2))
    for p, a, b, r in row_blocks(probs, phi, psi, real, rows=rows):
        z = complex_normals(r.shape, g, r)
        p[...] = est.pure_born_probabilities(haar_unitaries(z), np.stack([a, b], axis=1))
    del phi, psi, real, a, b, r  # the last block's views hold the arrays too
    w = np.empty(n)
    for out, p in row_blocks(w, probs):
        counts = est.born_counts(p, m, g)
        out[...] = (d + 1) * est.collision_fractions(counts[:, 0], counts[:, 1]) - 1.0
    return w


def _multicopy_w_batch(d: int, k: int, f: float, n: int, g: np.random.Generator) -> np.ndarray:
    """Multi-copy estimates of n trials: state pairs, then Alice's POVM
    outcomes, then Bob's.

    Peak bytes, from the shapes: at most 56nd + 56n + 32d ROW_BLOCK. The
    first term is reached while Bob's Gaussians are drawn: psi, u and v's
    complex (n, d) arrays and one (n, d) float draw (phi is released
    before). The second covers the per-row Beta, phase and coefficient
    arrays, the third the row updates' temporaries; 530 B a trial at d=8,
    n=20000."""
    phi, psi = est.state_pairs(d, f, n, g)
    u = sym.povm_samples(phi, k, g)
    del phi
    v = sym.povm_samples(psi, k, g)
    return est.multicopy_constants(d, k).estimate(squared_overlaps(u, v))


# --- the gates: one function per rule ---


def _summary_stats(values: np.ndarray) -> tuple[float, float, float]:
    """Mean, sample variance (ddof=1) and standard error of the mean. One
    value has no sample variance, so no gate can judge it: refused."""
    if values.size < 2:
        raise ValueError(f"a gate needs at least 2 trials to judge a sample, got {values.size}")
    mean = float(values.mean())
    var = float(values.var(ddof=1))
    return mean, var, math.sqrt(var / values.size)


def _mean_gate(mean: float, target: float, se: float) -> tuple[float, bool]:
    """The mean rule: z = |mean - target| / se and whether z <= 4. A sample
    with no spread (se == 0) has z = 0 on its target and z = inf off it."""
    if se > 0:
        z = abs(mean - target) / se
    else:
        z = 0.0 if mean == target else math.inf
    return z, z <= 4.0


def _judgeable_variance(exact: float) -> float:
    """The exact variance, refused when it is 0: no ratio to it exists.
    Each variance check calls this before its draw."""
    if not exact > 0.0:
        raise ValueError(f"the exact variance is {exact}, so the variance gate has no ratio to judge")
    return exact


def _variance_gate(emp: float, exact: float) -> tuple[dict, bool]:
    """The variance rule: empirical/exact variance in [0.95, 1.05]. Returns
    the summary entries empirical_var, exact_var and ratio, and the verdict."""
    ratio = emp / exact
    return {"empirical_var": emp, "exact_var": exact, "ratio": ratio}, 0.95 <= ratio <= 1.05


def _case_hits(case: int, trials: int, root: RngStream, decide) -> int:
    """Trials of the given case that decide(case, t, stream) gets right, trial
    t on stream root.child(case, t), in root.child(case).trials blocks."""
    hits = 0
    for t in root.child(case).trials(trials):
        hits += decide(case, t, root.child(case, t)) == case
    return hits


def _wilson_gate(summary: dict, trials: int, hits) -> bool:
    """The two-case rule: hits(case) trials of each case decided right. Both
    cases' success rates and Wilson 95% intervals go into the summary, and
    the rule holds when both lower ends reach 2/3."""
    ok = True
    for case in (1, 2):
        count = hits(case)
        lo, hi = wilson_interval(count, trials)
        summary[f"success_rate_case{case}"] = count / trials
        summary[f"wilson_lo_case{case}"] = lo
        summary[f"wilson_hi_case{case}"] = hi
        ok = lo >= 2.0 / 3.0 and ok
    return ok


# --- the experiments ---


def _run_estimate(
    config: ExperimentConfig, root: RngStream, strategies, params: dict,
    shared_randomness: bool = False,
) -> tuple[list, dict, bool]:
    """Run an SMP estimation protocol once per trial; params are the
    estimator's parameters, reported in the summary. Trial t draws its
    state pair from root.child(t, 0) and runs the protocol on
    root.child(t, 1), in root.trials blocks."""
    alice, bob, referee = strategies
    rows = []
    with closing(open_transport(config.transport)) as transport:
        for t in root.trials(config.trials):
            phi, psi = est.make_state_pair(config.d, config.f, root.child(t, 0))
            run_rng = root.child(t, 1)
            run = run_protocol(
                Smp(), alice, bob, referee,
                {Role.ALICE: phi, Role.BOB: psi}, run_rng,
                transport=transport, shared_randomness=shared_randomness,
                run_id=f"trial{t}",
            )
            seed_path = "/".join(str(p) for p in run_rng.path)
            rows.append({"trial": t, "seed_path": seed_path, "w": run.result["w"], "raw_stat": run.result["raw"]})
    w = np.array([r["w"] for r in rows])
    mean, var, se = _summary_stats(w)
    _, passed = _mean_gate(mean, config.f, se)
    summary = {
        "mean_w": mean, "var_w": var, "se": se,
        "target_f": config.f, **params, "trials": config.trials,
    }
    return rows, summary, passed


def _run_estimate_multicopy(config: ExperimentConfig, root: RngStream) -> tuple[list, dict, bool]:
    k = config.k if config.k > 0 else 8
    return _run_estimate(config, root, multicopy_smp_strategies(k), {"k": k})


def _run_estimate_singlecopy(config: ExperimentConfig, root: RngStream) -> tuple[list, dict, bool]:
    strategies = singlecopy_smp_strategies(config.d, config.n_bases, config.m)
    params = {"n_bases": config.n_bases, "m": config.m}
    return _run_estimate(config, root, strategies, params, shared_randomness=True)


def _run_dipe_threshold(config: ExperimentConfig, root: RngStream) -> tuple[list, dict, bool]:
    """The threshold decider at k = dipe_threshold_c * ceil(sqrt(d)) copies
    per party.

    At the defaults (d=8, k=24) the exact success rates are p1 = 0.98740 and
    p2 = 0.94305 (tests/test_threshold_rates.py). At 1000 trials the Wilson
    gate fails only at <= 695 hits, which Bin(1000, p) reaches with
    probability about 10^-317.6 in case 1 and 10^-131.7 in case 2. With
    that much margin the gate cannot see a threshold off by a few percent:
    0.45 in place of 1/2 moves p2 from 0.943 to 0.924, far above the
    0.696 the gate needs."""
    defaults = load_defaults()
    min_d = defaults["dipe_threshold_min_d"]
    if config.d < min_d:  # case 2's states overlap by more than 1/2 with probability 2^(1-d)
        raise ValueError(f"dipe-threshold needs d >= {min_d}, the smallest d it is calibrated at")
    k = config.k if config.k > 0 else defaults["dipe_threshold_c"] * math.ceil(
        math.sqrt(config.d)
    )
    summary: dict = {"k": k}

    def decide(case: int, t: int, tr: RngStream) -> int:
        phi, psi = gen_dipe_instance(config.d, case, tr.child(0))
        u = sym.standard_povm_sample(phi, k, tr.child(1, est.STREAM_ALICE))
        v = sym.standard_povm_sample(psi, k, tr.child(1, est.STREAM_BOB))
        return est.dipe_decide_threshold(u, v, k)

    ok = _wilson_gate(summary, config.trials, lambda case: _case_hits(case, config.trials, root, decide))
    return [], summary, ok


def _run_dipe_pi0(config: ExperimentConfig, root: RngStream) -> tuple[list, dict, bool]:
    k = config.k if config.k > 0 else 3
    alice, bob, referee = pi0_oneway_strategies(k)
    summary: dict = {"k": k}
    gaps = np.empty(config.trials)
    with closing(open_transport(config.transport)) as transport:
        def decide(case: int, t: int, tr: RngStream) -> int:
            phi, psi = gen_dipe_instance(config.d, case, tr.child(0))
            run = run_protocol(
                OneWay(), alice, bob, referee,
                {Role.ALICE: phi, Role.BOB: psi}, tr.child(1),
                transport=transport, run_id=f"case{case}-trial{t}",
            )
            if case == 2:
                # acceptance gap of the all-orthogonal test between an
                # independent state and the state Alice measured
                u = PureState(run.messages[0].payload)
                gaps[t] = est.pi0_reject_probability(u, psi, k) - est.pi0_reject_probability(u, phi, k)
            return run.result["case"]

        # both cases' intervals are reported; the gate is the gap's mean rule
        _wilson_gate(summary, config.trials, lambda case: _case_hits(case, config.trials, root, decide))
    gap_mean, _, gap_se = _summary_stats(gaps)
    closed = sym.trace_distance_rho_u_block(config.d, k)
    summary.update(gap_mean=gap_mean, gap_se=gap_se, gap_closed_form=closed)
    _, passed = _mean_gate(gap_mean, closed, gap_se)
    return [], summary, passed


def _run_variance_check_multicopy(config: ExperimentConfig, root: RngStream) -> tuple[list, dict, bool]:
    k = config.k if config.k > 0 else 12
    # the exact variance first: it refuses d < 2 and a zero variance before any draw
    exact = _judgeable_variance(est.multicopy_variance_exact(config.d, k, config.f))
    w = _multicopy_w_batch(config.d, k, config.f, config.trials, root.rng)
    mean, var, _ = _summary_stats(w)
    band, passed = _variance_gate(var, exact)
    return [], {"mean_w": mean, **band, "k": k, "f": config.f}, passed


def _run_variance_check_singlecopy(config: ExperimentConfig, root: RngStream) -> tuple[list, dict, bool]:
    exact = _judgeable_variance(
        (config.d + 1) ** 2 * est.singlecopy_variance_exact_pure(config.d, config.m, config.f)
    )
    w = _singlecopy_w_batch(config.d, config.m, config.f, config.trials, root.rng)
    mean, var, se = _summary_stats(w)
    band, passed = _variance_gate(var, exact)
    return [], {"mean_w": mean, "se": se, **band, "m": config.m, "f": config.f}, passed


def _run_variance_check_swap(config: ExperimentConfig, root: RngStream) -> tuple[list, dict, bool]:
    k = config.k if config.k > 0 else 100
    exact = _judgeable_variance(est.swap_test_variance(config.f, k))
    rejects = root.rng.binomial(k, (1.0 - config.f) / 2.0, size=config.trials)
    w = 1.0 - 2.0 * rejects / k
    _, var, _ = _summary_stats(w)
    band, passed = _variance_gate(var, exact)
    return [], {**band, "k": k, "f": config.f}, passed


def _run_spectrum_check(config: ExperimentConfig, root: RngStream) -> tuple[list, dict, bool]:
    k = config.k if config.k > 0 else 2
    u = sample_haar_state(config.d, root.child(0))
    # the oracle first: its guard refuses what it cannot finish
    numeric = oracles.rho_u_numeric(u.amplitudes, k)
    rho = sym.rho_u_closed_form(u, k)
    betas, dims = sym.block_spectrum(config.d, k)
    expected = sorted(
        [b for b, dim in zip(betas, dims) for _ in range(dim)]
    ) + [0.0] * (config.d**k - sym.sym_dimension(config.d, k))
    eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
    eig_dev = float(np.max(np.abs(eigs - np.sort(np.array(expected)))))
    entry_dev = float(np.max(np.abs(rho.matrix - numeric)))
    summary = {"max_eig_dev": eig_dev, "max_entry_dev": entry_dev, "k": k}
    return [], summary, eig_dev <= 1e-9 and entry_dev <= 1e-9


def _mp_anchor_dev(d: int, k: int, stream: RngStream) -> float:
    """max |MP(|u><u|^{⊗k}) - rho_u| over entries, for one Haar u.

    Measuring k copies of u and preparing k copies of the outcome gives
    the post-measurement state rho_u, so the channel and the polynomial in
    the number operator N_u must agree. Both use the ladder operators, so
    the tests check each against a dense reference as well. Unlike the
    spectrum, this sees the orientation of the channel (X against X^T).
    Both sides are compared on (C^d)^{⊗k}, through the public lifts, so
    the lifts are checked too; over budget it raises DenseBudgetError.
    """
    n = d**k
    # rho_u and the input, two complex n x n arrays, beside the channel's lift
    lift = sym.lift_bytes(n, sym.sym_dimension(d, k))
    sym.check_budget("mp-bound-check anchor", 32 * n * n + lift)
    u = sample_haar_state(d, stream)
    rho = sym.rho_u_closed_form(u, k)
    uk = PureState(functools.reduce(np.kron, [u.amplitudes] * k))
    out = sym.mp_channel(uk.density(), d, k)
    return float(np.max(np.abs(out.matrix - rho.matrix)))


def _run_mp_bound_check(config: ExperimentConfig, root: RngStream) -> tuple[list, dict, bool]:
    """Measure-and-prepare output Y against e^{-k^2/d} sigma_m on Sym^k.

    sigma_m = I/D in the occupation basis, so one eigvalsh of Y gives
    both statistics: the slack lambda_min(Y) - floor/D, and
    Dmax(sigma_m || Y) = -log(D lambda_min(Y)), +inf when lambda_min is at
    most SUPPORT_TOL (linalg.dmax's support test). Wherever the budget admits
    the lifts, the channel is also checked against rho_u (_mp_anchor_dev).
    """
    d = config.d
    k = config.k if config.k > 0 else 2
    n = sym.sym_dimension(d, k)
    # each trial's D x D input and eigvalsh's copy of the output: arrays of
    # this loop, and the input exists before the channel's guards run
    sym.check_budget("mp-bound-check", 32 * n * n)
    try:
        # the stream after the trials'
        anchor = {"anchor_dev": _mp_anchor_dev(d, k, root.child(config.trials))}
    except sym.DenseBudgetError:
        anchor = {}
    floor = math.exp(-(k**2) / d)
    worst_eig = math.inf
    worst_excess = -math.inf
    for t in root.trials(config.trials):
        g = root.child(t).rng
        z = haar_states(n, 1, g)[0]
        out = sym.mp_channel_occupation(np.outer(z, z.conj()), d, k)
        lam = float(np.linalg.eigvalsh(out.matrix)[0])
        worst_eig = min(worst_eig, lam - floor / n)
        excess = math.inf if lam <= SUPPORT_TOL else -math.log(n * lam) - k**2 / d
        worst_excess = max(worst_excess, excess)
    summary = {
        "min_eig_slack": worst_eig, "floor_over_D": floor / n, "max_dmax_excess": worst_excess, **anchor, "k": k,
    }
    passed = worst_eig >= -1e-10 and worst_excess <= 1e-6 and anchor.get("anchor_dev", 0.0) <= 1e-10
    return [], summary, passed


def _tracedist_closed_form_exact(d: int, k: int) -> Fraction:
    num = math.prod(range(d - 1, d + k - 1))
    den = math.prod(range(d + k, d + 2 * k))
    return Fraction(d - 1, d + k - 1) - Fraction(num, den)


def _run_tracedist_check(config: ExperimentConfig, root: RngStream) -> tuple[list, dict, bool]:
    """Blockwise trace distance against the closed form, inside the regime
    beta_1 >= 1/D where that form holds, and against the trace distance
    of rho_u_occupation from I/D wherever the byte budget admits it.

    Outside the regime the dense value is the only comparison, so a
    refusal there is an error, not a PASS.
    """
    d = config.d
    k = config.k if config.k > 0 else 3
    n = sym.sym_dimension(d, k)
    in_regime = sym.beta_coefficient_exact(d, k, 1) >= Fraction(1, n)
    blockwise = sym.trace_distance_rho_u_block(d, k)
    closed = float(_tracedist_closed_form_exact(d, k))
    summary = {
        "blockwise": blockwise,
        "closed_form": closed,
        "regime": "beta1>=1/D" if in_regime else "general",
        "k": k,
    }
    ok = not in_regime or abs(blockwise - closed) <= 1e-12
    u = sample_haar_state(d, root.child(0))
    try:
        rho = sym.rho_u_occupation(u, k)
    except sym.DenseBudgetError as exc:
        if in_regime:
            return [], summary, ok
        raise sym.DenseBudgetError(
            f"tracedist-check: beta_1 < 1/D, so only the dense value can check the blockwise one; {exc}"
        ) from exc
    # rho_u_occupation's byte estimate also covers these D x D arrays
    dense = trace_distance(rho, DensityMatrix(np.eye(n) / n))
    summary["dense"] = dense
    return [], summary, ok and abs(dense - blockwise) <= 1e-9


def _run_moment_check(config: ExperimentConfig, root: RngStream) -> tuple[list, dict, bool]:
    d = config.d
    if d < 2:  # a Haar state in C^1 is a phase: every product is exact, up to rounding
        raise ValueError("moment-check needs d >= 2: in C^1 the moments have no spread to judge")
    g = root.rng
    mats = []
    for _ in range(3):
        z = complex_normals((d, d), g)
        mats.append((z + z.conj().T) / 2)
    psi = haar_states(d, config.trials, g)
    gates = []
    for k in (1, 2, 3):
        prods = np.ones(config.trials)
        for a in mats[:k]:
            prods = prods * np.einsum("nd,de,ne->n", psi.conj(), a, psi).real
        exact = float(oracles.haar_moment_exact(mats[:k]).real)
        mean, _, se = _summary_stats(prods)
        gates.append(_mean_gate(mean, exact, se))
    summary = {"max_z": max(z for z, _ in gates), "draws": config.trials}
    return [], summary, all(ok for _, ok in gates)


def _run_problem1(config: ExperimentConfig, root: RngStream) -> tuple[list, dict, bool]:
    defaults = load_defaults()
    k = config.k if config.k > 0 else defaults["problem1_default_k"]
    window = config.eps * defaults["problem1_window_frac"]
    center = (1.0 - config.eps) ** 2
    summary: dict = {"k": k, "window": window, "center": center}

    def decide(case: int, t: int, tr: RngStream) -> int:
        a, b = gen_problem1_instance(config.d, config.eps, case, tr.child(0))
        rec = est.multicopy_estimate(a, b, k, tr.child(1))
        return 2 if abs(rec.value - center) <= window else 1

    ok = _wilson_gate(summary, config.trials, lambda case: _case_hits(case, config.trials, root, decide))
    return [], summary, ok


_DISPATCH = {
    "estimate-multicopy": _run_estimate_multicopy,
    "estimate-singlecopy": _run_estimate_singlecopy,
    "dipe-threshold": _run_dipe_threshold,
    "dipe-pi0": _run_dipe_pi0,
    "variance-check-multicopy": _run_variance_check_multicopy,
    "variance-check-singlecopy": _run_variance_check_singlecopy,
    "variance-check-swap": _run_variance_check_swap,
    "spectrum-check": _run_spectrum_check,
    "mp-bound-check": _run_mp_bound_check,
    "tracedist-check": _run_tracedist_check,
    "moment-check": _run_moment_check,
    "problem1-distinguish": _run_problem1,
}

EXPERIMENTS = tuple(_DISPATCH)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the named experiment; deterministic given the config."""
    start = time.perf_counter()
    root = RngStream(config.seed)
    rows, summary, passed = _DISPATCH[config.experiment](config, root)
    return ExperimentResult(
        config=config, rows=rows, summary=summary, passed=passed,
        wall_clock=time.perf_counter() - start,
    )


# --- result files ---


def emit_result(result: ExperimentResult) -> str:
    header = {
        "output_version": result.output_version, "config": result.config.to_dict(),
        "passed": result.passed, "summary": result.summary,
    }
    if result.config.fmt == "json":
        doc = {**header, "rows": result.rows, "wall_clock": result.wall_clock}
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
    buf = io.StringIO()
    for key, value in header.items():
        buf.write(f"# {key}: {json.dumps(value, sort_keys=False)}\n")
    writer = csv.writer(buf)
    if result.rows:
        cols = ["trial", "seed_path", "w", "raw_stat"]
        writer.writerow(cols)
        for row in result.rows:
            writer.writerow([row[c] if c == "seed_path" else repr(row[c]) if isinstance(row[c], float) else row[c] for c in cols])
    else:
        cols = list(result.summary.keys())
        writer.writerow(cols)
        writer.writerow([repr(v) if isinstance(v, float) else v for v in result.summary.values()])
    return buf.getvalue()


def parse_result(text: str) -> ExperimentResult:
    """Inverse of emit_result up to wall-clock time. A document without an
    output_version is version 1."""
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
    else:
        # "# key: <json>" comment lines, then the CSV body
        doc, body = {"summary": {}, "passed": False}, []
        for line in text.splitlines():
            key, sep, value = line[2:].partition(": ")
            if line.startswith("# ") and sep:
                doc[key] = json.loads(value)
            elif line.strip():
                body.append(line)
        if "config" not in doc:
            raise ValueError("missing config line")
        estimate_rows = body and body[0].split(",")[0] == "trial"
        doc["rows"] = [
            {"trial": int(rec["trial"]), "seed_path": rec["seed_path"], "w": float(rec["w"]), "raw_stat": float(rec["raw_stat"])}
            for rec in (csv.DictReader(body) if estimate_rows else [])
        ]
    return ExperimentResult(
        config=ExperimentConfig.from_dict(doc["config"]),
        rows=doc["rows"],
        summary=doc["summary"],
        passed=doc["passed"],
        wall_clock=doc.get("wall_clock", 0.0),
        output_version=doc.get("output_version", 1),
    )
