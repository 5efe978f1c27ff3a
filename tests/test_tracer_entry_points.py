"""The benchmark's tracer patches dqipe entry points by name, so a rename or
deletion breaks the traced run, and a per-layer row whose entry point the
protocol path no longer calls reads empty. perfbench/tracer.py is loaded by
path and only read."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves_on_its_dqipe_module():
    tracer = _load_tracer()
    missing = []
    for table in (tracer.ENTRY_POINTS, tracer.COUNTED):
        for layer, names in table.items():
            module = importlib.import_module(f"dqipe.{layer}")
            for name in names:
                obj = module
                for part in name.split("."):
                    obj = getattr(obj, part, None)
                if not callable(obj):
                    missing.append(f"{layer}.{name}")
    assert missing == []


@pytest.mark.parametrize(
    "experiment,overrides,rows",
    [
        ("estimate-multicopy", {}, ("symmetric.povm_sample_us", "estimators.make_state_pair_us")),
        (
            "estimate-singlecopy",
            {"n_bases": 2},
            (
                "estimators.make_state_pair_us",
                "estimators.born_sample_us",
                "estimators.classical_collision_us",
                "linalg.haar_unitary_us",
            ),
        ),
        # dense-sym: tracedist-check builds no embedded basis, so only the
        # anchor's lifts fill the projector and lift rows
        (
            "mp-bound-check",
            {"d": 4, "k": 3},
            (
                "symmetric.mp_channel_ms",
                "symmetric.rho_u_closed_form_ms",
                "symmetric.projector_build_s",
                "linalg.density_check_us",
            ),
        ),
        ("tracedist-check", {"d": 10, "k": 3}, ("linalg.eig_ms", "linalg.density_check_us")),
    ],
)
def test_protocol_runs_fill_their_traced_rows(experiment, overrides, rows):
    tracer = _load_tracer()
    from dqipe import experiments

    trials = 3
    config = experiments.ExperimentConfig(experiment, trials=trials, seed=1, **overrides)
    t = tracer.Tracer().install()
    try:
        experiments.run_experiment(config)
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(t, trials=trials)
    assert [row for row in rows if not metrics.get(row, 0) > 0] == []
