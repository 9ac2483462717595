import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from fusioncs import bounds as bounds_mod, experiments, solver

from fusioncs.errors import ConfigError, SchemaError
from fusioncs.experiments import (
    CSV_COLUMNS,
    STREAM_COLLECTION,
    STREAM_ENSEMBLE,
    STREAM_NOISE,
    STREAM_SIGNAL,
    ExperimentConfig,
    cell_key,
    config_from_dict,
    config_to_dict,
    derive_seed,
    fit_error_vs_eta,
    load_config,
    run_bound_table,
    run_frip_sweep,
    run_noise_robustness,
    run_phase_transition,
    save_config,
    validate_config,
    write_frip_results,
    write_results,
)
from fusioncs.frames import coherence, random_collection
from fusioncs.bounds import sufficient_uniform_vector
from fusioncs.measurement import (
    DISTRIBUTIONS,
    EnsembleSpec,
    add_noise,
    compose_with_bases,
    sample_ensemble,
    subgaussian_alpha,
    vector_operator,
)
from fusioncs.rip import mc_frip
from fusioncs.signals import coeff_vector, random_sparse_signal


def _parity_seeds() -> list[int]:
    """The edges of one and two entropy words, and 50 seeds on each side
    of 2**32."""
    rng = np.random.default_rng(31)
    below = rng.integers(0, 2**32, size=50, dtype=np.uint64)
    above = rng.integers(2**32, 2**64 - 1, size=50, dtype=np.uint64, endpoint=True)
    return [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + [int(x) for x in (*below, *above)]


def _draws(rng) -> tuple:
    return (rng.standard_normal(5).tobytes(), rng.choice(9, size=4, replace=False).tolist(),
            rng.integers(0, 2, size=6).tolist(), rng.uniform(-1.0, 1.0, size=3).tobytes())


class TestSeedStates:
    def test_match_seed_sequence(self):
        seeds = _parity_seeds()
        states = experiments._seed_states(seeds)
        assert states.dtype == np.uint64 and states.shape == (len(seeds), 4)
        for seed, words in zip(seeds, states):
            assert words.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()

    def test_generators_draw_as_default_rng(self):
        seeds = _parity_seeds()
        for seed, rng in zip(seeds, experiments._generators(experiments._seed_states(seeds))):
            assert _draws(rng) == _draws(np.random.default_rng(seed))

    def test_empty(self):
        assert experiments._seed_states([]).shape == (0, 4)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0, 2.5, True])
    def test_rejects_seeds_outside_two_words(self, seed):
        with pytest.raises(ValueError, match=r"seeds must be integers in \[0, 2\*\*64\)"):
            experiments._seed_states([0, seed])


def test_import_loads_no_more_of_numpy_random_than_numpy_does():
    # the seed sequence type is made on first use, so importing the package
    # leaves numpy.random as importing numpy leaves it
    src = str(Path(experiments.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "print('numpy.random' in sys.modules)"
    alone, package = (
        subprocess.run([sys.executable, "-c", f"import sys, {modules}; {probe}"], env=env,
                       capture_output=True, text=True, check=True).stdout
        for modules in ("numpy", "fusioncs, fusioncs.cli"))
    assert package == alone


REQUIRED_CONFIG_FIELDS = ("experiment", "family", "d", "k", "N", "sparsity_grid", "measurement_grid")


def phase_config(**overrides):
    base = dict(
        experiment="phase_transition",
        family="orthogonal",
        d=8,
        k=2,
        N=4,
        sparsity_grid=(1, 2),
        measurement_grid=(1, 2),
        trials_per_cell=5,
        base_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSeeds:
    def test_derive_seed_frozen_values(self):
        # pin the mixing function: any change silently breaks reproducibility
        assert derive_seed(0, 0, 0, 0) == 2558736989570252433
        assert derive_seed(11, 3, 7, 2) == 2610255070085570617
        assert derive_seed(2**63, 1, 1, 1) == 1434157057848903833

    def test_cell_key_frozen_values(self):
        # pin one key per family: reordering the family table would reseed every trial
        assert cell_key("orthogonal", None, 2, 4, None) == 1066464275567029647
        assert cell_key("angle", 0.4, 2, 3, None) == 17176655775375089686
        assert cell_key("random", None, 1, 2, 0.01) == 18193254395063937670

    def test_cell_key_depends_on_coordinates_only(self):
        a = cell_key("angle", 0.3, 2, 5, None)
        b = cell_key("angle", 0.3, 2, 5, None)
        assert a == b
        assert cell_key("angle", 0.3, 2, 6, None) != a
        assert cell_key("random", None, 2, 5, None) != a
        assert cell_key("angle", 0.3, 2, 5, 0.1) != a


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = phase_config()
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg
        # byte-identical rewrite
        text1 = path.read_text()
        save_config(load_config(path), path)
        assert path.read_text() == text1

    def test_dict_round_trip_preserves_ensemble_template(self):
        doc = config_to_dict(phase_config(ensemble="bernoulli"))
        assert doc["ensemble"] == {"distribution": "bernoulli"}
        assert config_from_dict(doc).ensemble == "bernoulli"

    def test_schema_error_names_field(self):
        doc = config_to_dict(phase_config())
        doc["sparsity_grid"] = "nope"
        with pytest.raises(SchemaError) as err:
            config_from_dict(doc)
        assert err.value.field == "sparsity_grid"

    @pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
    def test_every_field_checked(self, name):
        doc = config_to_dict(phase_config())
        value = doc[name]
        # JSON booleans are not numbers, and list entries are typed too
        wrongs = [None, True, 1 if isinstance(value, (str, dict)) else "1"]
        if isinstance(value, list):
            wrongs += [["x"], [True]] + ([[1.5]] if name in ("sparsity_grid", "measurement_grid") else [])
        for wrong in wrongs:
            with pytest.raises(SchemaError) as err:
                config_from_dict({**doc, name: wrong})
            assert err.value.field == name
        del doc[name]
        if name in REQUIRED_CONFIG_FIELDS:
            with pytest.raises(SchemaError) as err:
                config_from_dict(doc)
            assert err.value.field == name
        else:
            default = next(f.default for f in fields(ExperimentConfig) if f.name == name)
            assert getattr(config_from_dict(doc), name) == default

    def test_max_iters_defaults_to_solver_limit(self):
        doc = config_to_dict(phase_config())
        del doc["max_iters"]
        assert config_from_dict(doc).max_iters == solver.MAX_ITERS
        assert phase_config().max_iters == solver.MAX_ITERS

    def test_unknown_field_rejected(self):
        doc = config_to_dict(phase_config())
        doc["bogus"] = 1
        with pytest.raises(SchemaError) as err:
            config_from_dict(doc)
        assert err.value.field == "bogus"

    @pytest.mark.parametrize("ensemble, message", [
        ({}, "ensemble.distribution: missing field"),
        ({"distribution": 3}, "ensemble.distribution: expected a string"),
    ])
    def test_ensemble_object_needs_a_distribution_name(self, ensemble, message):
        doc = config_to_dict(phase_config())
        doc["ensemble"] = ensemble
        with pytest.raises(SchemaError) as err:
            config_from_dict(doc)
        assert str(err.value) == message

    def test_missing_field_rejected(self):
        doc = config_to_dict(phase_config())
        del doc["experiment"]
        with pytest.raises(SchemaError) as err:
            config_from_dict(doc)
        assert err.value.field == "experiment"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": ')
        with pytest.raises(SchemaError):
            load_config(path)

    def test_zero_measurement_cells_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(phase_config(measurement_grid=(0, 1)))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(phase_config(sparsity_grid=()))

    def test_orthogonal_capacity_checked(self):
        with pytest.raises(ConfigError):
            validate_config(phase_config(N=5))

    def test_angle_needs_thetas(self):
        with pytest.raises(ConfigError):
            validate_config(phase_config(family="angle", theta_grid=()))

    def test_noise_needs_etas(self):
        with pytest.raises(ConfigError):
            validate_config(phase_config(experiment="noise_robustness"))

    @pytest.mark.parametrize("overrides, field", [
        pytest.param(overrides, field, id=field) for overrides, field in [
            (dict(experiment="bogus"), "experiment"),
            (dict(family="bogus"), "family"),
            (dict(ensemble="bogus"), "ensemble"),
            (dict(k=9), "dimensions"),
            (dict(sparsity_grid=(1, 5)), "sparsity_grid"),
            (dict(trials_per_cell=0), "trials_per_cell"),
            (dict(max_iters=0), "max_iters"),
            (dict(epsilon=1.0), "epsilon"),
            (dict(family="angle", theta_grid=(0.4, 2.0)), "theta_grid"),
        ]
    ])
    def test_out_of_range_field_named(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            validate_config(phase_config(**overrides))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-6])
    def test_success_tol_must_be_positive_and_finite(self, value):
        doc = json.loads(json.dumps(config_to_dict(phase_config(success_tol=value))))
        with pytest.raises(ConfigError, match="success_tol"):
            config_from_dict(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-3])
    def test_eta_grid_must_be_nonnegative_and_finite(self, value):
        cfg = phase_config(experiment="noise_robustness", eta_grid=(0.0, value))
        with pytest.raises(ConfigError, match="eta_grid"):
            validate_config(cfg)


class TestPhaseTransition:
    def test_orthogonal_single_measurement_always_succeeds(self):
        rows = run_phase_transition(phase_config())
        assert len(rows) == 4
        for row in rows:
            if row.m == 1:
                assert row.successes == row.trials
                assert row.solver_failures == 0
            assert row.lambda_ == 0.0
            assert row.experiment == "phase_transition"

    def test_single_subspace_has_lambda_zero(self):
        # coherence needs two subspaces: a one-subspace cell reports lambda 0
        rows = run_phase_transition(phase_config(family="random", d=3, k=1, N=1, sparsity_grid=(1,),
                                                 measurement_grid=(1,), trials_per_cell=2))
        assert [(row.lambda_, row.N, row.successes) for row in rows] == [(0.0, 1, 2)]

    def test_lambda_cross_check(self):
        cfg = phase_config(family="angle", theta_grid=(0.4,), d=1, k=1, N=4,
                           sparsity_grid=(1,), measurement_grid=(2,))
        rows = run_phase_transition(cfg)
        from fusioncs.frames import angle_family

        expected = coherence(angle_family(1, 4, 0.4)).lambda_
        assert rows[0].lambda_ == pytest.approx(expected, abs=1e-10)
        assert rows[0].theta == 0.4

    def test_determinism(self):
        cfg = phase_config()
        assert run_phase_transition(cfg) == run_phase_transition(cfg)

    def test_subgrid_reproduces_cells(self):
        full = run_phase_transition(phase_config())
        sub = run_phase_transition(phase_config(sparsity_grid=(2,), measurement_grid=(2,)))
        matching = [r for r in full if r.s == 2 and r.m == 2]
        assert matching == sub

    def test_wrong_experiment_type(self):
        with pytest.raises(ConfigError):
            run_phase_transition(phase_config(experiment="frip_sweep"))


class TestNoiseRobustness:
    def test_error_scales_with_eta(self):
        cfg = ExperimentConfig(
            experiment="noise_robustness",
            family="orthogonal",
            d=8,
            k=2,
            N=4,
            sparsity_grid=(2,),
            measurement_grid=(3,),
            eta_grid=(0.0, 1e-3, 1e-2),
            trials_per_cell=4,
            base_seed=3,
        )
        rows = run_noise_robustness(cfg)
        assert [r.eta for r in rows] == [0.0, 1e-3, 1e-2]
        assert rows[0].mean_rel_error <= cfg.success_tol
        assert rows[0].mean_rel_error <= rows[1].mean_rel_error <= rows[2].mean_rel_error
        slope, intercept = fit_error_vs_eta(rows)
        assert slope > 0
        assert abs(intercept) < 1e-4

    def test_subgrid_reproduces_rows(self):
        cfg = dict(
            experiment="noise_robustness", family="random", d=6, k=2, N=4,
            sparsity_grid=(2,), measurement_grid=(3,), trials_per_cell=4, base_seed=5,
        )
        full = run_noise_robustness(ExperimentConfig(**cfg, eta_grid=(0.0, 1e-3, 1e-2, 1e-1)))
        sub = run_noise_robustness(ExperimentConfig(**cfg, eta_grid=(1e-1, 1e-3)))
        by_eta = {r.eta: r for r in full}
        assert sub == [by_eta[1e-1], by_eta[1e-3]]
        assert by_eta[1e-1] != by_eta[1e-3]


def bits(sol):
    """Everything a trial's score and certificate read, bit for bit."""
    return (coeff_vector(sol.estimate).tobytes(), sol.dual_vector.tobytes(), sol.status, sol.iterations)


@pytest.fixture
def recorded_solves(monkeypatch):
    """The (B, y, eta, solution) of every trial, one list per solve_many call."""
    calls = []

    def record(ops, ys, etas, **kwargs):
        sols = solver.solve_many(ops, ys, etas, **kwargs)
        calls.append(list(zip(ops, ys, etas, sols)))
        return sols

    monkeypatch.setattr(experiments, "solve_many", record)
    return calls


STACKED_CONFIGS = {
    # random d=4, k=2, N=8 at m = 2, 3: every trial takes Newton steps
    "phase": dict(experiment="phase_transition", family="random", d=4, k=2, N=8,
                  sparsity_grid=(1, 2), measurement_grid=(2, 3), base_seed=2024),
    "noise": dict(experiment="noise_robustness", family="orthogonal", d=8, k=2, N=4,
                  sparsity_grid=(1,), measurement_grid=(3,), eta_grid=(0.0, 1e-3, 1e-2),
                  base_seed=8),
}


class TestStackedTrials:
    @pytest.mark.parametrize("kind", sorted(STACKED_CONFIGS))
    def test_trials_independent_of_their_stack(self, kind, recorded_solves):
        # each sweep is one solve_many call, whose stacks mix the trials of
        # its cells; every trial in it equals its own solve_noisy call bit
        # for bit
        cfg = ExperimentConfig(**STACKED_CONFIGS[kind], trials_per_cell=6)
        runner = run_phase_transition if kind == "phase" else run_noise_robustness
        runner(cfg)
        assert len(recorded_solves) == 1
        for call in recorded_solves:
            assert len(call) == 6 * (4 if kind == "phase" else 3)
            assert any(sol.iterations > 0 for *_, sol in call)
            for b, y, eta, sol in call:
                assert bits(sol) == bits(solver.solve_noisy(b, y, eta, max_iters=cfg.max_iters))

    @pytest.mark.parametrize("kind", sorted(STACKED_CONFIGS))
    def test_trials_independent_of_trials_per_cell(self, kind, recorded_solves):
        runner = run_phase_transition if kind == "phase" else run_noise_robustness
        for trials in (3, 10):
            runner(ExperimentConfig(**STACKED_CONFIGS[kind], trials_per_cell=trials))
        short, long = recorded_solves[: len(recorded_solves) // 2], recorded_solves[len(recorded_solves) // 2:]
        for few, many in zip(short, long):
            # both lists run cell by cell, eta by eta, trial by trial
            many = [row for i, row in enumerate(many) if i % 10 < 3]
            assert [bits(row[3]) for row in few] == [bits(row[3]) for row in many]

    @pytest.mark.parametrize("kind", sorted(STACKED_CONFIGS))
    def test_converged_trials_certify(self, kind, recorded_solves):
        runner = run_phase_transition if kind == "phase" else run_noise_robustness
        runner(ExperimentConfig(**STACKED_CONFIGS[kind], trials_per_cell=10))
        converged = [row for call in recorded_solves for row in call if row[3].status == "converged"]
        assert len(converged) >= 30
        for b, y, _, sol in converged:
            assert solver.certify(sol, b, y).ok


    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("kind", sorted(STACKED_CONFIGS))
    def test_cell_setup_matches_per_trial_construction_independent(self, kind, distribution, recorded_solves):
        # a sweep's seeds are hashed in one pass and a cell's signals,
        # matrices and operators drawn and built as stacks: every (B, y)
        # equals the trial's own derive_seed, random_sparse_signal,
        # sample_ensemble, compose_with_bases and add_noise, bit for bit
        cfg = ExperimentConfig(**STACKED_CONFIGS[kind], ensemble=distribution, trials_per_cell=4)
        noise = cfg.experiment == "noise_robustness"
        (run_noise_robustness if noise else run_phase_transition)(cfg)
        expected = []
        for s, m in product(cfg.sparsity_grid[:1] if noise else cfg.sparsity_grid,
                            cfg.measurement_grid[:1] if noise else cfg.measurement_grid):
            key = cell_key(cfg.family, None, s, m, None)
            coll = experiments.FAMILIES[cfg.family](
                cfg.d, cfg.k, cfg.N, None, derive_seed(cfg.base_seed, key, 0, STREAM_COLLECTION))
            for eta in cfg.eta_grid or (0.0,):
                for t in range(cfg.trials_per_cell):
                    seed = lambda stream: derive_seed(cfg.base_seed, key, t, stream)  # noqa: E731
                    x = random_sparse_signal(coll, s, seed(STREAM_SIGNAL))
                    a = sample_ensemble(EnsembleSpec(cfg.ensemble, m, cfg.N, seed(STREAM_ENSEMBLE)))
                    b = compose_with_bases(vector_operator(a, cfg.d, 1.0 / math.sqrt(m) if noise else 1.0), coll)
                    y = add_noise(b.matvec(coeff_vector(x)), eta, seed(STREAM_NOISE))
                    expected.append((b.matrix.tobytes(), y.tobytes(), eta))
        (call,) = recorded_solves
        assert [(b.matrix.tobytes(), np.asarray(y).tobytes(), eta) for b, y, eta, _ in call] == expected


class TestFripSweep:
    def test_rows_and_direction(self):
        cfg = ExperimentConfig(
            experiment="frip_sweep",
            family="angle",
            d=1,
            k=1,
            N=4,
            theta_grid=(0.0, 1.3),
            sparsity_grid=(2,),
            measurement_grid=(8,),
            trials_per_cell=10,
            base_seed=5,
        )
        rows = run_frip_sweep(cfg)
        assert len(rows) == 2
        flat, coherent = rows
        assert flat.mode == "exact" and coherent.mode == "exact"
        assert flat.delta_q1 <= flat.delta_median <= flat.delta_q3
        # the incoherent family point cannot have a larger typical constant
        assert flat.delta_median <= coherent.delta_median
        assert coherent.bound_uniform == pytest.approx(
            sufficient_uniform_vector(2, 4, 1, coherent.lambda_, 1.0, cfg.epsilon, 1.0)
        )


    def test_monte_carlo_cells(self):
        # C(30, 10) supports exceed MAX_SUPPORTS_EXACT, so every cell samples
        cfg = ExperimentConfig(
            experiment="frip_sweep", family="random", d=1, k=1, N=30,
            sparsity_grid=(10,), measurement_grid=(4, 8), trials_per_cell=3, base_seed=6,
        )
        rows = run_frip_sweep(cfg)
        assert len(rows) == 2
        for row in rows:
            assert row.mode == "monte_carlo"
            key = cell_key(cfg.family, None, row.s, row.m, None)
            coll = random_collection(
                1, 1, 30, derive_seed(cfg.base_seed, key, 0, experiments.STREAM_COLLECTION))
            deltas = []
            for t in range(cfg.trials_per_cell):
                a = sample_ensemble(EnsembleSpec(cfg.ensemble, row.m, cfg.N, derive_seed(
                    cfg.base_seed, key, t, experiments.STREAM_ENSEMBLE)))
                seed = derive_seed(cfg.base_seed, key, t, experiments.STREAM_MC_SUPPORTS)
                deltas.append(mc_frip(a, coll, row.s, 500, seed, 1.0 / math.sqrt(row.m)).value)
            assert [row.delta_q1, row.delta_median, row.delta_q3] == experiments._quartiles(deltas)
        assert run_frip_sweep(replace(cfg, measurement_grid=(8,))) == rows[1:]

    def test_bound_uniform_uses_the_ensembles_alpha(self):
        # the scaled uniform law is subgaussian with alpha < 1, so its bound
        # is smaller than the Gaussian one at the same cell
        cfg = ExperimentConfig(
            experiment="frip_sweep", family="random", d=4, k=2, N=6, sparsity_grid=(2,),
            measurement_grid=(4,), trials_per_cell=2, ensemble="uniform_scaled", base_seed=3,
        )
        (row,) = run_frip_sweep(cfg)
        alpha = subgaussian_alpha("uniform_scaled")
        assert alpha < 1.0
        assert row.bound_uniform == sufficient_uniform_vector(2, 6, 2, row.lambda_, alpha, cfg.epsilon, 1.0)
        (gaussian,) = run_frip_sweep(replace(cfg, ensemble="gaussian"))
        assert gaussian.bound_uniform == sufficient_uniform_vector(2, 6, 2, row.lambda_, 1.0, cfg.epsilon, 1.0)

    def test_quartiles_match_numpy_percentile(self):
        rng = np.random.default_rng(40)
        for trial in range(3000):
            n = int(rng.integers(1, 10))
            if trial % 2:  # few distinct values, so ties
                values = (rng.integers(0, 4, size=n) / 3.0).tolist()
            else:
                values = (rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)).tolist()
            expected = np.percentile(values, [25.0, 50.0, 75.0])
            got = experiments._quartiles(values)
            assert [v.hex() for v in got] == [float(v).hex() for v in expected], values


class TestBoundTable:
    def test_rows(self):
        cfg = ExperimentConfig(
            experiment="bound_table",
            family="orthogonal",
            d=8,
            k=2,
            N=4,
            sparsity_grid=(1, 2),
            measurement_grid=(1,),
            base_seed=1,
        )
        rows = run_bound_table(cfg)
        assert len(rows) == 2
        assert rows[0]["parameters"]["s"] == 1
        assert rows[1]["parameters"]["lambda"] == 0.0

    def test_rows_use_the_ensembles_alpha(self):
        cfg = ExperimentConfig(experiment="bound_table", family="orthogonal", d=8, k=2, N=4,
                               sparsity_grid=(2,), measurement_grid=(1,), base_seed=1)
        for ensemble, alpha, beta in (("gaussian", 1.0, 2), ("bernoulli", 1.0, 1),
                                      ("uniform_scaled", subgaussian_alpha("uniform_scaled"), 1)):
            (row,) = run_bound_table(replace(cfg, ensemble=ensemble))
            assert row == bounds_mod.bound_report(s=2, N=4, k=2, d=8, lam=0.0, alpha=alpha,
                                                  epsilon=cfg.epsilon, beta=beta).to_dict(), ensemble
        assert round(row["parameters"]["alpha"], 3) == 0.647
        # a smaller alpha gives a smaller sufficient count than alpha = 1
        assert round(row["sufficient_uniform_vector"], 3) == 0.809
        assert round(row["sufficient_scalar"], 3) == 7.565


class TestResultsIO:
    def test_csv_columns_exact(self, tmp_path):
        rows = run_phase_transition(phase_config(trials_per_cell=2))
        path = tmp_path / "out.csv"
        write_results(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(rows) + 1
        first = lines[1].split(",")
        assert first[0] == "phase_transition"
        assert first[2] == ""  # no theta for the orthogonal family
        assert first[9] == ""  # no eta in a phase sweep

    def test_headers_pinned(self, tmp_path):
        # the column contracts spelled out: the tuples come from the result
        # fields, so renaming a field must fail here
        path = tmp_path / "header.csv"
        write_results([], path)
        assert path.read_text() == (
            "experiment,family,theta,lambda,d,k,N,s,m,eta,trials,successes,"
            "mean_rel_error,max_rel_error,mean_iterations,solver_failures,base_seed\n"
        )
        write_frip_results([], path)
        assert path.read_text() == (
            "experiment,family,theta,lambda,d,k,N,s,m,trials,mode,"
            "delta_q1,delta_median,delta_q3,bound_uniform,base_seed\n"
        )

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results([], path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_json_format(self, tmp_path):
        rows = run_phase_transition(phase_config(trials_per_cell=2))
        path = tmp_path / "out.json"
        write_results(rows, path, format="json")
        docs = json.loads(path.read_text())
        assert docs[0]["experiment"] == "phase_transition"
        assert docs[0]["theta"] is None
        assert set(docs[0]) == set(CSV_COLUMNS)

    def test_rerun_reproduces_bytes(self, tmp_path):
        cfg = phase_config(trials_per_cell=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(run_phase_transition(cfg), p1)
        write_results(run_phase_transition(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_frip_writer(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="frip_sweep",
            family="orthogonal",
            d=4,
            k=1,
            N=4,
            sparsity_grid=(1,),
            measurement_grid=(4,),
            trials_per_cell=3,
            base_seed=9,
        )
        rows = run_frip_sweep(cfg)
        path = tmp_path / "frip.csv"
        write_frip_results(rows, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("experiment,family,theta,lambda")
        assert "delta_median" in header

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            write_results([], tmp_path / "x.tsv", format="tsv")
