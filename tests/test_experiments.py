import json
from dataclasses import fields

import numpy as np
import pytest

from fusioncs import experiments, solver

from fusioncs.errors import ConfigError, SchemaError
from fusioncs.experiments import (
    CSV_COLUMNS,
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
from fusioncs.frames import coherence


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
        for wrong in (None, 1 if isinstance(value, (str, dict)) else "1"):
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

    def test_random_family_resample_flag(self):
        cfg = phase_config(
            family="random", d=6, k=2, N=4,
            sparsity_grid=(1,), measurement_grid=(3,), trials_per_cell=4,
        )
        fixed = run_phase_transition(cfg)
        resampled = run_phase_transition(
            ExperimentConfig(**{**config_to_dict(cfg), "ensemble": "gaussian",
                               "resample_collection": True,
                               "sparsity_grid": (1,), "measurement_grid": (3,),
                               "eta_grid": (), "theta_grid": ()})
        )
        assert fixed != resampled


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
        from fusioncs.bounds import sufficient_uniform_vector

        assert coherent.bound_uniform == pytest.approx(
            sufficient_uniform_vector(2, 4, 1, coherent.lambda_, 1.0, cfg.epsilon, 1.0)
        )


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
