import json

import numpy as np
import pytest

from fusioncs.cli import main
from fusioncs.experiments import CSV_COLUMNS
from fusioncs.frames import load_collection
from fusioncs.signals import load_signal


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture
def workspace(tmp_path):
    coll = tmp_path / "coll.json"
    assert run("frames", "gen", "--family", "orthogonal", "--d", 8, "--k", 2,
               "--N", 4, "--out", coll) == 0
    return tmp_path, coll


class TestFrames:
    def test_gen_and_coherence(self, workspace, capsys):
        tmp, coll = workspace
        loaded = load_collection(coll)
        assert loaded.size == 4
        assert run("frames", "coherence", "--collection", coll) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda"] == 0.0

    def test_gen_angle_and_random(self, tmp_path):
        out = tmp_path / "a.json"
        assert run("frames", "gen", "--family", "angle", "--k", 2, "--N", 3,
                   "--theta", 0.5, "--out", out) == 0
        assert load_collection(out).ambient_dim == 8
        assert run("frames", "gen", "--family", "random", "--d", 6, "--k", 2,
                   "--N", 3, "--seed", 9, "--out", out) == 0
        assert load_collection(out).ambient_dim == 6

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("frames", "coherence", "--collection", tmp_path / "nope.json") == 3

    def test_bad_dims_is_config_error(self, tmp_path):
        out = tmp_path / "bad.json"
        assert run("frames", "gen", "--family", "orthogonal", "--d", 4, "--k", 2,
                   "--N", 3, "--out", out) == 2


class TestPipelines:
    def test_signal_measure_recover(self, workspace, capsys):
        tmp, coll = workspace
        sig = tmp / "sig.json"
        mat = tmp / "A.json"
        y = tmp / "y.json"
        rec = tmp / "rec.json"
        assert run("signal", "gen", "--collection", coll, "--s", 2, "--seed", 3,
                   "--out", sig) == 0
        assert run("measure", "sample", "--distribution", "gaussian", "--rows", 3,
                   "--cols", 4, "--seed", 5, "--out", mat) == 0
        assert run("measure", "apply", "--matrix", mat, "--collection", coll,
                   "--signal", sig, "--out", y) == 0
        assert run("recover", "eq", "--matrix", mat, "--collection", coll,
                   "--y", y, "--out", rec) == 0
        diag = json.loads(capsys.readouterr().out)
        assert diag["status"] == "converged"
        truth = load_signal(sig, load_collection(coll))
        est = load_signal(rec, load_collection(coll))
        err = max(
            float(np.max(np.abs(a - b))) for a, b in zip(truth.coeffs, est.coeffs)
        )
        assert err <= 1e-6

    def test_scalar_kind_round_trip(self, workspace, capsys):
        # Phi acts on the stacked ambient vector: d * N = 32 columns
        tmp, coll = workspace
        sig, phi, y, rec = tmp / "s.json", tmp / "phi.json", tmp / "y.json", tmp / "r.json"
        assert run("signal", "gen", "--collection", coll, "--s", 1, "--seed", 4, "--out", sig) == 0
        assert run("measure", "sample", "--rows", 6, "--cols", 32, "--seed", 5, "--out", phi) == 0
        operator = ("--kind", "scalar", "--matrix", phi, "--collection", coll)
        assert run("measure", "apply", *operator, "--signal", sig, "--out", y) == 0
        assert run("recover", "eq", *operator, "--y", y, "--out", rec) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "converged"
        truth = load_signal(sig, load_collection(coll))
        est = load_signal(rec, load_collection(coll))
        err = max(float(np.max(np.abs(a - b))) for a, b in zip(truth.coeffs, est.coeffs))
        assert err <= 1e-9

    def test_recover_noisy(self, workspace, capsys):
        tmp, coll = workspace
        sig, mat, y = tmp / "s.json", tmp / "A.json", tmp / "y.json"
        run("signal", "gen", "--collection", coll, "--s", 1, "--seed", 1, "--out", sig)
        run("measure", "sample", "--rows", 3, "--cols", 4, "--seed", 2, "--out", mat)
        run("measure", "apply", "--matrix", mat, "--collection", coll,
            "--signal", sig, "--out", y)
        assert run("recover", "noisy", "--matrix", mat, "--collection", coll,
                   "--y", y, "--eta", 1e-3, "--out", tmp / "r.json") == 0
        assert json.loads(capsys.readouterr().out)["status"] == "converged"

    def test_rip_variants(self, workspace, capsys):
        tmp, coll = workspace
        mat = tmp / "A.json"
        run("measure", "sample", "--rows", 3, "--cols", 4, "--seed", 8, "--out", mat)
        assert run("rip", "exact", "--matrix", mat, "--collection", coll, "--s", 2,
                   "--normalized") == 0
        exact = json.loads(capsys.readouterr().out)
        assert exact["mode"] == "exact"
        assert exact["supports_evaluated"] == 6
        assert run("rip", "mc", "--matrix", mat, "--collection", coll, "--s", 2,
                   "--trials", 50, "--seed", 1, "--normalized") == 0
        mc = json.loads(capsys.readouterr().out)
        assert mc["value"] <= exact["value"] + 1e-12
        assert run("rip", "classical", "--matrix", mat, "--s", 2, "--normalized") == 0
        classical = json.loads(capsys.readouterr().out)
        assert exact["value"] <= classical["value"] + 1e-12

    def test_bounds_eval(self, capsys, tmp_path):
        out = tmp_path / "b.json"
        assert run("bounds", "eval", "--s", 2, "--N", 64, "--k", 2, "--d", 8,
                   "--lambda", 0.3, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["parameters"]["lambda"] == 0.3
        assert doc["regime_ok"] is True


BAD_NUMERIC_INPUT = {
    "exact_extra_column": ("rip", "exact", "--matrix", "A5", "--collection", "coll", "--s", 2),
    "scalar_wrong_width": ("rip", "scalar", "--matrix", "phi", "--collection", "coll", "--s", 1),
    "exact_s_above_n": ("rip", "exact", "--matrix", "A5", "--collection", "coll5", "--s", 9),
    "mc_zero_trials": ("rip", "mc", "--matrix", "A4", "--collection", "coll", "--s", 1,
                       "--trials", 0),
    "noisy_negative_eta": ("recover", "noisy", "--matrix", "A4", "--collection", "coll",
                           "--y", "y", "--eta", -1),
    "bounds_nan_C": ("bounds", "eval", "--s", 2, "--N", 10, "--k", 2, "--d", 4, "--C", "nan"),
    "bounds_inf_alpha": ("bounds", "eval", "--s", 2, "--N", 10, "--k", 2, "--d", 4, "--alpha", "inf"),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMERIC_INPUT))
def test_bad_numeric_input_exits_2(workspace, capsys, case):
    tmp, coll = workspace
    files = {"coll": coll}
    for name, rows, cols in (("A4", 3, 4), ("A5", 3, 5), ("phi", 3, 31), ("y", 24, 1)):
        files[name] = tmp / f"{name}.json"
        assert run("measure", "sample", "--rows", rows, "--cols", cols, "--out", files[name]) == 0
    files["coll5"] = tmp / "coll5.json"
    assert run("frames", "gen", "--family", "random", "--d", 4, "--k", 2, "--N", 5,
               "--out", files["coll5"]) == 0
    capsys.readouterr()
    assert run(*(files.get(arg, arg) for arg in BAD_NUMERIC_INPUT[case])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


SCALED_COMMANDS = {
    "measure_apply": ("measure", "apply", "--matrix", "A4", "--collection", "coll",
                      "--signal", "sig", "--out", "y_out"),
    "recover_eq": ("recover", "eq", "--matrix", "A4", "--collection", "coll", "--y", "y"),
    "rip_exact": ("rip", "exact", "--matrix", "A4", "--collection", "coll", "--s", 2),
}


@pytest.mark.parametrize("case", sorted(SCALED_COMMANDS))
def test_scale_and_normalized_exclusive(workspace, capsys, case):
    tmp, coll = workspace
    files = {"coll": coll, "A4": tmp / "A4.json", "sig": tmp / "sig.json",
             "y": tmp / "y.json", "y_out": tmp / "y_out.json"}
    assert run("measure", "sample", "--rows", 3, "--cols", 4, "--out", files["A4"]) == 0
    assert run("signal", "gen", "--collection", coll, "--s", 1, "--out", files["sig"]) == 0
    assert run("measure", "apply", "--matrix", files["A4"], "--collection", coll,
               "--signal", files["sig"], "--out", files["y"]) == 0
    capsys.readouterr()
    args = [files.get(arg, arg) for arg in SCALED_COMMANDS[case]]
    with pytest.raises(SystemExit) as exit_info:
        run(*args, "--scale", 3, "--normalized")
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "not allowed with argument --scale" in err
    assert "Traceback" not in err


NON_OBJECT_ROOT = {
    "collection": ("frames", "coherence", "--collection", "bad"),
    "matrix": ("recover", "eq", "--matrix", "bad", "--collection", "coll", "--y", "y"),
    "signal": ("measure", "apply", "--matrix", "A4", "--collection", "coll",
               "--signal", "bad", "--out", "y_out"),
}


@pytest.mark.parametrize("case", sorted(NON_OBJECT_ROOT))
def test_non_object_root_exits_2(workspace, capsys, case):
    tmp, coll = workspace
    files = {"coll": coll, "bad": tmp / "bad.json", "A4": tmp / "A4.json",
             "y": tmp / "y.json", "y_out": tmp / "y_out.json"}
    files["bad"].write_text("5\n")
    assert run("measure", "sample", "--rows", 3, "--cols", 4, "--out", files["A4"]) == 0
    assert run("measure", "sample", "--rows", 24, "--cols", 1, "--out", files["y"]) == 0
    capsys.readouterr()
    assert run(*(files.get(arg, arg) for arg in NON_OBJECT_ROOT[case])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: <root>: ")
    assert "Traceback" not in err


# (document, field, value): a field that is not a list of numbers
BAD_LIST_FIELDS = {
    "coeffs_number": ("signal", "coeffs", 5),
    "coeffs_block_object": ("signal", "coeffs", [{}] * 4),
    "coeffs_entry_object": ("signal", "coeffs", [[{}, 0.0]] * 4),
    "data_object": ("matrix", "data", {}),
    "data_entry_object": ("matrix", "data", [{}] * 12),
    "bases_object": ("collection", "bases", [{}] * 4),
    "bases_entry_string": ("collection", "bases", [["x"] * 16] * 4),
}


@pytest.mark.parametrize("case", sorted(BAD_LIST_FIELDS))
def test_non_list_field_exits_2(workspace, capsys, case):
    tmp, coll = workspace
    files = {"coll": coll, "bad": tmp / "bad.json", "A4": tmp / "A4.json", "sig": tmp / "sig.json",
             "y": tmp / "y.json", "y_out": tmp / "y_out.json"}
    assert run("measure", "sample", "--rows", 3, "--cols", 4, "--out", files["A4"]) == 0
    assert run("measure", "sample", "--rows", 24, "--cols", 1, "--out", files["y"]) == 0
    assert run("signal", "gen", "--collection", coll, "--s", 1, "--out", files["sig"]) == 0
    kind, field, value = BAD_LIST_FIELDS[case]
    doc = json.loads({"collection": coll, "matrix": files["A4"], "signal": files["sig"]}[kind].read_text())
    doc[field] = value
    files["bad"].write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(*(files.get(arg, arg) for arg in NON_OBJECT_ROOT[kind])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert "Traceback" not in err


# case -> (extra recover arguments, file with a non-finite entry, the entry)
NON_FINITE_INPUT = {
    "eta_nan": (("--eta", "nan"), None, None),
    "eta_inf": (("--eta", "inf"), None, None),
    "y_nan": ((), "y", float("nan")),
    "y_inf": ((), "y", float("inf")),
    "matrix_nan": ((), "matrix", float("nan")),
    "matrix_inf": ((), "matrix", float("inf")),
}
NON_FINITE_ERRORS = {
    None: "error: y and eta must be finite\n",
    "y": "error: y and eta must be finite\n",
    "matrix": "error: the operator has non-finite entries\n",
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_INPUT))
def test_non_finite_input_exits_2(workspace, capsys, case):
    tmp, coll = workspace
    mat, sig, y = tmp / "A4.json", tmp / "sig.json", tmp / "y.json"
    assert run("measure", "sample", "--rows", 3, "--cols", 4, "--out", mat) == 0
    assert run("signal", "gen", "--collection", coll, "--s", 1, "--out", sig) == 0
    assert run("measure", "apply", "--matrix", mat, "--collection", coll, "--signal", sig, "--out", y) == 0
    eta, target, entry = NON_FINITE_INPUT[case]
    if target is not None:
        path = {"y": y, "matrix": mat}[target]
        doc = json.loads(path.read_text())
        doc["data"][5] = entry
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    mode = ("noisy",) + eta if eta else ("eq",)
    assert run("recover", *mode, "--matrix", mat, "--collection", coll, "--y", y) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == NON_FINITE_ERRORS[target]


def test_nan_basis_exits_2(workspace, capsys):
    tmp, coll = workspace
    doc = json.loads(coll.read_text())
    doc["bases"][0][0] = float("nan")
    coll.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("frames", "coherence", "--collection", coll) == 2
    assert capsys.readouterr().err == "error: basis 0 deviates from orthonormality by nan\n"


@pytest.mark.parametrize("field, value", [("k", True), ("N", 2.0)])
def test_signal_dims_not_integers_exit_2(tmp_path, capsys, field, value):
    # on a k = 1, N = 2 collection, "k": true and "N": 2.0 equal the
    # collection's dims by value, but they are not integers
    coll, mat, sig, y = (tmp_path / f"{name}.json" for name in ("coll", "A", "sig", "y"))
    assert run("frames", "gen", "--family", "orthogonal", "--d", 4, "--k", 1, "--N", 2, "--out", coll) == 0
    assert run("measure", "sample", "--rows", 2, "--cols", 2, "--out", mat) == 0
    assert run("signal", "gen", "--collection", coll, "--s", 1, "--out", sig) == 0
    assert run("measure", "apply", "--matrix", mat, "--collection", coll, "--signal", sig, "--out", y) == 0
    doc = json.loads(sig.read_text())
    doc[field] = value
    sig.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("measure", "apply", "--matrix", mat, "--collection", coll, "--signal", sig, "--out", y) == 2
    assert capsys.readouterr().err == f"error: {field}: must be a positive integer\n"


# loader -> the command that reads the malformed file, named "bad"
MALFORMED_JSON = {
    "collection": ("frames", "coherence", "--collection", "bad"),
    "signal": ("measure", "apply", "--matrix", "mat", "--collection", "coll",
               "--signal", "bad", "--out", "y"),
    "matrix": ("rip", "classical", "--matrix", "bad", "--s", 1),
    "config": ("experiment", "phase", "--config", "bad"),
}


@pytest.mark.parametrize("loader", sorted(MALFORMED_JSON))
def test_malformed_json_exits_2(workspace, capsys, loader):
    tmp, coll = workspace
    mat = tmp / "A4.json"
    assert run("measure", "sample", "--rows", 3, "--cols", 4, "--out", mat) == 0
    (tmp / "bad.json").write_text("{not json")
    files = {"bad": tmp / "bad.json", "mat": mat, "coll": coll, "y": tmp / "y.json"}
    capsys.readouterr()
    assert run(*(files.get(a, a) for a in MALFORMED_JSON[loader])) == 2
    assert capsys.readouterr().err == (
        "error: <json>: line 1: Expecting property name enclosed in double quotes\n"
    )


# case -> (the loader of the document, its fields set to true): the first is
# named in the error; "d" and "k" both true make the dimensions consistent,
# and so does "rows" true for the one-row matrix
BOOLEAN_DIMENSIONS = {
    "collection_d_k": ("collection", ("d", "k")),
    "collection_k": ("collection", ("k",)),
    "matrix_rows": ("matrix", ("rows",)),
    "matrix_cols": ("matrix", ("cols",)),
}


@pytest.mark.parametrize("case", sorted(BOOLEAN_DIMENSIONS))
def test_boolean_dimension_exits_2(workspace, capsys, case):
    # JSON's true is not a positive integer, though Python's bool is an int
    tmp, coll = workspace
    mat = tmp / "A1.json"
    assert run("measure", "sample", "--rows", 1, "--cols", 4, "--out", mat) == 0
    loader, names = BOOLEAN_DIMENSIONS[case]
    doc = json.loads({"collection": coll, "matrix": mat}[loader].read_text())
    doc.update(dict.fromkeys(names, True))
    (tmp / "bad.json").write_text(json.dumps(doc))
    files = {"bad": tmp / "bad.json", "mat": mat, "coll": coll, "y": tmp / "y.json"}
    capsys.readouterr()
    assert run(*(files.get(a, a) for a in MALFORMED_JSON[loader])) == 2
    assert capsys.readouterr().err == f"error: {names[0]}: must be a positive integer\n"


@pytest.mark.parametrize("version", [True, 1.0])
@pytest.mark.parametrize("loader", ["collection", "matrix", "signal"])
def test_non_integer_version_exits_2(workspace, capsys, loader, version):
    # JSON's true and 1.0 compare equal to 1 in Python, but neither is version 1
    tmp, coll = workspace
    mat, sig = tmp / "A4.json", tmp / "x.json"
    assert run("measure", "sample", "--rows", 3, "--cols", 4, "--out", mat) == 0
    assert run("signal", "gen", "--collection", coll, "--s", 1, "--seed", 1, "--out", sig) == 0
    doc = json.loads({"collection": coll, "matrix": mat, "signal": sig}[loader].read_text())
    doc["version"] = version
    (tmp / "bad.json").write_text(json.dumps(doc))
    files = {"bad": tmp / "bad.json", "mat": mat, "coll": coll, "y": tmp / "y.json"}
    capsys.readouterr()
    assert run(*(files.get(a, a) for a in MALFORMED_JSON[loader])) == 2
    assert capsys.readouterr().err == f"error: version: unsupported version {version!r}\n"


@pytest.mark.parametrize("loader", sorted(MALFORMED_JSON))
def test_non_utf8_json_exits_2(workspace, capsys, loader):
    # a UTF-16 byte order mark is not UTF-8: the same schema error as any
    # other unreadable document, not the codec's message
    tmp, coll = workspace
    mat = tmp / "A4.json"
    assert run("measure", "sample", "--rows", 3, "--cols", 4, "--out", mat) == 0
    (tmp / "bad.json").write_bytes(b"\xff\xfe{\x00}\x00")
    files = {"bad": tmp / "bad.json", "mat": mat, "coll": coll, "y": tmp / "y.json"}
    capsys.readouterr()
    assert run(*(files.get(a, a) for a in MALFORMED_JSON[loader])) == 2
    assert capsys.readouterr().err == "error: <json>: not UTF-8 text: invalid start byte at byte 0\n"


def test_recover_prints_strict_json(workspace, capsys):
    # a generic y is outside the range of the injective 24 x 8 B: the
    # infeasible report's infinite residual and gap print as null
    tmp, coll = workspace
    mat, y = tmp / "A4.json", tmp / "y.json"
    assert run("measure", "sample", "--rows", 3, "--cols", 4, "--seed", 1, "--out", mat) == 0
    assert run("measure", "sample", "--rows", 24, "--cols", 1, "--seed", 2, "--out", y) == 0
    capsys.readouterr()
    assert run("recover", "eq", "--matrix", mat, "--collection", coll, "--y", y) == 0

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    diag = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert diag["status"] == "infeasible"
    assert diag["dual_residual"] is None and diag["duality_gap"] is None
    assert isinstance(diag["primal_residual"], float) and diag["primal_residual"] > 0.0


def test_nested_matrix_data_named(workspace, capsys):
    tmp, coll = workspace
    mat, y = tmp / "A4.json", tmp / "y.json"
    assert run("measure", "sample", "--rows", 3, "--cols", 4, "--out", mat) == 0
    assert run("measure", "sample", "--rows", 24, "--cols", 1, "--out", y) == 0
    doc = json.loads(mat.read_text())
    doc["data"] = np.reshape(doc["data"], (3, 4)).tolist()
    mat.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("recover", "eq", "--matrix", mat, "--collection", coll, "--y", y) == 2
    assert capsys.readouterr().err == "error: data: must be a flat list of rows * cols numbers\n"


class TestExperimentCommand:
    def make_config(self, tmp_path, **overrides):
        cfg = dict(
            experiment="phase_transition",
            family="orthogonal",
            d=8,
            k=2,
            N=4,
            sparsity_grid=[1],
            measurement_grid=[1, 2],
            trials_per_cell=3,
            base_seed=5,
            output_path=str(tmp_path / "rows.csv"),
        )
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_phase_run_writes_csv(self, tmp_path):
        cfg = self.make_config(tmp_path)
        assert run("experiment", "phase", "--config", cfg) == 0
        lines = (tmp_path / "rows.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_json_format_and_out_override(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "alt.json"
        assert run("experiment", "phase", "--config", cfg, "--out", out,
                   "--format", "json") == 0
        assert json.loads(out.read_text())[0]["experiment"] == "phase_transition"

    def test_schema_error_exit_code(self, tmp_path):
        cfg = self.make_config(tmp_path, bogus_field=1)
        assert run("experiment", "phase", "--config", cfg) == 2

    def test_wrong_kind_exit_code(self, tmp_path):
        cfg = self.make_config(tmp_path)
        assert run("experiment", "noise", "--config", cfg) == 2

    @pytest.mark.parametrize("kind, field, value", [
        ("phase", "success_tol", float("nan")),
        ("noise", "eta_grid", [float("nan")]),
        ("noise", "eta_grid", [float("inf")]),
    ])
    def test_non_finite_config_exits_2(self, tmp_path, capsys, kind, field, value):
        # JSON's NaN and Infinity are rejected before any trial runs, with
        # the field named
        noise = dict(experiment="noise_robustness", eta_grid=[1e-3], measurement_grid=[3])
        cfg = self.make_config(tmp_path, **{**(noise if kind == "noise" else {}), field: value})
        assert run("experiment", kind, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} ")
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("field, value", [
        ("trials_per_cell", True),
        ("max_iters", True),
        ("success_tol", False),
        ("measurement_grid", ["a"]),
        ("measurement_grid", [True]),
        ("sparsity_grid", [1.5]),
        ("eta_grid", ["x"]),
        ("theta_grid", [True]),
    ])
    def test_wrongly_typed_config_exits_2(self, tmp_path, capsys, field, value):
        # booleans are not numbers, and grid entries are checked: a schema
        # error naming the field, before any trial runs
        cfg = self.make_config(tmp_path, **{field: value})
        assert run("experiment", "phase", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "rows.csv").exists()

    def test_no_output_path_exits_2(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        doc = json.loads(cfg.read_text())
        del doc["output_path"]
        cfg.write_text(json.dumps(doc))
        assert run("experiment", "phase", "--config", cfg) == 2
        assert capsys.readouterr().err.startswith("error: no output path")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_missing_config_io_error(self, tmp_path):
        assert run("experiment", "phase", "--config", tmp_path / "none.json") == 3

    def test_noise_and_frip_runs(self, tmp_path):
        noise_cfg = self.make_config(
            tmp_path,
            experiment="noise_robustness",
            eta_grid=[0.0, 1e-2],
            measurement_grid=[3],
            sparsity_grid=[1],
            output_path=str(tmp_path / "noise.csv"),
        )
        assert run("experiment", "noise", "--config", noise_cfg) == 0
        assert (tmp_path / "noise.csv").exists()
        frip_cfg = self.make_config(
            tmp_path,
            experiment="frip_sweep",
            sparsity_grid=[1, 2],
            measurement_grid=[4],
            output_path=str(tmp_path / "frip.csv"),
        )
        assert run("experiment", "frip", "--config", frip_cfg) == 0
        header = (tmp_path / "frip.csv").read_text().splitlines()[0]
        assert "delta_median" in header

    def test_determinism_via_cli(self, tmp_path):
        cfg = self.make_config(tmp_path)
        run("experiment", "phase", "--config", cfg)
        first = (tmp_path / "rows.csv").read_bytes()
        run("experiment", "phase", "--config", cfg)
        assert (tmp_path / "rows.csv").read_bytes() == first
