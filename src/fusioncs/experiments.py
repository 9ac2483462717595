"""Seeded experiment sweeps: phase transitions, noise robustness, isometry
constants, and bound tables.

Every trial derives its own seed from (base_seed, cell_key, trial_index,
stream) through a SplitMix64 fold, where the cell key encodes the cell's
coordinates (family, theta, s, m, eta) rather than its position in the
sweep. Any sub-grid of a configuration therefore reproduces the identical
trials, and the order in which cells and trials run cannot affect results.
One collection is fixed per cell; the measurement ensemble is resampled per
trial, unless ``resample_collection`` asks for a fresh collection per trial
as well.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import MISSING, dataclass, fields
from itertools import product

import numpy as np

from . import bounds as bounds_mod
from .errors import ConfigError, SchemaError
from .frames import (
    SubspaceCollection,
    angle_family,
    coherence,
    orthogonal_collection,
    random_collection,
)
from .measurement import (
    DISTRIBUTIONS,
    EnsembleSpec,
    add_noise,
    compose_with_bases,
    sample_ensemble,
    vector_operator,
)
from .rip import MAX_SUPPORT_COLUMNS, MAX_SUPPORTS_EXACT, exact_frip, mc_frip
from .signals import coeff_vector, random_sparse_signal
from .solver import MAX_ITERS, solve_noisy

EXPERIMENTS = ("phase_transition", "noise_robustness", "frip_sweep", "bound_table")
# a family's position plus one is its code in cell_key: add new families at the end
FAMILIES = ("orthogonal", "angle", "random")

# seed streams, one per random ingredient of a trial
STREAM_COLLECTION = 0
STREAM_SIGNAL = 1
STREAM_ENSEMBLE = 2
STREAM_NOISE = 3
STREAM_MC_SUPPORTS = 4

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, cell_key: int, trial_index: int, stream: int) -> int:
    """64-bit SplitMix64 fold of the trial coordinates; the published mixing
    function behind every random draw of a sweep."""
    x = base_seed & _MASK64
    for part in (cell_key, trial_index, stream):
        x = _splitmix64(x ^ (part & _MASK64))
    return x


def _float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def cell_key(family: str, theta: float | None, s: int, m: int, eta: float | None) -> int:
    """Stable 64-bit identifier of a cell's coordinates.

    Independent of the cell's position in the sweep, so sub-grids of a
    configuration reproduce the identical trials cell by cell.
    """
    x = FAMILIES.index(family) + 1
    parts = (
        _float_bits(theta if theta is not None else -1.0),
        s,
        m,
        _float_bits(eta if eta is not None else -1.0),
    )
    for part in parts:
        x = _splitmix64(x ^ (part & _MASK64))
    return x


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    family: str
    d: int
    k: int
    N: int
    sparsity_grid: tuple[int, ...]
    measurement_grid: tuple[int, ...]
    ensemble: str = "gaussian"
    trials_per_cell: int = 20
    success_tol: float = 1e-6
    eta_grid: tuple[float, ...] = ()
    theta_grid: tuple[float, ...] = ()
    base_seed: int = 0
    output_path: str = ""
    resample_collection: bool = False
    max_iters: int = MAX_ITERS
    epsilon: float = 0.01


def _json_type(f):
    """The JSON types a config field accepts, read off its annotation."""
    if f.name == "ensemble":
        return (str, dict)  # a distribution name, or {"distribution": name}
    if f.type.startswith("tuple"):
        return list
    return {"str": str, "int": int, "float": (int, float), "bool": bool}[f.type]


_CONFIG_FIELDS = {f.name: _json_type(f) for f in fields(ExperimentConfig)}
_REQUIRED_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.default is MISSING)


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise SchemaError("<root>", "configuration must be a JSON object")
    for name in _REQUIRED_FIELDS:
        if name not in doc:
            raise SchemaError(name, "missing field")
    for name in doc:
        if name not in _CONFIG_FIELDS:
            raise SchemaError(name, "unknown field")
    for name, expected in _CONFIG_FIELDS.items():
        if name in doc and not isinstance(doc[name], expected):
            raise SchemaError(name, f"expected {expected}, got {type(doc[name]).__name__}")
    ensemble = doc.get("ensemble", "gaussian")
    if isinstance(ensemble, dict):
        if "distribution" not in ensemble:
            raise SchemaError("ensemble.distribution", "missing field")
        ensemble = ensemble["distribution"]
        if not isinstance(ensemble, str):
            raise SchemaError("ensemble.distribution", "expected a string")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items() if k != "ensemble"}
    cfg = ExperimentConfig(ensemble=ensemble, **kwargs)
    validate_config(cfg)
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        doc[f.name] = list(value) if isinstance(value, tuple) else value
    doc["ensemble"] = {"distribution": cfg.ensemble}  # keeps its place in the key order
    return doc


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("<json>", f"line {exc.lineno}: {exc.msg}") from exc
    return config_from_dict(doc)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if cfg.family not in FAMILIES:
        raise ConfigError(f"unknown family {cfg.family!r}")
    if cfg.ensemble not in DISTRIBUTIONS:
        raise ConfigError(f"unknown ensemble {cfg.ensemble!r}")
    if cfg.d < 1 or cfg.k < 1 or cfg.N < 1 or cfg.k > cfg.d:
        raise ConfigError(f"invalid dimensions d={cfg.d}, k={cfg.k}, N={cfg.N}")
    if not cfg.sparsity_grid or not cfg.measurement_grid:
        raise ConfigError("sparsity_grid and measurement_grid must be nonempty")
    if any(s < 1 or s > cfg.N for s in cfg.sparsity_grid):
        raise ConfigError(f"sparsity grid entries must lie in [1, {cfg.N}]")
    if any(m < 1 for m in cfg.measurement_grid):
        raise ConfigError("measurement grid entries must be positive")
    if cfg.trials_per_cell < 1:
        raise ConfigError("trials_per_cell must be at least 1")
    if cfg.success_tol <= 0:
        raise ConfigError("success_tol must be positive")
    if cfg.max_iters < 1:
        raise ConfigError("max_iters must be positive")
    if not 0.0 < cfg.epsilon < 1.0:
        raise ConfigError("epsilon must lie in (0, 1)")
    if cfg.family == "orthogonal" and cfg.N * cfg.k > cfg.d:
        raise ConfigError(
            f"orthogonal family needs N*k <= d, got {cfg.N * cfg.k} > {cfg.d}"
        )
    if cfg.family == "angle":
        if not cfg.theta_grid:
            raise ConfigError("angle family needs a nonempty theta_grid")
        if any(not 0.0 <= t <= math.pi / 2 for t in cfg.theta_grid):
            raise ConfigError("theta grid entries must lie in [0, pi/2]")
    if cfg.experiment == "noise_robustness":
        if not cfg.eta_grid:
            raise ConfigError("noise_robustness needs a nonempty eta_grid")
        if any(e < 0 for e in cfg.eta_grid):
            raise ConfigError("eta grid entries must be nonnegative")


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellResult:
    experiment: str
    family: str
    theta: float | None
    lambda_: float
    d: int
    k: int
    N: int
    s: int
    m: int
    eta: float | None
    trials: int
    successes: int
    mean_rel_error: float
    max_rel_error: float
    mean_iterations: float
    solver_failures: int
    base_seed: int

    def row(self) -> dict:
        return _row(self)


@dataclass(frozen=True)
class FripCell:
    experiment: str
    family: str
    theta: float | None
    lambda_: float
    d: int
    k: int
    N: int
    s: int
    m: int
    trials: int
    mode: str
    delta_q1: float
    delta_median: float
    delta_q3: float
    bound_uniform: float
    base_seed: int

    def row(self) -> dict:
        return _row(self)


def _column(name: str) -> str:
    """The CSV column of a result field: ``lambda_`` is written as ``lambda``."""
    return name.rstrip("_")


def _row(result) -> dict:
    """Field values keyed by their CSV column."""
    return {_column(f.name): getattr(result, f.name) for f in fields(result)}


# the fixed column contracts, in field order
CSV_COLUMNS = tuple(_column(f.name) for f in fields(CellResult))
FRIP_CSV_COLUMNS = tuple(_column(f.name) for f in fields(FripCell))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return str(value)


def _write_rows(rows, columns, path, format: str) -> None:
    if format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {format!r}")
    dicts = [r.row() for r in rows]
    if format == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dicts, fh, indent=2)
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in dicts:
            writer.writerow([_csv_cell(row[c]) for c in columns])


def write_results(rows, path, format: str = "csv") -> None:
    """Persist recovery-cell rows with the fixed column contract."""
    _write_rows(rows, CSV_COLUMNS, path, format)


def write_frip_results(rows, path, format: str = "csv") -> None:
    """Persist isometry-sweep rows (their own column set)."""
    _write_rows(rows, FRIP_CSV_COLUMNS, path, format)


def fit_error_vs_eta(rows) -> tuple[float, float]:
    """Least-squares (slope, intercept) of mean error against eta."""
    etas = np.array([r.eta for r in rows], dtype=float)
    errs = np.array([r.mean_rel_error for r in rows], dtype=float)
    slope, intercept = np.polyfit(etas, errs, 1)
    return float(slope), float(intercept)


# ---------------------------------------------------------------------------
# Family points and cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _FamilyPoint:
    family: str
    theta: float | None


def _family_points(cfg: ExperimentConfig) -> list[_FamilyPoint]:
    if cfg.family == "angle":
        return [_FamilyPoint("angle", float(t)) for t in cfg.theta_grid]
    return [_FamilyPoint(cfg.family, None)]


def _collection_for(cfg: ExperimentConfig, point: _FamilyPoint, key: int, trial: int | None) -> SubspaceCollection:
    if point.family == "orthogonal":
        return orthogonal_collection(cfg.d, cfg.k, cfg.N)
    if point.family == "angle":
        return angle_family(cfg.k, cfg.N, point.theta)
    t = 0 if trial is None else trial
    seed = derive_seed(cfg.base_seed, key, t, STREAM_COLLECTION)
    return random_collection(cfg.d, cfg.k, cfg.N, seed)


def _measured_lambda(coll: SubspaceCollection) -> float:
    if coll.size < 2:
        return 0.0
    return coherence(coll).lambda_


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def _check_experiment(config: ExperimentConfig, experiment: str) -> None:
    validate_config(config)
    if config.experiment != experiment:
        raise ConfigError(f"config is for {config.experiment!r}, not {experiment}")


def run_phase_transition(config: ExperimentConfig) -> list[CellResult]:
    """Success probability of equality-constrained recovery on an (s, m) grid.

    A trial succeeds when the solver converges and reproduces the planted
    unit-norm-block signal to relative error at most ``success_tol``.
    Non-converged statuses count as solver failures and never abort the
    sweep.
    """
    _check_experiment(config, "phase_transition")
    grid = product(_family_points(config), config.sparsity_grid, config.measurement_grid)
    return _run_recovery(config, [(point, s, m, None) for point, s, m in grid], 1.0)


def run_noise_robustness(config: ExperimentConfig) -> list[CellResult]:
    """Mean recovery error against the noise level on one fixed (s, m) cell.

    Measurements use the 1/sqrt(m) normalized convention and carry a
    perturbation of norm exactly eta; recovery runs the ball-constrained
    program at the same eta. The returned rows support a least-squares read
    of the error slope and intercept via :func:`fit_error_vs_eta`.
    """
    _check_experiment(config, "noise_robustness")
    s = config.sparsity_grid[0]
    m = config.measurement_grid[0]
    grid = product(_family_points(config), config.eta_grid)
    cells = [(point, s, m, float(eta)) for point, eta in grid]
    return _run_recovery(config, cells, 1.0 / math.sqrt(m))


def _run_recovery(config: ExperimentConfig, cells, scale: float) -> list[CellResult]:
    """One row per (point, s, m, eta) cell; eta is None for a phase cell.

    Every trial measures with ``scale * (A (x) I)``, perturbs by norm eta
    and solves the ball program at radius eta; at eta = 0 the noise is a
    copy without a draw and the ball program is the equality program.
    """
    results = []
    for point, s, m, eta in cells:
        # eta left out of the key: every eta row reuses the same instances
        # and noise directions, so a noise sweep reads as a dose response
        key = cell_key(point.family, point.theta, s, m, None)
        fixed_coll = None
        if not config.resample_collection:
            fixed_coll = _collection_for(config, point, key, None)

        def trial(t: int):
            coll = fixed_coll
            if coll is None:
                coll = _collection_for(config, point, key, t)
            x = random_sparse_signal(
                coll, s, derive_seed(config.base_seed, key, t, STREAM_SIGNAL)
            )
            a = sample_ensemble(
                EnsembleSpec(
                    config.ensemble, m, coll.size,
                    derive_seed(config.base_seed, key, t, STREAM_ENSEMBLE),
                )
            )
            b = compose_with_bases(vector_operator(a, coll.ambient_dim, scale=scale), coll)
            truth = coeff_vector(x)
            y = add_noise(
                b.matvec(truth), eta or 0.0,
                derive_seed(config.base_seed, key, t, STREAM_NOISE),
            )
            sol = solve_noisy(b, y, eta or 0.0, max_iters=config.max_iters)
            rel = float(
                np.linalg.norm(coeff_vector(sol.estimate) - truth) / np.linalg.norm(truth)
            )
            converged = sol.status == "converged"
            return converged and rel <= config.success_tol, rel, sol.iterations, not converged

        outcomes = [trial(t) for t in range(config.trials_per_cell)]
        lam_coll = fixed_coll if fixed_coll is not None else _collection_for(config, point, key, 0)
        results.append(_summarize_cell(config, point, s, m, eta, lam_coll, outcomes))
    return results


def _summarize_cell(config, point, s, m, eta, coll, outcomes) -> CellResult:
    rels = [o[1] for o in outcomes]
    return CellResult(
        experiment=config.experiment,
        family=point.family,
        theta=point.theta,
        lambda_=_measured_lambda(coll),
        d=coll.ambient_dim,
        k=coll.block_dim,
        N=coll.size,
        s=s,
        m=m,
        eta=eta,
        trials=len(outcomes),
        successes=sum(1 for o in outcomes if o[0]),
        mean_rel_error=float(np.mean(rels)),
        max_rel_error=float(np.max(rels)),
        mean_iterations=float(np.mean([o[2] for o in outcomes])),
        solver_failures=sum(1 for o in outcomes if o[3]),
        base_seed=config.base_seed,
    )


def _quartiles(values) -> list[float]:
    """The 25th, 50th and 75th percentiles by numpy's linear rule, bit for
    bit, without np.percentile (its first call in a process imports
    numpy.ma)."""
    v = sorted(values)
    out = []
    for q in (0.25, 0.5, 0.75):
        pos = (len(v) - 1) * q
        i = math.floor(pos)
        t = pos - i
        a, b = v[i], v[min(i + 1, len(v) - 1)]
        # numpy's lerp: from whichever end t is nearer
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t))
    return out


def run_frip_sweep(config: ExperimentConfig) -> list[FripCell]:
    """Quartiles of the restricted isometry constant over fresh ensembles.

    Uses the exhaustive constant whenever the enumeration guards allow and a
    500-support sampled lower bound otherwise; each row also carries the
    closed-form sufficient measurement count at C = 1 for reference.
    """
    _check_experiment(config, "frip_sweep")
    results = []
    cells = list(product(_family_points(config), config.sparsity_grid, config.measurement_grid))
    for point, s, m in cells:
        key = cell_key(point.family, point.theta, s, m, None)
        coll = _collection_for(config, point, key, None)
        exact_ok = (
            math.comb(coll.size, s) <= MAX_SUPPORTS_EXACT
            and s * coll.block_dim <= MAX_SUPPORT_COLUMNS
        )

        def trial(t: int):
            a = sample_ensemble(
                EnsembleSpec(
                    config.ensemble, m, coll.size,
                    derive_seed(config.base_seed, key, t, STREAM_ENSEMBLE),
                )
            )
            scale = 1.0 / math.sqrt(m)
            if exact_ok:
                return exact_frip(a, coll, s, scale).value
            est = mc_frip(
                a, coll, s, trials=500,
                seed=derive_seed(config.base_seed, key, t, STREAM_MC_SUPPORTS),
                scale=scale,
            )
            return est.value

        deltas = [trial(t) for t in range(config.trials_per_cell)]
        q1, med, q3 = _quartiles(deltas)
        lam = _measured_lambda(coll)
        results.append(
            FripCell(
                experiment=config.experiment,
                family=point.family,
                theta=point.theta,
                lambda_=lam,
                d=coll.ambient_dim,
                k=coll.block_dim,
                N=coll.size,
                s=s,
                m=m,
                trials=config.trials_per_cell,
                mode="exact" if exact_ok else "monte_carlo",
                delta_q1=q1,
                delta_median=med,
                delta_q3=q3,
                bound_uniform=bounds_mod.sufficient_uniform_vector(
                    s, coll.size, coll.block_dim, lam, 1.0, config.epsilon, 1.0
                ),
                base_seed=config.base_seed,
            )
        )
    return results


def run_bound_table(config: ExperimentConfig) -> list[dict]:
    """Closed-form bound reports over the family points and sparsity grid."""
    _check_experiment(config, "bound_table")
    beta = 2 if config.ensemble == "gaussian" else 1
    rows = []
    for point, s in product(_family_points(config), config.sparsity_grid):
        key = cell_key(point.family, point.theta, s, 0, None)
        coll = _collection_for(config, point, key, None)
        report = bounds_mod.bound_report(
            s=s,
            N=coll.size,
            k=coll.block_dim,
            d=coll.ambient_dim,
            lam=_measured_lambda(coll),
            epsilon=config.epsilon,
            beta=beta,
        )
        rows.append(report.to_dict())
    return rows
