"""Seeded experiment sweeps: phase transitions, noise robustness, isometry
constants, and bound tables.

One table, :data:`FAMILIES`, maps each family name to its collection
builder, and one cell loop serves every sweep: for each theta and grid point
it derives the cell key, builds the trial-0 collection, measures lambda on
it once and fills the leading result fields.

Every trial derives its own seed from (base_seed, cell_key, trial_index,
stream) through a SplitMix64 fold, where the cell key encodes the cell's
coordinates (family, theta, s, m, eta) rather than its position in the
sweep. Any sub-grid of a configuration therefore reproduces the identical
trials, and the order in which cells and trials run cannot affect results.
One collection is fixed per cell; the measurement ensemble is resampled per
trial.

A recovery sweep sets its trials up in one pass: it hashes every trial seed
of the sweep at once into the state words ``np.random.default_rng(seed)``
would give its PCG64 (:func:`_seed_states`), and draws the signals and
measurement matrices of each cell into stacks from generators seeded with
those words, bit for bit as the public single-seed calls
(``random_sparse_signal``, ``sample_ensemble``, ``add_noise``) draw them
through ``default_rng``.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from itertools import product

import numpy as np

from . import bounds as bounds_mod
from .errors import ConfigError, SchemaError, is_integer, read_json, require_fields, write_json
from .frames import SubspaceCollection, angle_family, coherence, orthogonal_collection, random_collection
from .measurement import (
    _ENSEMBLES,
    DISTRIBUTIONS,
    EnsembleSpec,
    coefficient_operators,
    perturb,
    sample_ensemble,
    sample_ensembles,
    subgaussian_alpha,
)
from .rip import enumerable, exact_frip, mc_frip
from .signals import coeff_vector, random_sparse_coeffs
from .solver import MAX_ITERS, solve_many

EXPERIMENTS = ("phase_transition", "noise_robustness", "frip_sweep", "bound_table")
# family name -> collection builder (d, k, N, theta, seed). A family's position
# plus one is its code in cell_key: add new families at the end. The builders
# look their functions up when called, so that a wrapped one is the one called.
FAMILIES = {
    "orthogonal": lambda d, k, N, theta, seed: orthogonal_collection(d, k, N),
    "angle": lambda d, k, N, theta, seed: angle_family(k, N, theta),
    "random": lambda d, k, N, theta, seed: random_collection(d, k, N, seed),
}

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


def _fold(x: int, parts) -> int:
    """SplitMix64 fold of the 64-bit parts into x, in order."""
    for part in parts:
        x = _splitmix64(x ^ (part & _MASK64))
    return x


def derive_seed(base_seed: int, cell_key: int, trial_index: int, stream: int) -> int:
    """64-bit SplitMix64 fold of the trial coordinates; the published mixing
    function behind every random draw of a sweep."""
    return _fold(base_seed & _MASK64, (cell_key, trial_index, stream))


def _seed_states(seeds) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every seed at
    once: a (len(seeds), 4) uint64 array, the words with which
    ``np.random.default_rng(seed)`` seeds its PCG64.

    A vectorized uint32 transcription of ``hashmix``, ``mix``,
    ``SeedSequence.mix_entropy`` and ``SeedSequence.generate_state`` in
    numpy/random/bit_generator.pyx, for the default pool of four words. A
    seed in [0, 2**64) is one or two little-endian entropy words; the pool
    words past them hash zeros, as they do for a one-word seed. Any other
    seed raises ValueError.
    """
    seeds = list(seeds)
    if not all(is_integer(seed) and 0 <= seed <= _MASK64 for seed in seeds):
        raise ValueError("seeds must be integers in [0, 2**64)")
    seeds = np.array(seeds, dtype=np.uint64)

    def hasher(hash_const, mult):
        # hashmix, and generate_state's word hash, each with its own
        # running constant
        def hash_word(value):
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = hash_const * mult & 0xFFFFFFFF
            value *= np.uint32(hash_const)
            return value ^ (value >> 16)
        return hash_word

    def mix(x, y):
        result = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return result ^ (result >> 16)

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    pool = [hashmix(word) for word in ((seeds & 0xFFFFFFFF).astype(np.uint32),
                                       (seeds >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    generate = hasher(0x8B51F9DD, 0x58F38DED)
    state = np.stack([generate(pool[i % 4]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=None)
def _state_words():
    """The seed sequence that seeds a PCG64 with state words hashed in
    advance by :func:`_seed_states`, through numpy's documented seeding
    hook: PCG64 asks for ``generate_state(4, np.uint64)`` and gets the
    words. Made on first use, so that importing the package does not load
    numpy.random."""

    class StateWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def _generators(states) -> list:
    """One generator per row of PCG64 state words."""
    words_seed = _state_words()
    return [np.random.Generator(np.random.PCG64(words_seed(words))) for words in states]


def _float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def cell_key(family: str, theta: float | None, s: int, m: int, eta: float | None) -> int:
    """Stable 64-bit identifier of a cell's coordinates.

    Independent of the cell's position in the sweep, so sub-grids of a
    configuration reproduce the identical trials cell by cell.
    """
    parts = (_float_bits(-1.0 if theta is None else theta), s, m, _float_bits(-1.0 if eta is None else eta))
    return _fold(list(FAMILIES).index(family) + 1, parts)


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
    max_iters: int = MAX_ITERS
    epsilon: float = 0.01


_JSON_TYPES = {"str": str, "int": int, "float": (int, float)}


def _json_type(f):
    """The JSON types a config field accepts, and those of its entries for
    a list, read off its annotation."""
    if f.name == "ensemble":
        return (str, dict), None  # a distribution name, or {"distribution": name}
    if f.type.startswith("tuple"):
        return list, _JSON_TYPES[f.type.removeprefix("tuple[").removesuffix(", ...]")]
    return _JSON_TYPES[f.type], None


def _has_json_type(value, types) -> bool:
    # JSON's true and false parse as bool, a subclass of int
    return isinstance(value, types) and not isinstance(value, bool)


_CONFIG_FIELDS = {f.name: _json_type(f) for f in fields(ExperimentConfig)}
_REQUIRED_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.default is MISSING)


def config_from_dict(doc: dict) -> ExperimentConfig:
    require_fields(doc, _REQUIRED_FIELDS)
    for name in doc:
        if name not in _CONFIG_FIELDS:
            raise SchemaError(name, "unknown field")
    for name, (expected, entries) in _CONFIG_FIELDS.items():
        if name not in doc:
            continue
        if not _has_json_type(doc[name], expected):
            raise SchemaError(name, f"expected {expected}, got {type(doc[name]).__name__}")
        if entries is not None and not all(_has_json_type(v, entries) for v in doc[name]):
            raise SchemaError(name, f"expected a list of {'integers' if entries is int else 'numbers'}")
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
    return config_from_dict(read_json(path))


def save_config(cfg: ExperimentConfig, path) -> None:
    write_json(config_to_dict(cfg), path, indent=2)


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
        raise ConfigError(f"sparsity_grid entries must lie in [1, {cfg.N}]")
    if any(m < 1 for m in cfg.measurement_grid):
        raise ConfigError("measurement grid entries must be positive")
    if cfg.trials_per_cell < 1:
        raise ConfigError("trials_per_cell must be at least 1")
    # NaN fails every comparison: test for what must hold
    if not (math.isfinite(cfg.success_tol) and cfg.success_tol > 0):
        raise ConfigError("success_tol must be positive and finite")
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
            raise ConfigError("theta_grid entries must lie in [0, pi/2]")
    if cfg.experiment == "noise_robustness":
        if not cfg.eta_grid:
            raise ConfigError("noise_robustness needs a nonempty eta_grid")
        if not all(math.isfinite(e) and e >= 0 for e in cfg.eta_grid):
            raise ConfigError("eta_grid entries must be nonnegative and finite")


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Cell:
    """The leading result fields of every sweep row, in column order."""

    experiment: str
    family: str
    theta: float | None
    lambda_: float
    d: int
    k: int
    N: int
    s: int
    m: int


@dataclass(frozen=True)
class CellResult(_Cell):
    eta: float | None
    trials: int
    successes: int
    mean_rel_error: float
    max_rel_error: float
    mean_iterations: float
    solver_failures: int
    base_seed: int


@dataclass(frozen=True)
class FripCell(_Cell):
    trials: int
    mode: str
    delta_q1: float
    delta_median: float
    delta_q3: float
    bound_uniform: float
    base_seed: int


def _column(name: str) -> str:
    """The CSV column of a result field: ``lambda_`` is written as ``lambda``."""
    return name.rstrip("_")


def _row(result) -> dict:
    """Field values keyed by their CSV column."""
    return {_column(f.name): getattr(result, f.name) for f in fields(result)}


# the fixed column contracts, in field order
CSV_COLUMNS = tuple(_column(f.name) for f in fields(CellResult))
FRIP_CSV_COLUMNS = tuple(_column(f.name) for f in fields(FripCell))


def _write_rows(rows, columns, path, format: str) -> None:
    if format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {format!r}")
    dicts = [_row(r) for r in rows]
    if format == "json":
        write_json(dicts, path, indent=2)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in dicts:
            # csv writes None as an empty field and a float by repr
            writer.writerow([row[c] for c in columns])


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
# Cells
# ---------------------------------------------------------------------------

def _measured_lambda(coll: SubspaceCollection) -> float:
    if coll.size < 2:
        return 0.0
    return coherence(coll).lambda_


def _cells(config: ExperimentConfig, grid):
    """The cells of a sweep, for each theta and (s, m) point of ``grid``.

    Yields the cell key, the trial-0 collection (the fixed collection of
    the cell) and the leading result fields, with lambda measured once on
    that collection. The key leaves eta out: every eta row of a noise sweep
    reuses the same instances and noise directions, so it reads as a dose
    response.
    """
    thetas = [float(t) for t in config.theta_grid] if config.family == "angle" else [None]
    for theta, (s, m) in product(thetas, grid):
        key = cell_key(config.family, theta, s, m, None)
        seed = derive_seed(config.base_seed, key, 0, STREAM_COLLECTION)
        coll = FAMILIES[config.family](config.d, config.k, config.N, theta, seed)
        yield key, coll, _Cell(
            config.experiment, config.family, theta, _measured_lambda(coll),
            coll.ambient_dim, coll.block_dim, coll.size, s, m,
        )


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
    grid = product(config.sparsity_grid, config.measurement_grid)
    return _run_recovery(config, grid, (None,), 1.0)


def run_noise_robustness(config: ExperimentConfig) -> list[CellResult]:
    """Mean recovery error against the noise level on one fixed (s, m) cell.

    Measurements use the 1/sqrt(m) normalized convention and carry a
    perturbation of norm exactly eta; recovery runs the ball-constrained
    program at the same eta. The returned rows support a least-squares read
    of the error slope and intercept via :func:`fit_error_vs_eta`.
    """
    _check_experiment(config, "noise_robustness")
    s, m = config.sparsity_grid[0], config.measurement_grid[0]
    etas = [float(eta) for eta in config.eta_grid]
    return _run_recovery(config, [(s, m)], etas, 1.0 / math.sqrt(m))


def _run_recovery(config: ExperimentConfig, grid, etas, scale: float) -> list[CellResult]:
    """One row per cell and eta; eta is None for a phase cell.

    Every trial measures with ``scale * (A (x) I)``, perturbs by norm eta
    and solves the ball program at radius eta; at eta = 0 the noise is a
    copy without a draw and the ball program is the equality program. The
    eta rows of a trial share its B, signal and noise direction, and every
    (cell, eta, trial) instance of the sweep goes to one :func:`solve_many`
    call, which stacks the programs of one shape across cells. The seeds of
    every trial and stream are hashed in one :func:`_seed_states` call, and
    a cell's signals and matrices are drawn into stacks.
    """
    def score(sol, truth):
        rel = float(np.linalg.norm(coeff_vector(sol.estimate) - truth) / np.linalg.norm(truth))
        converged = sol.status == "converged"
        return converged and rel <= config.success_tol, rel, sol.iterations, not converged

    trials = range(config.trials_per_cell)
    streams = (STREAM_SIGNAL, STREAM_ENSEMBLE, STREAM_NOISE)[:3 if any(etas) else 2]
    keyed = list(_cells(config, grid))
    # _splitmix64(prefix ^ stream) is derive_seed(base_seed, key, t, stream)
    seeds = [_splitmix64(_fold(config.base_seed & _MASK64, (key, t)) ^ stream)
             for key, _, _ in keyed for t in trials for stream in streams]
    # (cell, stream, trial, word)
    states = _seed_states(seeds).reshape(len(keyed), len(trials), len(streams), 4).transpose(0, 2, 1, 3)
    cells, ops, ys = [], [], []
    for (_, coll, cell), words in zip(keyed, states):
        signal, ensemble, *noise = map(_generators, words)
        truths = random_sparse_coeffs(coll, cell.s, signal)
        cell_ops = coefficient_operators(
            "vector", sample_ensembles(config.ensemble, cell.m, coll.size, ensemble), scale, coll)
        clean = [b.matrix @ truth for b, truth in zip(cell_ops, truths)]
        if noise:
            directions = sample_ensembles("gaussian", 1, len(clean[0]), *noise)[:, 0]
            ys += [perturb(y, eta, e) if eta else y for eta in etas for y, e in zip(clean, directions)]
        else:
            ys += clean * len(etas)
        ops += cell_ops * len(etas)
        cells.append((cell, truths))
    sols = iter(solve_many(ops, ys, [eta or 0.0 for _ in cells for eta in etas for _ in trials],
                           max_iters=config.max_iters))
    results = []
    for cell, truths in cells:
        for eta in etas:
            ok, rels, iterations, failed = zip(*(score(next(sols), truth) for truth in truths))
            results.append(CellResult(
                **vars(cell),
                eta=eta,
                trials=config.trials_per_cell,
                successes=sum(ok),
                mean_rel_error=float(np.mean(rels)),
                max_rel_error=float(np.max(rels)),
                mean_iterations=float(np.mean(iterations)),
                solver_failures=sum(failed),
                base_seed=config.base_seed,
            ))
    return results


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
    closed-form sufficient measurement count at C = 1 and the ensemble's
    subgaussian parameter alpha for reference.
    """
    _check_experiment(config, "frip_sweep")
    results = []
    for key, coll, cell in _cells(config, product(config.sparsity_grid, config.measurement_grid)):
        s, scale = cell.s, 1.0 / math.sqrt(cell.m)
        exact = enumerable(coll.size, coll.block_dim, s)

        def delta(t: int) -> float:
            a = sample_ensemble(EnsembleSpec(config.ensemble, cell.m, coll.size,
                                             derive_seed(config.base_seed, key, t, STREAM_ENSEMBLE)))
            if exact:
                return exact_frip(a, coll, s, scale).value
            seed = derive_seed(config.base_seed, key, t, STREAM_MC_SUPPORTS)
            return mc_frip(a, coll, s, trials=500, seed=seed, scale=scale).value

        q1, med, q3 = _quartiles([delta(t) for t in range(config.trials_per_cell)])
        results.append(FripCell(
            **vars(cell),
            trials=config.trials_per_cell,
            mode="exact" if exact else "monte_carlo",
            delta_q1=q1,
            delta_median=med,
            delta_q3=q3,
            bound_uniform=bounds_mod.sufficient_uniform_vector(
                s, cell.N, cell.k, cell.lambda_, subgaussian_alpha(config.ensemble), config.epsilon, 1.0
            ),
            base_seed=config.base_seed,
        ))
    return results


def run_bound_table(config: ExperimentConfig) -> list[dict]:
    """Closed-form bound reports over the family points and sparsity grid."""
    _check_experiment(config, "bound_table")
    beta = _ENSEMBLES[config.ensemble].beta
    return [
        bounds_mod.bound_report(
            s=cell.s, N=cell.N, k=cell.k, d=cell.d, lam=cell.lambda_,
            alpha=subgaussian_alpha(config.ensemble), epsilon=config.epsilon, beta=beta,
        ).to_dict()
        for _, _, cell in _cells(config, [(s, 0) for s in config.sparsity_grid])
    ]
