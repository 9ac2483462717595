"""The three benchmark workloads: inputs made from the seed, the timed public
calls, and the checks on their outputs.

A workload is built once per process; its inputs exist before any timing.
``sweep()`` times only the library's public call or calls and returns the
elapsed seconds with an :class:`Outcome`, whose ``text`` holds every output
byte, for the invariance comparisons.

How the seed enters. Solver iteration counts per instance are heavy-tailed
(the noisy sweep took 24-43 s over base seeds 99-104, the phase sweep
15-29 s over 2024-2028, on the same 2-core machine), and criterion 9's
shape check holds on base seed 99 but not on every other. So the two
recovery workloads keep the instance seeds of the acceptance sweeps and the
seed permutes the order of their grids, which leaves every cell's trials
and cost unchanged (cells are keyed by coordinates, not position).
``support_enum`` costs the same on every instance of its shapes, so there
the seed moves the instances themselves.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from itertools import combinations
from types import SimpleNamespace

import numpy as np

from fusioncs import cli, experiments, solver
from fusioncs.experiments import ExperimentConfig
from fusioncs.frames import orthogonal_collection, random_collection
from fusioncs.measurement import EnsembleSpec, compose_with_bases, sample_ensemble, vector_operator
from fusioncs.signals import coeff_vector, random_sparse_signal

FRIP_TOL = 1e-12


@dataclass
class Outcome:
    rows: str  # the CSV the library wrote
    attempted: int  # solves, or exact_frip and oracle calls
    failed: int  # solves that did not converge, or oracle calls without an estimate
    successes: int = 0  # trials that recovered the planted signal
    trials: int = 0
    iterations: float = 0.0  # total solver iterations, from the CSV
    estimates: list = field(default_factory=list, repr=False)  # oracle estimates

    @property
    def text(self) -> str:
        return self.rows + "".join(
            "none\n" if est is None else " ".join(map(repr, coeff_vector(est).tolist())) + "\n"
            for est in self.estimates)


def _shuffled(values, rng) -> list:
    return [values[i] for i in rng.permutation(len(values))]


def _recovery_outcome(text: str) -> Outcome:
    rows = list(csv.DictReader(io.StringIO(text)))
    trials = sum(int(r["trials"]) for r in rows)
    return Outcome(
        rows=text,
        attempted=trials,
        failed=sum(int(r["solver_failures"]) for r in rows),
        successes=sum(int(r["successes"]) for r in rows),
        trials=trials,
        iterations=sum(float(r["mean_iterations"]) * int(r["trials"]) for r in rows),
    )


class PhaseMixed:
    """``fusioncs experiment phase`` on random d=4, k=2, N=8 subspaces."""

    name = "phase_mixed"
    sizes = {"full": ((1, 2, 3), (1, 2, 3, 4, 5, 6), 10), "tiny": ((1, 2), (2, 4), 2)}

    def __init__(self, seed: int, size: str, out_dir):
        s_grid, m_grid, trials = self.sizes[size]
        rng = np.random.default_rng(seed)
        base = {"experiment": "phase_transition", "family": "random", "d": 4, "k": 2, "N": 8,
                "base_seed": 2024}
        self.config = out_dir / "phase_mixed.config.json"
        self.csv = out_dir / "phase_mixed.csv"
        self.warm_config = out_dir / "phase_mixed.warmup.json"
        self.warm_csv = out_dir / "phase_mixed.warmup.csv"
        self.config.write_text(json.dumps(dict(
            base, sparsity_grid=_shuffled(s_grid, rng), measurement_grid=_shuffled(m_grid, rng),
            trials_per_cell=trials)))
        self.warm_config.write_text(json.dumps(dict(
            base, N=4, sparsity_grid=[1], measurement_grid=[4], trials_per_cell=1)))

    def _cli(self, config, out) -> None:
        rc = cli.main(["experiment", "phase", "--config", str(config), "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"fusioncs experiment phase exited with {rc}")

    def warm_up(self) -> None:
        self._cli(self.warm_config, self.warm_csv)

    def sweep(self):
        t0 = time.perf_counter()
        self._cli(self.config, self.csv)
        elapsed = time.perf_counter() - t0
        return elapsed, _recovery_outcome(self.csv.read_text())

    def check(self, outcome: Outcome) -> list[str]:
        # from m = 4 on, md >= Nk: the 16 unknowns are determined by the data
        return [
            f"phase cell s={r['s']} m={r['m']}: {r['successes']}/{r['trials']} successes"
            for r in csv.DictReader(io.StringIO(outcome.rows))
            if int(r["m"]) >= 4 and r["successes"] != r["trials"]
        ]

    def probe_operator(self):
        coll = random_collection(4, 2, 8, seed=2024)
        a = sample_ensemble(EnsembleSpec("gaussian", 6, 8, seed=2024))
        return compose_with_bases(vector_operator(a, 4), coll), 3

    def operators(self) -> list:
        return []


class NoisyBall:
    """``run_noise_robustness`` on criterion 9's instance, trials 0-3."""

    name = "noisy_ball"
    sizes = {"full": ((1e-4, 1e-3, 1e-2, 1e-1), 4), "tiny": ((1e-3, 1e-2), 1)}

    def __init__(self, seed: int, size: str, out_dir):
        etas, trials = self.sizes[size]
        rng = np.random.default_rng(seed)
        self.config = ExperimentConfig(
            experiment="noise_robustness", family="orthogonal", d=12, k=2, N=6,
            sparsity_grid=(2,), measurement_grid=(4,), eta_grid=tuple(_shuffled(etas, rng)),
            trials_per_cell=trials, base_seed=99, max_iters=20000,
        )
        self.warm_config = ExperimentConfig(
            experiment="noise_robustness", family="orthogonal", d=4, k=2, N=2,
            sparsity_grid=(1,), measurement_grid=(2,), eta_grid=(1e-2,),
            trials_per_cell=1, base_seed=99,
        )
        self.csv = out_dir / "noisy_ball.csv"

    def warm_up(self) -> None:
        experiments.run_noise_robustness(self.warm_config)

    def sweep(self):
        t0 = time.perf_counter()
        rows = experiments.run_noise_robustness(self.config)
        elapsed = time.perf_counter() - t0
        experiments.write_results(rows, self.csv)
        return elapsed, _recovery_outcome(self.csv.read_text())

    def check(self, outcome: Outcome) -> list[str]:
        # criterion 9's shape: error non-decreasing in eta up to the
        # allowance, and a line through the origin
        rows = sorted(
            (SimpleNamespace(eta=float(r["eta"]), mean_rel_error=float(r["mean_rel_error"]))
             for r in csv.DictReader(io.StringIO(outcome.rows))),
            key=lambda r: r.eta,
        )
        errs = [r.mean_rel_error for r in rows]
        inversions = sum(1 for a, b in zip(errs, errs[1:]) if b < a)
        allowed = math.floor(0.05 * (len(errs) - 1))
        _, intercept = experiments.fit_error_vs_eta(rows)
        errors = []
        if inversions > allowed:
            errors.append(f"noisy error has {inversions} inversions in eta (allowed {allowed})")
        if abs(intercept) > 1e-5:
            errors.append(f"noisy error intercept {intercept:.2e} exceeds 1e-5")
        return errors

    def probe_operator(self):
        coll = orthogonal_collection(12, 2, 6)
        a = sample_ensemble(EnsembleSpec("gaussian", 4, 6, seed=99))
        return compose_with_bases(vector_operator(a, 12, scale=0.5), coll), 2

    def operators(self) -> list:
        return []


class SupportEnum:
    """Exhaustive ``exact_frip`` sweep plus exhaustive oracle recoveries."""

    name = "support_enum"
    # (frip N, sparsity grid, measurement grid, trials, oracle (N, s) pairs, instances per pair)
    sizes = {
        "full": (16, (2, 4), (4, 8), 2, [(n, s) for n in (12, 13, 14) for s in (2, 3)], 4),
        "tiny": (8, (2,), (4,), 2, [(8, 2)], 2),
    }

    def __init__(self, seed: int, size: str, out_dir):
        n, s_grid, m_grid, trials, pairs, per_pair = self.sizes[size]
        self.config = ExperimentConfig(
            experiment="frip_sweep", family="random", d=4, k=2, N=n,
            sparsity_grid=s_grid, measurement_grid=m_grid, trials_per_cell=trials,
            base_seed=5 + seed,
        )
        self.warm_config = ExperimentConfig(
            experiment="frip_sweep", family="random", d=4, k=2, N=4,
            sparsity_grid=(1,), measurement_grid=(2,), trials_per_cell=1, base_seed=5,
        )
        # criterion-2-style instances: m = 4 gives md = 16 rows for at most
        # sk = 6 columns, so the planted support is the unique fit
        self.instances = []
        for i, (n_blocks, s) in enumerate(p for p in pairs for _ in range(per_pair)):
            seeds = [int(v) for v in np.random.SeedSequence([seed & (2**64 - 1), i]).generate_state(3)]
            coll = random_collection(4, 2, n_blocks, seed=seeds[0])
            x = random_sparse_signal(coll, s, seed=seeds[1])
            a = sample_ensemble(EnsembleSpec("gaussian", 4, n_blocks, seed=seeds[2]))
            b = compose_with_bases(vector_operator(a, 4), coll)
            self.instances.append((b, b.matvec(coeff_vector(x)), s))
        self.csv = out_dir / "support_enum.csv"

    def warm_up(self) -> None:
        experiments.run_frip_sweep(self.warm_config)
        b, y, s = self.instances[0]
        solver.oracle_recover_exhaustive(b, y, 1)

    def sweep(self):
        t0 = time.perf_counter()
        rows = experiments.run_frip_sweep(self.config)
        estimates = [solver.oracle_recover_exhaustive(b, y, s)[0] for b, y, s in self.instances]
        elapsed = time.perf_counter() - t0
        experiments.write_frip_results(rows, self.csv)
        return elapsed, Outcome(
            rows=self.csv.read_text(),
            attempted=len(rows) * self.config.trials_per_cell + len(estimates),
            failed=sum(1 for est in estimates if est is None),
            estimates=estimates,
        )

    def check(self, outcome: Outcome) -> list[str]:
        errors = []
        cfg = self.config
        for r in csv.DictReader(io.StringIO(outcome.rows)):
            s, m = int(r["s"]), int(r["m"])
            key = experiments.cell_key(cfg.family, None, s, m, None)
            coll = random_collection(
                cfg.d, cfg.k, cfg.N,
                experiments.derive_seed(cfg.base_seed, key, 0, experiments.STREAM_COLLECTION),
            )
            deltas = []
            for t in range(cfg.trials_per_cell):
                seed = experiments.derive_seed(cfg.base_seed, key, t, experiments.STREAM_ENSEMBLE)
                a = sample_ensemble(EnsembleSpec(cfg.ensemble, m, cfg.N, seed))
                deltas.append(dense_frip(a, coll, s, 1.0 / math.sqrt(m)))
            expected = np.percentile(deltas, [25.0, 50.0, 75.0])
            got = [float(r[c]) for c in ("delta_q1", "delta_median", "delta_q3")]
            if r["mode"] != "exact" or np.max(np.abs(expected - got)) > FRIP_TOL:
                errors.append(f"frip cell s={s} m={m}: {got} vs dense Kronecker {expected.tolist()}")
        for (b, y, s), est in zip(self.instances, outcome.estimates):
            errors += oracle_errors(b, y, s, est)
        return errors

    def probe_operator(self):
        b, _, s = max(self.instances, key=lambda inst: (inst[0].collection.size, inst[2]))
        return b, s

    def operators(self) -> list:
        return [b for b, _, _ in self.instances]


def dense_frip(a: np.ndarray, coll, s: int, scale: float) -> float:
    """Isometry constant over every s-support, from the dense matrix
    scale * (A (x) I_d) diag(U_1, ..., U_N) and one batched SVD."""
    d, k, n = coll.ambient_dim, coll.block_dim, coll.size
    u = np.zeros((n * d, n * k))
    for j, basis in enumerate(coll.bases):
        u[j * d:(j + 1) * d, j * k:(j + 1) * k] = basis
    full = scale * np.kron(a, np.eye(d)) @ u
    supports = np.array(list(combinations(range(n), s)))
    cols = (supports[:, :, None] * k + np.arange(k)).reshape(len(supports), -1)
    sv = np.linalg.svd(full[:, cols].transpose(1, 0, 2), compute_uv=False)
    smin2 = sv[:, -1] ** 2 if full.shape[0] >= cols.shape[1] else 0.0
    return float(np.max(np.maximum(sv[:, 0] ** 2 - 1.0, 1.0 - smin2)))


def oracle_errors(b, y, s: int, est) -> list[str]:
    if est is None:
        return [f"oracle found no estimate (s={s})"]
    c = coeff_vector(est)
    resid = float(np.linalg.norm(b.matvec(c) - y))
    tol = 1e-8 * (1.0 + float(np.linalg.norm(y)))
    nonzero = sum(1 for block in est.coeffs if np.any(block != 0.0))
    errors = []
    if resid > tol:
        errors.append(f"oracle residual {resid:.2e} above its accept tolerance {tol:.2e}")
    if nonzero > s:
        errors.append(f"oracle estimate has {nonzero} nonzero blocks for s={s}")
    return errors


WORKLOADS = {w.name: w for w in (PhaseMixed, NoisyBall, SupportEnum)}
