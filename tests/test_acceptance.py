"""Acceptance suite: one test per shipped guarantee, at desk scale.

Each test prints a single `[acceptance] criterion N: PASS/FAIL` line. The
phase-transition test additionally archives its measured thresholds under
``results/`` at the repository root.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from fusioncs import solver
from fusioncs.bounds import C1_NECESSARY, C3_NECESSARY, lambda_lower_bound
from fusioncs.experiments import (
    ExperimentConfig,
    fit_error_vs_eta,
    run_noise_robustness,
    run_phase_transition,
    write_results,
)
from fusioncs.frames import (
    angle_family,
    coherence,
    orthogonal_collection,
    packing_diameter,
    random_collection,
)
from fusioncs.measurement import (
    EnsembleSpec,
    compose_with_bases,
    sample_ensemble,
    vector_operator,
)
from fusioncs.rip import classical_rip, exact_frip, mc_frip, scalar_rip_on_H
from fusioncs.signals import coeff_vector, norm_21, random_sparse_signal
from fusioncs.solver import (
    certify,
    closed_form_orthogonal,
    oracle_recover_exhaustive,
    solve_equality,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"


def report(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


def relative_error(estimate, truth):
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


def test_criterion_1_orthogonal_closed_form_decoder():
    coll = orthogonal_collection(12, 2, 6)
    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        a = rng.standard_normal((1, 6))
        x = random_sparse_signal(coll, 6, seed=seed, amplitude_law="gaussian_blocks")
        b = compose_with_bases(vector_operator(a, 12), coll)
        truth = coeff_vector(x)
        y = b.matvec(truth)
        sol = solve_equality(b, y)
        reference = coeff_vector(closed_form_orthogonal(y, a[0], coll))
        worst = max(worst, relative_error(coeff_vector(sol.estimate), reference))
        if sol.status != "converged":
            report(1, "closed-form decoder", False, f"seed {seed} not converged")
    elapsed = time.monotonic() - start
    report(
        1,
        "closed-form decoder",
        worst <= 1e-8 and elapsed < 5.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_solver_vs_oracle():
    """Equality solver against the exhaustive oracle on 200 small instances.

    The l2,1 program promises its own minimizer, not the sparsest solution:
    the uniform guarantee needs a fusion RIP bound that none of these
    instances meets. So every solve must pass ``certify`` and reach an
    objective no worse than the oracle's feasible point. An estimate that
    differs from the oracle's is explained only by a strictly lower
    objective on an instance where B has a null space; an injective B has
    a single feasible point, so there any disagreement is a solver defect.
    The objective is recomputed from the estimate, the point ``certify``
    checks, rather than taken from the solver's report.
    """
    start = time.monotonic()
    defects = []
    explained = []
    unique_count = 0
    worst = 0.0
    for i in range(200):
        s = 1 + (i % 2)
        m = 3 + (i % 6)
        coll = random_collection(4, 2, 8, seed=20_000 + i)
        x = random_sparse_signal(coll, s, seed=21_000 + i)
        a = sample_ensemble(EnsembleSpec("gaussian", m, 8, seed=22_000 + i))
        b = compose_with_bases(vector_operator(a, 4), coll)
        truth = coeff_vector(x)
        y = b.matvec(truth)
        oracle, unique = oracle_recover_exhaustive(b, y, s)
        if not unique:
            continue
        unique_count += 1
        sol = solve_equality(b, y)
        err = relative_error(coeff_vector(sol.estimate), coeff_vector(oracle))
        worst = max(worst, err)
        slack = 10.0 * solver.TOL_GAP
        deficit = norm_21(oracle) - norm_21(sol.estimate)
        case = f"({i}, {s}, {m}, {err:.2e}, {deficit:.2e})"
        if sol.status != "converged" or not certify(sol, b, y).ok or deficit < -slack:
            defects.append(case)
        elif err > 1e-6:
            rank = np.linalg.matrix_rank(b.support_matrix(range(coll.size)))
            if deficit > slack and rank < b.in_dim:
                explained.append(case)
            else:
                defects.append(case)
    elapsed = time.monotonic() - start
    report(
        2,
        "solver vs oracle",
        not defects and unique_count > 100 and elapsed < 120.0,
        f"{unique_count}/200 unique, worst {worst:.2e}, {elapsed:.0f}s, "
        f"explained (i, s, m, err, deficit) [{', '.join(explained)}], "
        f"defects [{', '.join(defects)}]",
    )


def _random_rip_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    d = int(rng.integers(2, 5))
    k = int(rng.integers(1, d + 1))
    m = int(rng.integers(1, 5))
    s = int(rng.integers(1, min(n, 3) + 1))
    coll = random_collection(d, k, n, seed=seed)
    a = sample_ensemble(EnsembleSpec("gaussian", m, n, seed=seed + 1))
    return coll, a, s, m


def test_criterion_3_frip_identity_and_inequality():
    worst_gap = 0.0
    violations = 0
    for seed in range(100):
        coll, a, s, m = _random_rip_instance(30_000 + seed)
        scale = 1.0 / math.sqrt(m)
        fusion = exact_frip(a, coll, s, scale=scale)
        phi = scale * np.kron(a, np.eye(coll.ambient_dim))
        scalar = scalar_rip_on_H(phi, coll, s)
        worst_gap = max(worst_gap, abs(fusion.value - scalar.value))
        classical = classical_rip(a, s, scale=scale)
        if fusion.value > classical.value + 1e-12:
            violations += 1
    report(
        3,
        "isometry identity and ordering",
        worst_gap <= 1e-12 and violations == 0,
        f"max identity gap {worst_gap:.1e}, {violations} ordering violations",
    )


def test_criterion_4_monte_carlo_soundness():
    violations = 0
    for seed in range(100):
        coll, a, s, m = _random_rip_instance(40_000 + seed)
        scale = 1.0 / math.sqrt(m)
        exact = exact_frip(a, coll, s, scale=scale)
        mc = mc_frip(a, coll, s, trials=20, seed=seed, scale=scale)
        if mc.value > exact.value + 1e-12:
            violations += 1
    # exhaustively covered sampling must agree exactly
    coll = random_collection(4, 2, 5, seed=41_000)
    a = sample_ensemble(EnsembleSpec("gaussian", 3, 5, seed=41_001))
    exact = exact_frip(a, coll, 2)
    covered = mc_frip(a, coll, 2, trials=500, seed=7)
    single = abs(mc_frip(a, coll, 5, trials=1, seed=8).value - exact_frip(a, coll, 5).value)
    equality_gap = max(abs(covered.value - exact.value), single)
    report(
        4,
        "sampled lower bound",
        violations == 0 and equality_gap <= 1e-12,
        f"{violations} violations, covered-sampling gap {equality_gap:.1e}",
    )


def test_criterion_5_packing_bounds():
    rng = np.random.default_rng(50_000)
    floor_violations = 0
    diameter_violations = 0
    count = 0
    while count < 500:
        d = int(rng.integers(2, 10))
        k = int(rng.integers(1, d + 1))
        n = int(rng.integers(2, 9))
        if k * n <= d:
            continue
        count += 1
        coll = random_collection(d, k, n, seed=51_000 + count)
        lam = coherence(coll).lambda_
        if lam < lambda_lower_bound(d, k, n) - 1e-9:
            floor_violations += 1
        if packing_diameter(coll) ** 2 > (d - k) / d * n / (n - 1) + 1e-9:
            diameter_violations += 1
    report(
        5,
        "coherence floor and packing diameter",
        floor_violations == 0 and diameter_violations == 0,
        f"{floor_violations} floor / {diameter_violations} diameter violations in 500",
    )


def test_criterion_6_constants_and_angle_coherence():
    constants_ok = round(C1_NECESSARY, 2) == 0.46 and round(C3_NECESSARY, 2) == 0.18
    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 2, 20):
        coll = angle_family(2, 4, float(theta))
        worst = max(worst, abs(coherence(coll).lambda_ - math.sin(theta) ** 2))
    report(
        6,
        "constant recovery",
        constants_ok and worst <= 1e-10,
        f"c1={C1_NECESSARY:.4f}, c3={C3_NECESSARY:.4f}, angle grid err {worst:.1e}",
    )


def _m_star(rows, theta, trials):
    eligible = sorted(
        (r.m for r in rows if r.theta == theta and r.successes >= 0.95 * trials)
    )
    return eligible[0] if eligible else None


def test_criterion_7_lambda_monotone_phase_transition():
    start = time.monotonic()
    trials = 50
    cfg = ExperimentConfig(
        experiment="phase_transition",
        family="angle",
        d=22,
        k=2,
        N=10,
        theta_grid=(0.0, 1.2),
        sparsity_grid=(2,),
        measurement_grid=(1, 2, 3, 4, 5, 6),
        trials_per_cell=trials,
        base_seed=2024,
    )
    rows = run_phase_transition(cfg)
    elapsed = time.monotonic() - start

    m_flat = _m_star(rows, 0.0, trials)
    m_coherent = _m_star(rows, 1.2, trials)

    RESULTS_DIR.mkdir(exist_ok=True)
    write_results(rows, RESULTS_DIR / "phase_transition.csv")
    (RESULTS_DIR / "phase_transition_thresholds.json").write_text(
        json.dumps(
            {
                "description": "smallest m with >=95% exact recovery over 50 trials",
                "k": 2,
                "N": 10,
                "s": 2,
                "m_star_theta_0.0": m_flat,
                "m_star_theta_1.2": m_coherent,
            },
            indent=2,
        )
        + "\n"
    )

    # success rate may take at most one visible step down along the m grid
    max_steps = 0
    for theta in (0.0, 1.2):
        rates = [r.successes / r.trials for r in rows if r.theta == theta]
        drops = sum(
            1 for a, b in zip(rates, rates[1:]) if a - b > 2.0 / math.sqrt(trials)
        )
        max_steps = max(max_steps, drops)

    ok = (
        m_flat is not None
        and m_coherent is not None
        and m_flat <= m_coherent
        and max_steps <= 1
        and elapsed < 600.0
    )
    report(
        7,
        "coherence-monotone phase transition",
        ok,
        f"m*(theta=0)={m_flat}, m*(theta=1.2)={m_coherent}, {elapsed:.0f}s",
    )


def test_criterion_8_rip_implies_recovery():
    certified = 0
    failures = 0
    cases = []
    for seed in range(3):
        coll = orthogonal_collection(6, 1, 6)
        a = sample_ensemble(EnsembleSpec("gaussian", 60, 6, seed=80_000 + seed))
        cases.append((coll, a, 60, 2))
    for seed in range(3):
        coll = angle_family(2, 6, 0.3)
        a = sample_ensemble(EnsembleSpec("gaussian", 150, 6, seed=81_000 + seed))
        cases.append((coll, a, 150, 2))
    for coll, a, m, s in cases:
        theta_2s = exact_frip(a, coll, 2 * s, scale=1.0 / math.sqrt(m))
        if theta_2s.value >= math.sqrt(2.0) - 1.0:
            continue
        certified += 1
        b = compose_with_bases(vector_operator(a, coll.ambient_dim, 1.0 / math.sqrt(m)), coll)
        for t in range(50):
            x = random_sparse_signal(coll, s, seed=82_000 + 100 * certified + t)
            truth = coeff_vector(x)
            sol = solve_equality(b, b.matvec(truth))
            if sol.status != "converged" or relative_error(coeff_vector(sol.estimate), truth) > 1e-6:
                failures += 1
    report(
        8,
        "certified isometry implies recovery",
        certified >= 4 and failures == 0,
        f"{certified} certified instances, {failures} recovery failures",
    )


def test_criterion_9_noise_stability():
    cfg = ExperimentConfig(
        experiment="noise_robustness",
        family="orthogonal",
        d=12,
        k=2,
        N=6,
        sparsity_grid=(2,),
        measurement_grid=(4,),
        eta_grid=(0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1),
        trials_per_cell=20,
        base_seed=99,
        max_iters=20000,
    )
    rows = run_noise_robustness(cfg)
    errs = [r.mean_rel_error for r in rows]
    inversions = sum(1 for a, b in zip(errs, errs[1:]) if b < a)
    allowed = math.floor(0.05 * (len(errs) - 1))
    _, intercept = fit_error_vs_eta(rows)
    ok = inversions <= allowed and abs(intercept) <= 1e-5
    report(
        9,
        "noise stability",
        ok,
        f"{inversions} inversions (allowed {allowed}), intercept {intercept:.1e}",
    )


def test_criterion_10_deterministic_reruns(tmp_path):
    configs = [
        ExperimentConfig(
            experiment="phase_transition",
            family="random",
            d=6,
            k=2,
            N=5,
            sparsity_grid=(1, 2),
            measurement_grid=(2, 3),
            trials_per_cell=5,
            base_seed=7,
        ),
        ExperimentConfig(
            experiment="noise_robustness",
            family="orthogonal",
            d=8,
            k=2,
            N=4,
            sparsity_grid=(1,),
            measurement_grid=(3,),
            eta_grid=(0.0, 1e-3, 1e-2),
            trials_per_cell=4,
            base_seed=8,
        ),
    ]
    identical = True
    for idx, cfg in enumerate(configs):
        runner = run_phase_transition if cfg.experiment == "phase_transition" else run_noise_robustness
        p1 = tmp_path / f"run_{idx}_a.csv"
        p2 = tmp_path / f"run_{idx}_b.csv"
        write_results(runner(cfg), p1)
        write_results(runner(cfg), p2)
        identical = identical and p1.read_bytes() == p2.read_bytes()
    report(10, "byte-identical reruns", identical)
