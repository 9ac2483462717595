"""Command-line harness.

Exit codes: 0 on success, 2 on configuration or usage errors, 3 on I/O
errors. All experiment output is a pure function of the configuration, so
reruns reproduce files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import experiments as exp
from .errors import FusionCSError
from .frames import coherence, load_collection, save_collection
from .measurement import (
    DISTRIBUTIONS,
    OPERATOR_KINDS,
    EnsembleSpec,
    compose_with_bases,
    load_matrix,
    sample_ensemble,
    save_matrix,
    scalar_operator,
    vector_operator,
)
from .rip import classical_rip, exact_frip, mc_frip, scalar_rip_on_H
from .signals import AMPLITUDE_LAWS, coeff_vector, load_signal, random_sparse_signal, save_signal
from .solver import MAX_ITERS, diagnostics, solve_equality, solve_noisy


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_frames_gen(args) -> int:
    coll = exp.FAMILIES[args.family](args.d, args.k, args.N, args.theta, args.seed)
    save_collection(coll, args.out)
    return 0


def _cmd_frames_coherence(args) -> int:
    coll = load_collection(args.collection)
    rep = coherence(coll)
    _emit(
        {
            "lambda": rep.lambda_,
            "argmax_pair": list(rep.argmax_pair),
            "min_principal_angle": rep.min_principal_angle,
        },
        args.out,
    )
    return 0


def _cmd_signal_gen(args) -> int:
    coll = load_collection(args.collection)
    x = random_sparse_signal(coll, args.s, args.seed, args.law)
    save_signal(x, args.out)
    return 0


def _cmd_measure_sample(args) -> int:
    mat = sample_ensemble(EnsembleSpec(args.distribution, args.rows, args.cols, args.seed))
    save_matrix(mat, args.out)
    return 0


def _scale(args, mat) -> float:
    """--scale, or 1/sqrt(rows) under --normalized."""
    return 1.0 / math.sqrt(mat.shape[0]) if args.normalized else args.scale


def _build_operator(args, coll):
    mat = load_matrix(args.matrix)
    scale = _scale(args, mat)
    if args.kind == "vector":
        return vector_operator(mat, coll.ambient_dim, scale=scale)
    return scalar_operator(mat, scale=scale)


def _cmd_measure_apply(args) -> int:
    coll = load_collection(args.collection)
    x = load_signal(args.signal, coll)
    op = _build_operator(args, coll)
    b = compose_with_bases(op, coll)
    y = b.matvec(coeff_vector(x))
    save_matrix(y.reshape(-1, 1), args.out)
    return 0


def _cmd_recover(args) -> int:
    coll = load_collection(args.collection)
    op = _build_operator(args, coll)
    b = compose_with_bases(op, coll)
    y = load_matrix(args.y).ravel()
    if args.mode == "eq":
        sol = solve_equality(b, y, max_iters=args.max_iters)
    else:
        sol = solve_noisy(b, y, args.eta, max_iters=args.max_iters)
    if args.out:
        save_signal(sol.estimate, args.out)
    _emit(diagnostics(sol), None)
    return 0


def _cmd_rip(args) -> int:
    coll = load_collection(args.collection) if args.collection else None
    mat = load_matrix(args.matrix)
    scale = _scale(args, mat)
    if args.variant == "exact":
        est = exact_frip(mat, coll, args.s, scale)
    elif args.variant == "mc":
        est = mc_frip(mat, coll, args.s, args.trials, args.seed, scale)
    elif args.variant == "scalar":
        est = scalar_rip_on_H(scale * mat, coll, args.s)
    else:
        est = classical_rip(mat, args.s, scale)
    _emit(est.to_dict(), args.out)
    return 0


def _cmd_bounds_eval(args) -> int:
    report = bounds_mod.bound_report(
        s=args.s,
        N=args.N,
        k=args.k,
        d=args.d,
        lam=getattr(args, "lambda"),
        alpha=args.alpha,
        delta=args.delta,
        epsilon=args.epsilon,
        beta=args.beta,
        C=args.C,
    )
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_experiment(args) -> int:
    cfg = exp.load_config(args.config)
    out = args.out or cfg.output_path
    if not out:
        raise exp.ConfigError("no output path: set --out or output_path in the config")
    # looked up when the command runs, so that a wrapped runner is the one called
    rows = getattr(exp, args.run)(cfg)
    getattr(exp, args.write)(rows, out, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fusioncs")
    matrix_opts = argparse.ArgumentParser(add_help=False)
    matrix_opts.add_argument("--matrix", required=True)
    scaling = matrix_opts.add_mutually_exclusive_group()
    scaling.add_argument("--scale", type=float, default=1.0)
    scaling.add_argument("--normalized", action="store_true", help="scale by 1/sqrt(rows)")
    operator_opts = argparse.ArgumentParser(add_help=False, parents=[matrix_opts])
    operator_opts.add_argument("--kind", choices=OPERATOR_KINDS, default="vector")
    operator_opts.add_argument("--collection", required=True)
    top = parser.add_subparsers(dest="command", required=True)

    frames = top.add_parser("frames", help="subspace collections").add_subparsers(
        dest="sub", required=True
    )
    gen = frames.add_parser("gen", help="generate a collection")
    gen.add_argument("--family", choices=exp.FAMILIES, required=True)
    gen.add_argument("--d", type=int, default=0)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--N", type=int, required=True)
    gen.add_argument("--theta", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=_cmd_frames_gen)
    coh = frames.add_parser("coherence", help="coherence report of a collection")
    coh.add_argument("--collection", required=True)
    coh.add_argument("--out", default="")
    coh.set_defaults(fn=_cmd_frames_coherence)

    signal = top.add_parser("signal", help="block signals").add_subparsers(
        dest="sub", required=True
    )
    sgen = signal.add_parser("gen", help="generate a sparse signal")
    sgen.add_argument("--collection", required=True)
    sgen.add_argument("--s", type=int, required=True)
    sgen.add_argument("--seed", type=int, default=0)
    sgen.add_argument("--law", choices=AMPLITUDE_LAWS, default="unit_norm_blocks")
    sgen.add_argument("--out", required=True)
    sgen.set_defaults(fn=_cmd_signal_gen)

    measure = top.add_parser("measure", help="measurement ensembles").add_subparsers(
        dest="sub", required=True
    )
    msample = measure.add_parser("sample", help="sample a random matrix")
    msample.add_argument("--distribution", choices=DISTRIBUTIONS, default="gaussian")
    msample.add_argument("--rows", type=int, required=True)
    msample.add_argument("--cols", type=int, required=True)
    msample.add_argument("--seed", type=int, default=0)
    msample.add_argument("--out", required=True)
    msample.set_defaults(fn=_cmd_measure_sample)
    mapply = measure.add_parser("apply", parents=[operator_opts], help="measure a signal")
    mapply.add_argument("--signal", required=True)
    mapply.add_argument("--out", required=True)
    mapply.set_defaults(fn=_cmd_measure_apply)

    recover = top.add_parser("recover", help="block-norm recovery").add_subparsers(
        dest="mode", required=True
    )
    for mode in ("eq", "noisy"):
        r = recover.add_parser(mode, parents=[operator_opts])
        r.add_argument("--y", required=True)
        r.add_argument("--max-iters", dest="max_iters", type=int, default=MAX_ITERS)
        r.add_argument("--out", default="")
        if mode == "noisy":
            r.add_argument("--eta", type=float, required=True)
        r.set_defaults(fn=_cmd_recover)

    rip = top.add_parser("rip", help="restricted isometry constants").add_subparsers(
        dest="variant", required=True
    )
    for variant in ("exact", "mc", "scalar", "classical"):
        r = rip.add_parser(variant, parents=[matrix_opts])
        r.add_argument("--collection", default="", required=variant != "classical")
        r.add_argument("--s", type=int, required=True)
        r.add_argument("--out", default="")
        if variant == "mc":
            r.add_argument("--trials", type=int, required=True)
            r.add_argument("--seed", type=int, default=0)
        r.set_defaults(fn=_cmd_rip)

    bounds = top.add_parser("bounds", help="closed-form bounds").add_subparsers(
        dest="sub", required=True
    )
    beval = bounds.add_parser("eval")
    beval.add_argument("--s", type=int, required=True)
    beval.add_argument("--N", type=int, required=True)
    beval.add_argument("--k", type=int, required=True)
    beval.add_argument("--d", type=int, required=True)
    beval.add_argument("--lambda", type=float, default=0.0)
    beval.add_argument("--alpha", type=float, default=1.0)
    beval.add_argument("--delta", type=float, default=math.sqrt(2.0) - 1.0)
    beval.add_argument("--epsilon", type=float, default=0.01)
    beval.add_argument("--beta", type=int, default=1)
    beval.add_argument("--C", type=float, default=1.0)
    beval.add_argument("--out", default="")
    beval.set_defaults(fn=_cmd_bounds_eval)

    experiment = top.add_parser("experiment", help="seeded sweeps").add_subparsers(
        dest="kind", required=True
    )
    for kind, run, write in (
        ("phase", "run_phase_transition", "write_results"),
        ("noise", "run_noise_robustness", "write_results"),
        ("frip", "run_frip_sweep", "write_frip_results"),
    ):
        e = experiment.add_parser(kind)
        e.add_argument("--config", required=True)
        e.add_argument("--out", default="")
        e.add_argument("--format", choices=("csv", "json"), default="csv")
        e.set_defaults(fn=_cmd_experiment, run=run, write=write)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FusionCSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
