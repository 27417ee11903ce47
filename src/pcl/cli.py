"""Command-line harness.

Exit codes: 0 on success, 1 when an experiment suite records a failing check,
2 on usage or input errors.  ``PCL_SEED`` supplies the default seed of the
commands and modes that read ``--seed``.

``main`` resolves that seed and loads the ``--input`` class before it calls a
command's handler.  A handler returns the JSON object to print, or to write
to ``--out``; one that writes its own output returns its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import asdict

from . import core, dimensions, disambiguation, experiments, geometry, learners, online
from . import serialize
from .serialize import FormatError


def cmd_dim(args) -> dict:
    cls = args.cls
    report = dimensions.measure_report(cls, args.measure, witness=args.witness)
    out = {
        "measure": report.measure,
        "value": report.value,
        "domain_size": cls.domain_size,
        "class_size": len(cls),
    }
    if args.witness:
        if report.measure == "vc":
            out["witness"] = list(report.witness or ())
        elif report.measure == "td" and report.witness:
            pts, hs = report.witness
            out["witness"] = {"points": list(pts), "concepts": [str(h) for h in hs]}
        elif report.measure == "ld":
            out["witness"] = asdict(report.witness) if report.witness else None
        out["witness_verified"] = report.verify(cls)
    if args.names:
        out["names"] = args.names
    return out


def _load_sample(path, cls):
    sample = serialize.sample_from_list(serialize.load_json(path))
    for x, _ in sample:
        if x >= cls.domain_size:
            raise FormatError(
                f"sample: point {x} is outside the domain of size {cls.domain_size}"
            )
    return sample


def _read_mode_flags(args) -> None:
    """Fail naming each flag given that ``args.mode`` does not read, and default
    those it reads; an unread ``--seed`` stays unset, so PCL_SEED is not read."""
    reads = args.mode_flags[args.mode]
    flags = {f for t in args.mode_flags.values() for f in t}
    given = [f"--{f}" for f in vars(args) if f in flags and f not in reads]
    if given:
        raise FormatError(f"--mode {args.mode} does not read {', '.join(given)}")
    for flag, default in reads.items():
        vars(args).setdefault(flag, default)


def cmd_learn(args) -> dict:
    cls = args.cls
    sample = _load_sample(args.sample, cls)
    if args.mode == "realizable":
        # pac_learn_realizable rejects a sample shorter than the schedule's m
        hyp = learners.pac_learn_realizable(cls, sample, args.eps, args.delta)
        schedule = learners.pac_schedule(cls.vc, args.eps, args.delta)
        out = {
            "schedule": {
                "batches": schedule.batches,
                "batch_size": schedule.batch_size,
                "validation": schedule.validation_size,
                "m": schedule.total,
            },
            "empirical_error": str(hyp.sample_error(sample)),
        }
    elif args.mode == "agnostic":
        hyp, rep = learners.agnostic_learn(cls, sample, args.delta, args.seed)
        out = {
            "empirical_error": str(rep.hypothesis_error),
            "class_error": str(rep.class_error),
            "kept": rep.kept,
            "bound": rep.bound,
        }
    elif args.mode == "compress":
        hyp, comp = learners.alpha_boost_compress(cls, sample, args.seed)
        out = {"compression": serialize.compression_to_dict(comp), "size": comp.size}
    else:  # ld-compress
        comp = learners.ld_compress(cls, sample)
        hyp = learners.reconstruct(cls, comp)
        out = {
            "compression": serialize.compression_to_dict(comp),
            "size": comp.size,
            "ld": dimensions.littlestone_dimension(cls),
        }
    return {"mode": args.mode, "hypothesis": serialize.hypothesis_to_dict(hyp), **out}


def cmd_online(args) -> dict:
    cls = args.cls
    if args.mode == "agnostic" and args.trials < 1:
        raise FormatError(f"--trials must be at least 1, got {args.trials}")
    if args.mode == "soa":
        if args.sample is None:
            raise FormatError("soa mode needs --sample with the round sequence")
        seq = _load_sample(args.sample, cls)
        transcript = online.play_sequence(cls, online.Soa(cls), seq.pairs)
        out = {
            "mistakes": transcript.mistakes,
            "regret": transcript.regret,
            "ld": dimensions.littlestone_dimension(cls),
            "rounds": [
                {"x": r.x, "prediction": r.prediction, "y": r.y, "mistake": r.mistake}
                for r in transcript.rounds
            ],
        }
    elif args.mode == "agnostic":
        learner = online.AgnosticOnlineLearner(cls, args.T)
        stats = []
        for t in range(args.trials):
            trial_rng = experiments.split_rng(args.seed, "cli-online", t)
            seq = [
                (trial_rng.randrange(cls.domain_size), trial_rng.randint(0, 1))
                for _ in range(args.T)
            ]
            stats.append(learner.run(seq).expected_regret)
        out = {
            "T": args.T,
            "experts": learner.n_experts,
            "regret_bound": learner.regret_bound(),
            "mean_expected_regret": sum(stats) / len(stats),
            "max_expected_regret": max(stats),
        }
    else:  # one tree adversary's exact law; the mistake game is its T = d case
        mistake_game = args.mode == "adversary-mistake"
        T = args.d if mistake_game else args.T
        adv = online.tree_adversary(cls, args.d, T)
        out = {
            "d": args.d,
            "T": T,
            "expected_mistakes": T / 2,
            # a float: str() of the exact 2^L denominator fails past 4300 digits
            "expected_regret": float(adv.expected_regret()),
            "lower_bound": args.d / 2 if mistake_game else 0.25 * (args.d * T) ** 0.5,
        }
    return {"mode": args.mode, **out}


DISAMBIGUATIONS = {
    "majority": disambiguation.vc_majority_disambiguate,
    "weighted": disambiguation.weighted_disambiguate,
    "compression": disambiguation.compression_to_disambiguation,
    "support": disambiguation.support_indicator_disambiguation,
}


def cmd_disambiguate(args) -> dict:
    cls = args.cls
    res = DISAMBIGUATIONS[args.algo](cls)
    out = serialize.disambiguation_to_dict(res)
    strong = None
    if res.extension_of is not None:
        strong = disambiguation.strong_violation(cls, res.totals) is None
    out["strong_verified"] = strong
    # totals extending every concept realize every pattern the concepts realize
    out["weak_verified_len3"] = strong or (
        disambiguation.weak_violation(cls, res.totals, disambiguation.VERIFY_LEN) is None
    )
    return out


def construct_biclique(args) -> dict:
    if args.complete is not None:
        disambiguation.check_vertex_count(args.complete, "--complete")
        inst = disambiguation.star_partition_instance(args.complete)
    elif args.graph is not None:
        inst = serialize.biclique_from_dict(serialize.load_json(args.graph))
    else:
        raise FormatError("construct biclique needs --graph or --complete")
    cls = disambiguation.biclique_class(inst)
    return {
        "instance": serialize.biclique_to_dict(inst),
        "class": serialize.class_to_dict(cls),
        "vc": cls.vc,
        "td": dimensions.threshold_dimension(cls),
    }


def construct_margin(args) -> dict:
    pts = geometry.orthonormal_points(args.radius, args.gamma)
    certs = geometry.certify_orthonormal_labelings(args.radius, args.gamma)
    return {
        "points": [[float(v) for v in p] for p in pts],
        "radius": args.radius,
        "gamma": args.gamma,
        "labelings": len(certs),
        "all_separable": all(certs),
    }


def construct_general_margin(args) -> dict:
    grid = geometry.unit_grid(args.grid, "--grid")
    packing = geometry.greedy_packing(grid, args.gamma)
    return {
        "points": [[float(v) for v in p] for p in grid],
        "gamma": args.gamma,
        "packing": {
            "chosen": list(packing.chosen),
            "min_pairwise": packing.min_pairwise,
            "cells": list(packing.cells),
        },
    }


def construct_gamma_boost(args) -> dict:
    for flag, value in (("--base", args.base), ("--sample", args.sample)):
        if value is None:
            raise FormatError(f"construct gamma-boost needs {flag}")
    base, _ = serialize.class_from_dict(serialize.load_json(args.base))
    base = core.total_class(base.domain_size, base.concepts)
    sample = _load_sample(args.sample, base)
    game = geometry.weak_learning_game(base, sample)
    gamma = 1 - 2 * game.value
    out = {"game_value": str(game.value), "max_gamma": str(gamma)}
    if gamma > 0:
        hyp, rep = geometry.boosting_disambiguate_sample(base, sample, gamma)
        out["hypothesis"] = serialize.hypothesis_to_dict(hyp)
        out["rounds"] = rep.rounds
        out["dual_dimension"] = dimensions.dual_vc_dimension(base)
    return out


def construct_erm_failure(args) -> dict:
    res = geometry.erm_failure_simulate(args.n, args.m, args.trials, args.seed)
    return {
        "n": args.n,
        "m": args.m,
        "trials": args.trials,
        "proper_mean_error": str(res.proper_mean_error),
        "improper_mean_error": str(res.improper_mean_error),
    }


def cmd_experiment(args) -> int:
    params = {}
    for item in args.param or []:
        key, _, value = item.partition("=")
        if not value:
            raise FormatError(f"--param needs key=value, got {item!r}")
        try:
            params[key.replace("-", "_")] = json.loads(value)
        except json.JSONDecodeError:
            params[key.replace("-", "_")] = value
    cfg = experiments.ExperimentConfig(args.name, args.seed, args.trials, params)
    report = experiments.run_experiment(cfg)
    payload = report.to_dict()
    if args.out:
        serialize.dump_json(payload, args.out + ".json")
        with open(args.out + ".csv", "w") as fh:
            fh.write(report.to_csv())
        print(f"wrote {args.out}.json and {args.out}.csv", file=sys.stderr)
    else:
        print(serialize.dump_json(payload, None))
    for check in payload["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"[{status}] {args.name}: {check['name']}", file=sys.stderr)
    return 0 if payload["summary"]["failed"] == 0 else 1


def cmd_scaling(args) -> int:
    header, rows = experiments.emit_scaling_table(args.name, args.grid, args.seed)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return 0


def _command(sub, name: str, func, help: str, *, input=False, seed=False, out=None, **kw):
    """A subcommand that runs ``func``, with ``--out`` (described by ``out``)
    and, where asked, ``--input`` and ``--seed``; ``kw`` goes to its parser."""
    p = sub.add_parser(name, help=help, **kw)
    if input:
        p.add_argument("--input", required=True)
    if seed:
        p.add_argument("--seed", type=int)
    p.add_argument("--out", help=out, default=None)  # None under any argument_default
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcl",
        description="Partial concept classes: dimensions, learners, disambiguation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "dim", cmd_dim, "compute a complexity measure of a class", input=True)
    p.add_argument("--measure", required=True, choices=dimensions.MEASURES)
    p.add_argument("--witness", action="store_true")

    # each --mode of learn and online reads only the flags of its row, which
    # hold their defaults; a flag not given is left unset until then
    modes = {
        "realizable": {"eps": 0.2, "delta": 0.1},
        "agnostic": {"delta": 0.1, "seed": None},
        "compress": {"seed": None},
        "ld-compress": {},
    }
    p = _command(
        sub, "learn", cmd_learn, "run a batch learner on a sample", input=True, seed=True,
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--sample", required=True)
    p.add_argument("--mode", required=True, choices=list(modes))
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.set_defaults(mode_flags=modes)

    modes = {
        "soa": {"sample": None},
        "agnostic": {"T": 10, "trials": 100, "seed": None},
        "adversary-mistake": {"d": 1},
        "adversary-regret": {"d": 1, "T": 10},
    }
    p = _command(
        sub, "online", cmd_online, "online games, learners and adversaries",
        input=True, seed=True, argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--mode", required=True, choices=list(modes))
    p.add_argument("--sample")
    p.add_argument("--T", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--trials", type=int)
    p.set_defaults(mode_flags=modes)

    p = _command(
        sub, "disambiguate", cmd_disambiguate, "build a total class from a partial one",
        input=True,
    )
    p.add_argument("--algo", required=True, choices=list(DISAMBIGUATIONS))

    construct = sub.add_parser("construct", help="build the example instances")
    kinds = construct.add_subparsers(dest="kind", required=True)
    p = _command(kinds, "biclique", construct_biclique, "the class of a biclique partition")
    p.add_argument("--graph")
    p.add_argument("--complete", type=int)
    p = _command(kinds, "margin", construct_margin, "the orthonormal margin family")
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p = _command(
        kinds, "general-margin", construct_general_margin, "a grid packing in the plane"
    )
    p.add_argument("--grid", type=int, default=5)
    p.add_argument("--gamma", type=float, default=1.0)
    p = _command(
        kinds, "gamma-boost", construct_gamma_boost, "boost a base class on a sample"
    )
    p.add_argument("--base")
    p.add_argument("--sample")
    p = _command(
        kinds, "erm-failure", construct_erm_failure, "the proper-learner failure",
        seed=True,
    )
    for key, default in experiments.SUITES["erm-failure"].defaults.items():
        p.add_argument(f"--{key}", type=int, default=default)

    p = _command(
        sub, "experiment", cmd_experiment, "run a named bound-checking suite", seed=True,
        out="output path prefix for the .json/.csv report",
    )
    p.add_argument("name", choices=sorted(experiments.SUITES))
    p.add_argument("--trials", type=int)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")

    p = _command(
        sub, "scaling", cmd_scaling, "emit a measured-vs-envelope CSV table", seed=True
    )
    p.add_argument("name", choices=sorted(experiments.SCALING_TABLES))
    p.add_argument("--grid", type=int, nargs="*")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every command takes --out; a missing directory fails before any work.
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise FormatError(f"--out {args.out}: directory does not exist")
        if "mode_flags" in args:
            _read_mode_flags(args)
        if "seed" in args and args.seed is None:
            env = os.environ.get("PCL_SEED", "0")
            try:
                args.seed = int(env)
            except ValueError:
                raise FormatError(f"PCL_SEED must be an integer, got {env!r}") from None
        if "input" in args:
            args.cls, args.names = serialize.class_from_dict(
                serialize.load_json(args.input)
            )
        out = args.func(args)
        if isinstance(out, int):
            return out
        text = serialize.dump_json(out, args.out)
        if args.out is None:
            print(text)
        else:
            print(f"wrote {args.out}", file=sys.stderr)
        return 0
    except (FormatError, core.ContractViolation, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
