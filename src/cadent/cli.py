"""Command-line front end.

Subcommands cover the full workflow: train and distill a teacher, train a
single student (any variant), run a full experiment grid, and inspect
environments. The CADENT_OUT environment variable overrides the default
output directory for `experiment`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .baselines import canonical_variant, preset_names, resolve_preset
from .envs import (ALIASES, DEFAULT_EPISODES, ENV_NAMES, EnvSpec,
                   canonical_name, make_env)
from .harness import ExperimentConfig, run_experiment, write_run_csv
from .student import (VARIANT_ALIASES, GuidanceParams, StudentConfig,
                      TrustParams, train_student, uses_teacher)
from .tabular import LearningParams
from .teacher import (AGGREGATION_MODES, build_knowledge, load_knowledge,
                      save_knowledge, save_qtable, train_teacher)


def _add_env_args(p, variant_default):
    p.add_argument("--env", required=True,
                   help=f"environment: {', '.join(ENV_NAMES)} "
                        f"(aliases: {', '.join(sorted(ALIASES))})")
    p.add_argument("--env-variant", default=variant_default,
                   choices=("source", "target"),
                   help="which side of the transfer pair")
    p.add_argument("--layout-seed", type=int, default=12)
    p.add_argument("--max-steps", type=int, default=0,
                   help="per-episode step budget (0 = environment default)")


# StudentConfig's sections, whose fields are the hyperparameter flags: each
# is named after its field (k is --gate-k) and defaults to the field's
# default, so the CLI and the Python API start from the same configuration
_HYPER_SECTIONS = {"learn": LearningParams, "trust": TrustParams,
                   "guide": GuidanceParams}


def _add_hyper_args(p, *sections):
    g = p.add_argument_group("hyperparameters")
    for params in sections:
        for f in fields(params):
            flag = "gate-k" if f.name == "k" else f.name.replace("_", "-")
            g.add_argument("--" + flag, dest=f.name, type=float,
                           default=f.default)


def _params(params, args):
    return params(**{f.name: getattr(args, f.name) for f in fields(params)})


def _student_config(args):
    return StudentConfig(omega0=args.omega0, **{
        section: _params(params, args)
        for section, params in _HYPER_SECTIONS.items()})


def _env_from_args(args):
    spec = EnvSpec(name=canonical_name(args.env), variant=args.env_variant,
                   layout_seed=args.layout_seed, max_steps=args.max_steps)
    return make_env(spec)


def cmd_train_teacher(args):
    env = _env_from_args(args)
    run = train_teacher(env, params=_params(LearningParams, args),
                        episodes=args.episodes, seed=args.seed)
    knowledge = build_knowledge(run, env, tau=args.tau,
                                aggregation=args.aggregation)
    save_knowledge(knowledge, args.out)
    if args.qtable_out:
        save_qtable(run, env, args.qtable_out)
    print(f"teacher on {env.name}/{env.spec.variant}: "
          f"{knowledge.provenance['n_successes']}/{args.episodes} successful "
          f"episodes, final-{min(100, args.episodes)} mean reward "
          f"{run.ep_reward[-100:].mean():.3f}")
    print(f"knowledge written to {args.out}")
    return 0


def cmd_train_student(args):
    env = _env_from_args(args)
    variant = canonical_variant(args.variant)
    config = resolve_preset(variant, _student_config(args))
    knowledge = None
    if uses_teacher(variant):
        if not args.knowledge:
            print(f"error: variant {variant!r} needs --knowledge",
                  file=sys.stderr)
            return 2
        knowledge = load_knowledge(args.knowledge)
    elif args.knowledge:
        print(f"error: {variant} does not take --knowledge",
              file=sys.stderr)
        return 2
    episodes = args.episodes or DEFAULT_EPISODES[env.name]
    run = train_student(env, knowledge, config, episodes=episodes,
                        seed=args.seed)
    if args.out:
        write_run_csv(args.out, variant, env.name, args.seed, run)
        print(f"episode log written to {args.out}")
    if args.qtable_out:
        save_qtable(run, env, args.qtable_out)
    print(f"{variant} on {env.name}/{env.spec.variant}: "
          f"final-{min(100, episodes)} mean reward "
          f"{float(run.ep_reward[-100:].mean()):.3f}, "
          f"accept rate {float(run.ep_accept[-100:].mean()):.2f}")
    print(f"diagnostics: novel_transitions={run.novel_transitions} "
          f"max|update|={run.max_abs_update:.3f} (bound {run.bound:.3f}) "
          f"soft_violations={run.n_soft_violations}")
    return 0


def _parse_episodes(text):
    out = {}
    for clause in text.split(","):
        name, eq, count = clause.partition("=")
        if not (eq and count.strip().isdecimal()):
            raise ValueError(f"bad --episodes clause {clause!r}; "
                             f"use env=count")
        if name in out:
            raise ValueError(f"--episodes names {name!r} twice")
        out[name] = int(count)
    return out


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, "
                                         f"not {text}")
    return value


def cmd_experiment(args):
    if args.write_default_config:
        ExperimentConfig().save(args.write_default_config)
        print(f"default config written to {args.write_default_config}")
        return 0
    if args.config:
        config = ExperimentConfig.load(args.config)
    else:
        config = ExperimentConfig()
    # raw names: ExperimentConfig canonicalizes them and rejects repeats
    overrides = {}
    if args.envs:
        overrides["environments"] = tuple(args.envs.split(","))
    if args.variants:
        overrides["variants"] = tuple(args.variants.split(","))
    if args.seeds:
        seeds = args.seeds.split(",")
        for item in seeds:
            if not item.strip().isdecimal():
                raise ValueError(f"bad --seeds item {item!r}; use "
                                 f"non-negative integers")
        overrides["seeds"] = tuple(int(s) for s in seeds)
    if args.episodes:
        overrides["episodes"] = _parse_episodes(args.episodes)
    if overrides:
        config = config.with_(**overrides)
    out_dir = args.out or os.environ.get("CADENT_OUT", "results")
    summary = run_experiment(config, out_dir, parallel=args.parallel,
                             progress=(print if args.verbose else None))
    print(f"experiment written to {out_dir}")
    for env_name, variants in sorted(summary["results"].items()):
        thr = summary["thresholds"][env_name]
        print(f"{env_name} (threshold {thr:.3f}):")
        for v, row in sorted(variants.items()):
            print(f"  {v:14s} steps_to_threshold="
                  f"{row['steps_to_threshold_mean']:10.1f} "
                  f"final={row['final_reward_mean']:7.3f}"
                  f"+-{row['final_reward_stderr']:.3f}"
                  + (f" censored={row['censored_runs']}"
                     if row["censored_runs"] else ""))
    return 0


def cmd_layout(args):
    env = _env_from_args(args)
    print(f"{env.name} ({env.spec.variant}, layout_seed="
          f"{env.spec.layout_seed})")
    print(env.layout_text())
    return 0


def cmd_info(args):
    print(json.dumps({
        "environments": list(ENV_NAMES),
        "env_aliases": dict(ALIASES),
        "variants": list(preset_names()),
        "variant_aliases": dict(VARIANT_ALIASES),
        "default_episodes": dict(DEFAULT_EPISODES),
    }, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cadent",
        description="Trust-gated hybrid distillation transfer for tabular "
                    "reinforcement learning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-teacher",
                       help="train on a source task and distill knowledge")
    _add_env_args(p, "source")
    _add_hyper_args(p, LearningParams)   # a teacher has no gate or guidance
    p.add_argument("--episodes", type=int, default=5000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--aggregation", default="visitation_weighted",
                   choices=AGGREGATION_MODES)
    p.add_argument("--out", required=True, help="knowledge file to write")
    p.add_argument("--qtable-out", help="also save the raw teacher table")
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("train-student",
                       help="train one student variant on a target task")
    _add_env_args(p, "target")
    _add_hyper_args(p, *_HYPER_SECTIONS.values())
    p.add_argument("--variant", default="cadent",
                   help=f"one of {', '.join(preset_names())} "
                        f"(aliases: {', '.join(sorted(VARIANT_ALIASES))})")
    p.add_argument("--knowledge", help="distilled knowledge file")
    p.add_argument("--omega0", type=float, default=0.5,
                   help="fixed gate weight for the fixed_trust variant")
    p.add_argument("--episodes", type=int, default=0,
                   help="0 = per-environment default")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="per-episode CSV to write")
    p.add_argument("--qtable-out", help="save the learned table")
    p.set_defaults(func=cmd_train_student)

    p = sub.add_parser("experiment", help="run a full evaluation grid")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--out", help="output directory (default: $CADENT_OUT "
                                 "or ./results)")
    p.add_argument("--envs", help="comma-separated environment subset")
    p.add_argument("--variants", help="comma-separated variant subset")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--episodes",
                   help="per-env episode overrides, e.g. dungeon=500")
    p.add_argument("--parallel", type=_positive_int,
                   help="processes running the student cells (default: "
                        "every CPU this process may use; 1 runs them all "
                        "in this process)")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--write-default-config",
                   help="write the default config JSON and exit")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("layout", help="print an environment's layout")
    _add_env_args(p, "target")
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("info", help="environment and variant registry")
    p.set_defaults(func=cmd_info)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`cadent info | head -1`): end quietly.
        # The interpreter flushes stdout at exit, so point it at devnull
        # (the recipe in the docs of Python's `signal` module)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
