"""Trust-gated hybrid distillation for tabular reinforcement learning.

Transfer proceeds in two stages. A teacher learns a source task whose goal
structure is given by a finite automaton over labeled events; its table is
distilled into (a) a value for each automaton transition it exercised and
(b) an abstract per-automaton-state action policy. A student on a related
target task then fuses its own TD error with those two signals, arbitrated
per state-action pair by a trust gate driven by the student's local TD-error
volatility: noisy estimates defer to the teacher, settled ones do not.

The public names load on first use (PEP 562): `cadent.train_student` imports
`cadent.student` and what it imports, not the experiment harness and its
process pool, which load when `run_experiment` or `ExperimentConfig` is
first read.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule it is read from
_SOURCES = {
    name: module for module, names in {
        "automaton": ("Dfa", "DfaError", "ProductState", "NULL_EVENT",
                      "is_accepting", "make_dfa", "step_automaton"),
        "baselines": ("canonical_variant", "preset_names", "resolve_preset"),
        "envs": ("ENV_NAMES", "EnvSpec", "bundled_dfa", "default_spec",
                 "make_env"),
        "harness": ("ExperimentConfig", "run_experiment"),
        "student": ("GuidanceParams", "StudentConfig", "TrustParams",
                    "train_student", "update_bound"),
        "tabular": ("LearningParams", "softmax_policy"),
        "teacher": ("TeacherKnowledge", "build_knowledge", "load_knowledge",
                    "save_knowledge", "save_qtable", "train_teacher"),
    }.items() for name in names
}

__all__ = sorted(_SOURCES)

_SUBMODULES = ("automaton", "baselines", "cli", "envs", "files", "harness",
               "kernels", "rng", "student", "tabular", "teacher")


def __getattr__(name):
    """Import the submodule behind a public name and keep the value here,
    so later reads find it without this call."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SOURCES[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
