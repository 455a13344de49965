"""Trust-gated hybrid distillation for tabular reinforcement learning.

Transfer proceeds in two stages. A teacher learns a source task whose goal
structure is given by a finite automaton over labeled events; its table is
distilled into (a) a value for each automaton transition it exercised and
(b) an abstract per-automaton-state action policy. A student on a related
target task then fuses its own TD error with those two signals, arbitrated
per state-action pair by a trust gate driven by the student's local TD-error
volatility: noisy estimates defer to the teacher, settled ones do not.
"""

from .automaton import (Dfa, DfaError, ProductState, NULL_EVENT,
                        is_accepting, load_dfa, make_dfa, save_dfa,
                        step_automaton)
from .baselines import canonical_variant, preset_names, resolve_preset
from .envs import (ENV_NAMES, EnvSpec, bundled_dfa, default_spec, make_env)
from .harness import ExperimentConfig, run_experiment
from .student import (GuidanceParams, StudentConfig, TrustParams,
                      fused_update, strategic_reward, tactical_applies,
                      tactical_gradient, train_student, trust_gate,
                      update_bound, volatility_update)
from .tabular import (LearningParams, QTable, epsilon_greedy, greedy_policy,
                      load_qtable, q_update, save_qtable, softmax_policy,
                      td_error)
from .teacher import (TeacherKnowledge, build_knowledge, load_knowledge,
                      save_knowledge, train_teacher)

__version__ = "0.1.0"

__all__ = [
    "Dfa", "DfaError", "ENV_NAMES", "EnvSpec",
    "ExperimentConfig", "GuidanceParams", "LearningParams", "NULL_EVENT",
    "ProductState", "QTable", "StudentConfig", "TeacherKnowledge",
    "TrustParams",
    "build_knowledge", "bundled_dfa", "canonical_variant",
    "default_spec", "epsilon_greedy", "fused_update", "greedy_policy",
    "is_accepting", "load_dfa", "load_knowledge", "load_qtable", "make_dfa",
    "make_env", "preset_names", "q_update", "resolve_preset",
    "run_experiment", "save_dfa", "save_knowledge", "save_qtable",
    "softmax_policy", "step_automaton", "strategic_reward",
    "tactical_applies", "tactical_gradient", "td_error", "train_student",
    "train_teacher", "trust_gate", "update_bound", "volatility_update",
]
