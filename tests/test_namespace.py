"""The package namespace loads each public name on first use.

`import cadent` loads no submodule; a public name imports the submodule
that defines it, so a caller that trains one student never loads the
experiment harness or the process-pool stack. The checks run in fresh
interpreters, where nothing has been imported yet.
"""

import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cadent

SRC = Path(cadent.__file__).resolve().parent.parent
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(cadent.__path__))
POOL = ("cadent.harness", "concurrent.futures.process", "multiprocessing")


def _fresh(code):
    """What `code`, run after `import cadent` in a new interpreter, prints
    as JSON on its last line."""
    script = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" \
             f"import json\nimport cadent\n{code}"
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_import_cadent_loads_no_harness_or_process_pool():
    loaded = _fresh(
        "loaded = lambda: sorted(m for m in sys.modules\n"
        f"                         if m in {POOL!r})\n"
        "after_import = loaded()\n"
        "from cadent.student import train_student\n"
        "after_student = loaded()\n"
        "cadent.train_teacher\n"
        "after_teacher = loaded()\n"
        "cadent.run_experiment\n"
        "print(json.dumps([after_import, after_student, after_teacher,\n"
        "                  loaded()]))\n")
    assert loaded == [[], [], [], sorted(POOL)]


def test_every_public_name_and_submodule_resolves_in_a_fresh_process():
    resolved = _fresh(
        "import importlib\n"
        "names = {n: getattr(cadent, n).__class__.__name__\n"
        "         for n in cadent.__all__}\n"
        f"subs = {{m: getattr(cadent, m) is importlib.import_module(\n"
        f"            'cadent.' + m) for m in {SUBMODULES!r}}}\n"
        "print(json.dumps([names, subs, sorted(dir(cadent))]))\n")
    names, subs, listed = resolved
    assert sorted(names) == sorted(cadent.__all__)
    assert subs == {m: True for m in SUBMODULES}
    assert "__all__" in listed and set(cadent.__all__) <= set(listed)


def test_every_submodule_imports_first():
    # `import cadent` no longer imports the submodules in a fixed order, so
    # each must import first; `cadent.tabular` once failed on the cycle
    # tabular -> kernels -> envs -> envs.base -> tabular
    modules = sorted(m.name for m in pkgutil.walk_packages(
        cadent.__path__, "cadent."))
    failed = _fresh(
        "import importlib\n"
        "failed = {}\n"
        f"for name in {modules!r}:\n"
        "    for m in [m for m in sys.modules if m.startswith('cadent')]:\n"
        "        del sys.modules[m]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except ImportError as exc:\n"
        "        failed[name] = str(exc)\n"
        "print(json.dumps(failed))\n")
    assert "cadent.envs.tables" in modules and "cadent.cli" in modules
    assert failed == {}


def test_the_public_names_are_these():
    # a new public name is a deliberate change to this list
    assert cadent.__all__ == [
        "Dfa", "DfaError", "ENV_NAMES", "EnvSpec", "ExperimentConfig",
        "GuidanceParams", "LearningParams", "NULL_EVENT", "ProductState",
        "StudentConfig", "TeacherKnowledge", "TrustParams",
        "build_knowledge", "bundled_dfa", "canonical_variant",
        "default_spec", "is_accepting", "load_knowledge", "make_dfa",
        "make_env", "preset_names", "resolve_preset", "run_experiment",
        "save_knowledge", "save_qtable", "softmax_policy", "step_automaton",
        "train_student", "train_teacher", "update_bound"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'cadent' has no attribute "
                                             "'no_such_name'"):
        cadent.no_such_name
    assert not hasattr(cadent, "no_such_name")
    assert "__all__" in dir(cadent)
