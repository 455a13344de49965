"""Building and loading the training loop's library, and the buffers
`run_training` hands it.

The first import of `cadent.kernels` compiles `_kernel.c` into a cache
directory and later imports load that file. Each build check starts a
fresh interpreter with its own cache, so nothing here touches the cache
the rest of the suite uses.
"""

import os
import stat
import subprocess
import sys
import sysconfig
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cadent
from cadent.kernels import run_training

from oracles import toy_knowledge, toy_product, toy_run

SRC = str(Path(cadent.__file__).resolve().parent.parent)
CC = (sysconfig.get_config_var("CC") or "cc").split()[0]


def _import_kernels(cache, **env):
    """A fresh interpreter importing cadent.kernels with XDG_CACHE_HOME at
    `cache`; it prints whether the import loaded subprocess or hashlib."""
    code = (f"import sys\nsys.path.insert(0, {SRC!r})\n"
            "import cadent.kernels\n"
            "print(sorted({'subprocess', 'hashlib'} & set(sys.modules)))")
    return subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "XDG_CACHE_HOME": str(cache),
                               **env},
                          capture_output=True, text=True)


def _libraries(directory):
    return sorted(p.name for p in directory.iterdir())


def test_first_import_builds_one_library_and_the_next_reuses_it(tmp_path):
    cold = _import_kernels(tmp_path)
    assert cold.returncode == 0, cold.stderr
    (name,) = _libraries(tmp_path / "cadent")
    assert name.startswith("_kernel-") and name.endswith(".so")
    lib = tmp_path / "cadent" / name
    before = lib.stat()
    warm = _import_kernels(tmp_path)
    assert warm.returncode == 0, warm.stderr
    after = lib.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)
    assert _libraries(tmp_path / "cadent") == [name]
    # the warm path neither compiles nor hashes
    assert warm.stdout.strip() == "[]"


def test_import_without_a_compiler_names_it(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    out = _import_kernels(tmp_path / "cache", PATH=str(empty))
    assert out.returncode != 0
    assert "ImportError" in out.stderr and CC in out.stderr, out.stderr
    assert "install a C compiler" in out.stderr


def test_stray_temporary_files_are_never_loaded(tmp_path):
    assert _import_kernels(tmp_path).returncode == 0
    cache = tmp_path / "cadent"
    (name,) = _libraries(cache)
    (cache / name).unlink()
    # what a build killed before its rename would leave: never the library
    strays = [f"{name}.tmp", f"{name}.99999999.tmp",
              f"{name}.{os.getpid()}.tmp"]
    for stray in strays:
        (cache / stray).write_bytes(b"not a shared library")
    out = _import_kernels(tmp_path)
    assert out.returncode == 0, out.stderr
    assert _libraries(cache) == sorted([name, *strays])


def test_unwritable_cache_falls_back_to_a_private_temporary_directory(
        tmp_path):
    blocked = tmp_path / "not-a-directory"
    blocked.write_text("")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    out = _import_kernels(blocked, TMPDIR=str(tmp))
    assert out.returncode == 0, out.stderr
    private = tmp / f"cadent-{os.getuid()}"
    assert stat.S_IMODE(private.stat().st_mode) == 0o700
    assert len(_libraries(private)) == 1


def test_a_temporary_directory_others_may_write_is_refused(tmp_path):
    blocked = tmp_path / "not-a-directory"
    blocked.write_text("")
    tmp = tmp_path / "tmp"
    private = tmp / f"cadent-{os.getuid()}"
    private.mkdir(parents=True)
    private.chmod(0o777)
    out = _import_kernels(blocked, TMPDIR=str(tmp))
    assert out.returncode != 0
    assert "refusing" in out.stderr, out.stderr
    assert _libraries(private) == []


# ---------------------------------------------------------------------------
# the buffers run_training hands the loop

_BUMP = toy_product([[0, 1], [1, 1]], [[0.0, 1.0], [0.0, 0.0]],
                    terminal=[1])


@pytest.mark.parametrize("slot, bad", [
    (0, lambda a: a.astype(np.float32)),          # q_ad
    (1, lambda a: a.astype(np.int8)),             # q_ad_known
    (2, lambda a: np.zeros((1, 4))[:, ::2]),      # pi, strided
    (3, lambda a: np.zeros(2, dtype=np.bool_)),   # pi_known, wrong size
])
def test_run_training_refuses_a_buffer_of_another_layout(slot, bad):
    knowledge = list(toy_knowledge(1, 2, pi={0: [0.5, 0.5]}))
    toy_run(_BUMP, tuple(knowledge), lam_pd=1.0)
    knowledge[slot] = bad(knowledge[slot])
    with pytest.raises(TypeError, match="C-contiguous"):
        toy_run(_BUMP, tuple(knowledge), lam_pd=1.0)


def test_run_training_refuses_tables_of_another_type():
    tables, cdfa = toy_product([[0, 1], [1, 1]], [[0.0, 1.0], [0.0, 0.0]],
                               terminal=[1])
    cdfa.accepting = cdfa.accepting.astype(np.int64)
    learn = SimpleNamespace(alpha=1.0, gamma=0.0, epsilon_start=0.0,
                            epsilon_end=0.0, epsilon_decay=1.0)
    with pytest.raises(TypeError, match="bool"):
        run_training(tables, cdfa, None, learn, episodes=1, max_steps=1,
                     seed=1)
