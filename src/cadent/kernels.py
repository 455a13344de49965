"""The training kernel.

The episode loop is one C function, `train` in `_kernel.c`, behind one
Python function, `run_training`. `run_training` checks its inputs,
allocates the numpy outputs and hands the loop flat pointers to them and
to the env, automaton and knowledge tables, with no copy; the loop fills
them and returns. The update rule is written once, in that loop: the
epsilon-greedy choice, the TD error, the trust gate, the edge value r_AD,
the pull g_PD and when it applies, the fused update and the volatility
trace. `argmax`, `softmax_prob` (the pull, which the loop computes the
same way at temperature 1) and `sum_in_order` are the only Python
helpers: distillation, `greedy_rollout` and the harness share them.

The first import compiles `_kernel.c` with the C compiler Python was built
with (`sysconfig`'s CC) and keeps the shared library in
`$XDG_CACHE_HOME/cadent` (default `~/.cache/cadent`), or, where that
cannot be written, in `cadent-<uid>` under the temporary directory. The
file name holds a checksum of the source, the flags, the compiler and the
machine, so a changed source builds anew and later imports only load it.
Without a compiler the import fails. The flags keep the compiler from
fusing a multiply and an add, which would round once where the loop's
statements round twice, so the same inputs give the same bits on every
build. A run holds the thread until it returns: Ctrl-C lands after that.

The kernel walks product rows, not (env state, automaton state) pairs.
`envs.tables.product_tables` builds, once per env, the rows reachable from
the start pair, with each row's successor, reward, stop and dead flags and
automaton state `q_of`, so a step neither looks the automaton up nor
computes an index. Row p stands for the pair whose old index `s * n_q + q`
is `rows[p]`; rows ascend in it. A table over (row, action) is indexed
`p * n_actions + a`. Kernel outputs are (n_rows, action) arrays of Q,
volatility and visit counts, returned with `rows`. They are the only form
a learned Q takes: distillation, the greedy rollout and `--qtable-out`
read them through `rows`.

A step's cost does not grow with the row width. The loop keeps each
product row's greedy action in an int32 array: `greedy[p] ==
argmax(q[p])` at all times, ties going to the lowest action as `argmax`
breaks them. Q starts at zero, so every entry starts at 0. A step writes
one entry, q[p * A + a]. If a is the greedy action and its value fell,
the row is rescanned; otherwise a becomes greedy when its new value is
above the greedy one's, or equal to it with a lower index. The action
choice, the bootstrap and the softmax pull read the array. The four
xorshift128 words (`rng.xs128_word`) start from `rng.state_from(seed,
stream)` and are returned as the run's `rng_words`.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import stat
import sysconfig
import tempfile
import zlib

import numpy as np

from .envs.tables import product_tables
from .rng import state_from

# a run records the global step indices of its first SOFT_CAP updates above
# the bound, and counts the rest
SOFT_CAP = 1024

# read by perfbench/run.py (machine_info and backend_parity)
BACKEND = "c"
NUMBA_ENABLED = False

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_kernel.c")
# -ffp-contract=off: no fused multiply-add, whatever the CPU
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_LDLIBS = ("-lm",)


def _cache_dir():
    """The directory the library is kept in: $XDG_CACHE_HOME/cadent (or
    ~/.cache/cadent) when it can be written, else cadent-<uid> under the
    temporary directory, which must be a directory of this user's that no
    one else may write."""
    base = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    path = os.path.join(base, "cadent")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError:
        pass
    else:
        if os.access(path, os.W_OK | os.X_OK):
            return path
    uid = os.getuid()
    path = os.path.join(tempfile.gettempdir(), f"cadent-{uid}")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.lstat(path)
    except OSError as exc:
        raise ImportError(f"no directory to keep the training loop's "
                          f"library in: {exc}") from exc
    if (not stat.S_ISDIR(st.st_mode) or st.st_uid != uid
            or st.st_mode & 0o022):
        raise ImportError(
            f"refusing {path} as the training loop's library cache: it is "
            f"not a directory of uid {uid} that only its owner may write")
    return path


def _build(cc, path):
    """Compile _kernel.c into `path`, through a temporary file that
    `os.replace` moves into place, so no process loads half a library."""
    import shlex
    import subprocess
    tmp = f"{path}.{os.getpid()}.tmp"
    cmd = [*shlex.split(cc), *_CFLAGS, _SOURCE, "-o", tmp, *_LDLIBS]
    try:
        try:
            done = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise ImportError(
                f"cadent.kernels compiles its training loop with the C "
                f"compiler {cc!r}, which could not be run ({exc}); install "
                f"a C compiler (gcc, e.g. `apt-get install gcc`)") from None
        if done.returncode != 0:
            raise ImportError(f"{' '.join(cmd)} failed:\n{done.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    """The loop's library, built on the first import that finds none for
    this source, these flags, this compiler and this machine."""
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    cc = sysconfig.get_config_var("CC") or "cc"
    key = zlib.crc32("\0".join((*_CFLAGS, *_LDLIBS, cc, platform.machine()))
                     .encode(), zlib.crc32(source))
    path = os.path.join(_cache_dir(), f"_kernel-{key:08x}.so")
    if not os.path.exists(path):
        _build(cc, path)
    return ctypes.CDLL(path)


_train = _load().train
_train.restype = ctypes.c_int
# as _kernel.c declares them: the 17 table and output buffers, soft_cap,
# greedy, rng, tallies and max_abs, 5 sizes, 12 rates and weights, 2 flags
_train.argtypes = (
    [ctypes.c_void_p] * 17 + [ctypes.c_int64] + [ctypes.c_void_p] * 4
    + [ctypes.c_int64] * 5 + [ctypes.c_double] * 12 + [ctypes.c_int] * 2)

_BOOL, _I32, _I64, _F64 = (np.dtype(t) for t in (np.bool_, np.int32,
                                                 np.int64, np.float64))


def _address(array, dtype, size):
    """The address of `array`'s data, which the loop reads as `size` items
    of `dtype`; anything else raises rather than be read as another
    type."""
    if (array.dtype != dtype or not array.flags.c_contiguous
            or array.size != size):
        raise TypeError(
            f"the training loop reads a C-contiguous {dtype} buffer of "
            f"{size} items; got {array.dtype}, shape {array.shape}"
            f"{'' if array.flags.c_contiguous else ', not C-contiguous'}")
    return array.ctypes.data


# Shared with distillation, the greedy rollout and the harness.


def argmax(values):
    """Index of the largest of `values`; ties go to the lowest index."""
    a = 0
    best = values[0]
    for b in range(1, len(values)):
        v = values[b]
        if v > best:
            best = v
            a = b
    return a


def sum_in_order(values):
    """The floats of `values` added strictly left to right. From Python
    3.12 the builtin `sum` compensates float sums, whose bits then differ
    from one interpreter to the next."""
    total = 0.0
    for v in values:
        total += v
    return total


def softmax_prob(values, a, tau=1.0):
    """Probability of index `a` under the temperature-`tau` softmax of
    `values`.

    Max-subtracted and accumulated in index order, as the training loop's
    pull computes it at temperature 1, so every caller gets the same bits.
    """
    m = values[argmax(values)]
    tot = 0.0
    pa = 0.0
    for b in range(len(values)):
        eb = math.exp((values[b] - m) / tau)
        tot += eb
        if b == a:
            pa = eb
    return pa / tot


class RunResult:
    """One training job's outputs: the (n_rows, A) tables of Q, volatility
    and visit counts over the product rows, `rows` (each row's old index
    s*n_q + q, ascending), the episode arrays, the update diagnostics, the
    `seed` and update `bound` the run was given, and `rng_words`, the four
    xorshift128 words the generator ended on. The teacher's and the
    student's training both return it."""

    def __init__(self, q, vol, counts, ep_reward, ep_steps, ep_accept,
                 soft_steps, novel, max_abs_update, n_soft, rows, n_q, seed,
                 bound, rng_words):
        self.q = q
        self.vol = vol
        self.counts = counts
        self.ep_reward = ep_reward
        self.ep_steps = ep_steps
        self.ep_accept = ep_accept
        self.novel_transitions = novel
        self.max_abs_update = max_abs_update
        self.n_soft_violations = n_soft
        self.soft_violation_steps = soft_steps[:n_soft]
        self.rows = rows
        self.n_q = n_q
        self.seed = seed
        self.bound = bound
        self.rng_words = rng_words


def run_training(tables, cdfa, dense, learn, *, episodes, max_steps, seed,
                 stream=0, trust=None, guide=None, use_gate=False,
                 omega_fixed=1.0, use_guidance=False, bound=math.inf):
    """Run one full training job and return its RunResult; see
    student.train_student for semantics.

    The loop walks the product rows of `tables` and `cdfa`, built on the
    first call and reused after. `learn`, `trust` and `guide` are the
    LearningParams, TrustParams and GuidanceParams sections the run reads;
    a section left as None reads as zeros. `dense` is the (q_ad,
    q_ad_known, pi_teacher, pi_known) array bundle, indexed [q, q2] and
    [q, a]; pass None when use_guidance is False. The generator is the
    (seed, stream) stream of `rng.state_from`.

    Per step: epsilon-greedy action, student TD error, trust gate read from
    the pair's volatility as it stood before this step, teacher terms
    (automaton edge value, and the policy gradient on the taken action
    when the step moves within an automaton state), fused update, then
    Q += alpha * update and the volatility absorbs |update|. With
    use_guidance False this reduces exactly to Q-learning. Update
    magnitudes above `bound` are recorded (the global step indices of the
    first SOFT_CAP); non-finite updates abort.
    """
    if episodes <= 0:
        raise ValueError("episodes must be positive")
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    alpha, gamma = learn.alpha, learn.gamma
    eps, eps_end, eps_decay = (learn.epsilon_start, learn.epsilon_end,
                               learn.epsilon_decay)
    eta = gate_k = theta = v_init = lam_ad = lam_pd = 0.0
    if trust is not None:
        eta, gate_k, theta, v_init = (trust.eta, trust.k, trust.theta,
                                      trust.v_init)
    if guide is not None:
        lam_ad, lam_pd = guide.lambda_ad, guide.lambda_pd
    product = product_tables(tables, cdfa)
    n_q = cdfa.delta.shape[0]
    n_actions = tables.n_actions
    if dense is None:
        dense = (np.zeros(n_q * n_q), np.zeros(n_q * n_q, dtype=np.bool_),
                 np.zeros(n_q * n_actions), np.zeros(n_q, dtype=np.bool_))
    n_rows = len(product.rows)
    shape = (n_rows, n_actions)
    outputs = (np.zeros(shape), np.full(shape, v_init),
               np.zeros(shape, dtype=np.int64), np.zeros(episodes),
               np.zeros(episodes, dtype=np.int64),
               np.zeros(episodes, dtype=np.bool_),
               np.full(SOFT_CAP, -1, dtype=np.int64))
    rng = state_from(seed, stream).astype(np.uint32)
    tallies = np.zeros(2, dtype=np.int64)  # novel, n_soft
    max_abs = np.zeros(1)
    greedy = np.zeros(n_rows, dtype=np.int32)
    size = n_rows * n_actions
    buffers = (
        (product.next, _I32, size), (product.reward, _F64, size),
        (product.stop, _BOOL, n_rows), (product.dead, _BOOL, n_rows),
        (product.q_of, _I64, n_rows), (cdfa.accepting, _BOOL, n_q),
        (dense[0], _F64, n_q * n_q), (dense[1], _BOOL, n_q * n_q),
        (dense[2], _F64, n_q * n_actions), (dense[3], _BOOL, n_q),
        *zip(outputs, (_F64, _F64, _I64, _F64, _I64, _BOOL, _I64),
             (size, size, size, episodes, episodes, episodes, SOFT_CAP)))
    status = _train(
        *(_address(array, dtype, n) for array, dtype, n in buffers),
        SOFT_CAP, greedy.ctypes.data, rng.ctypes.data, tallies.ctypes.data,
        max_abs.ctypes.data,
        n_q, n_actions, product.start, episodes, max_steps, alpha, gamma,
        eps, eps_end, eps_decay, eta, gate_k, theta, lam_ad, lam_pd,
        omega_fixed, bound, use_gate, use_guidance)
    if status:
        raise ValueError("non-finite update; diverged")
    novel, n_soft = tallies.tolist()
    return RunResult(*outputs, novel, max_abs.item(), n_soft, product.rows,
                     n_q, seed, bound, tuple(rng.tolist()))


def greedy_rollout(tables, cdfa, q, max_steps):
    """Follow the greedy policy of `q`, an (n_rows, A) table over the
    product rows of `tables` and `cdfa`, from reset.

    Returns (accepted, steps, total_reward). Ends on death, acceptance, a
    revisited row (a guaranteed loop under a deterministic policy), or the
    step budget. A dead row does not accept, even under an accepting
    automaton state, as in the training loop's `ep_accept`.
    """
    product = product_tables(tables, cdfa)
    p = product.start
    seen = {p}
    total = 0.0
    for t in range(max_steps):
        a = argmax(q[p])
        total += float(product.reward[p, a])
        p = int(product.next[p, a])
        if product.dead[p]:
            return False, t + 1, total
        if cdfa.accepting[product.q_of[p]]:
            return True, t + 1, total
        if p in seen:
            return False, t + 1, total
        seen.add(p)
    return False, max_steps, total
