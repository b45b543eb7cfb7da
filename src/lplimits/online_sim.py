"""Online-matching simulators and the secretary policy machinery.

BALANCE and RANKING run on explicit arrival instances; BALANCE additionally
collects the slab accounting (final-spend groups alpha_i, per-slab spend
beta_j, per-bidder spent fraction rho_u) that underlies its factor-revealing
LP.  Secretary policies are position-indexed acceptance probabilities, either
recovered from a feasible LP solution or given directly.

Monte Carlo runs consume randomness in fixed blocks of trials; block i draws
from a counter-based Philox stream keyed by (seed, i), so estimates are
bit-reproducible.  Any stretch of a block's stream can be opened at its
offset, so the secretary simulator splits each block into one contiguous
row range per CPU, runs the ranges on threads, and gives the same bytes for
any number of CPUs; each thread holds arrays for its own rows only, so the
block arrays in memory do not grow with the thread count.  RANKING keeps
its arrivals on the calling thread and fills the next block's key array on
a second CPU meanwhile, drawing a few trials at a time.  A run allocates its
block-sized arrays once and refills them from block to block.  The secretary
simulator draws its acceptance coins only for a fractional policy, one with
some 0 < p < 1; every other policy decides without them.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import families
# the threshold-rule values live with the secretary LP; importable from here too
from .families import best_threshold, threshold_policy_value  # noqa: F401
from .lp_core import LpInputError, _as_floats, _as_int, check_feasibility

TRIAL_BLOCK = 4096
DEFAULT_TRIALS = 100_000
# trials per RANKING draw and per match count: temporaries of a 64th of a block
_CHUNK = 64


def _as_seed(seed) -> int:
    """seed as a Philox key: an integer in [0, 2^128)."""
    seed = _as_int(seed, "seed")
    if not 0 <= seed < 1 << 128:
        raise LpInputError(f"seed must be in [0, 2**128), got {seed}")
    return seed


def _block_rng(seed: int, block: int, offset: int = 0) -> np.random.Generator:
    """Independent substream for one trial block, started `offset` doubles
    into it; streams are spaced 2^128 Philox counters apart.  The seed is
    the Philox key, so it must lie in [0, 2^128).

    A double takes one 64-bit output, and Philox makes 4 of them per counter
    step, raising the counter before its first: so the stream starts
    offset // 4 steps on, and the first offset % 4 outputs are dropped."""
    bits = np.random.Philox(key=_as_seed(seed), counter=(block << 128) + offset // 4)
    if offset % 4:
        bits.random_raw(offset % 4)
    return np.random.Generator(bits)


def _workers() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_threads(work, count: int) -> list:
    """[work(0), ..., work(count - 1)]: work(0) runs on the calling thread,
    each other on a thread of its own.  Every thread is joined before this
    returns, and the exception of the lowest index that raised is re-raised."""
    results, errors = [None] * count, [None] * count

    def run(w):
        try:
            results[w] = work(w)
        except BaseException as exc:   # handed to the caller below
            errors[w] = exc

    threads = []
    try:
        for w in range(1, count):
            threads.append(threading.Thread(target=run, args=(w,)))
            threads[-1].start()
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _blocks(trials: int):
    """Yield (block index, block size) pairs covering `trials` trials."""
    for block, start in enumerate(range(0, trials, TRIAL_BLOCK)):
        yield block, min(TRIAL_BLOCK, trials - start)


@dataclass(frozen=True)
class SimInstance:
    """Bipartite arrival instance: offline side 1..n_offline with uniform
    capacity b, arrivals listed in adversarial order as 1-based neighbor
    tuples."""

    n_offline: int
    b: int
    arrivals: tuple

    def __post_init__(self):
        n, b = _as_int(self.n_offline, "n_offline"), _as_int(self.b, "b")
        if n < 1 or b < 1:
            raise LpInputError("need n_offline >= 1 and b >= 1")
        cleaned = {}    # each distinct tuple is cleaned once, then reused
        arrivals = []
        try:
            for nb in map(tuple, self.arrivals):
                clean = cleaned.get(nb)
                if clean is None:
                    clean = cleaned[nb] = tuple(sorted(
                        {_as_int(v, "neighbor index") for v in nb}))
                    if clean and (clean[0] < 1 or clean[-1] > n):
                        raise LpInputError("neighbor index outside [1, n_offline]")
                arrivals.append(clean)
        except TypeError:   # arrivals, or one of them, is not a sequence
            raise LpInputError("arrivals must be a sequence of index tuples") from None
        object.__setattr__(self, "n_offline", n)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "arrivals", tuple(arrivals))

    @property
    def n_online(self) -> int:
        return len(self.arrivals)


@dataclass(frozen=True)
class SlabStats:
    """Appendix-style slab accounting for one BALANCE run.

    alpha[i-1] counts bidders whose final spent fraction falls in group i
    (group N+1 means fully spent); beta[j-1] is the total spend inside slab j
    in budget units.  beta_units holds the exact integer numerators of beta
    (units of 1/(N*b)); the audit works on them alone.
    """

    N: int
    alpha: np.ndarray
    beta: np.ndarray
    rho: np.ndarray
    beta_units: np.ndarray
    b: int


@dataclass(frozen=True)
class PolicyTable:
    n: int
    accept_prob: np.ndarray
    reachable: np.ndarray

    def __post_init__(self):
        n = _as_int(self.n, "n")
        p = _as_floats(self.accept_prob, "accept_prob")
        if p.ndim != 1 or p.size < 1 or p.size != n:
            raise LpInputError(
                f"accept_prob must be a vector of n = {n} >= 1 entries")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise LpInputError("accept_prob entries must lie in [0, 1]")
        if np.shape(self.reachable) != p.shape:
            raise LpInputError("reachable must have the shape of accept_prob")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "accept_prob", p)


@dataclass(frozen=True)
class SimReport:
    trials: int
    estimate: float
    std_error: float
    seed: int


@dataclass(frozen=True)
class AuditResult:
    passed: bool
    worst_prefix: int | None    # first violating p (1-based), None if passed


@dataclass(frozen=True)
class BalanceRun:
    value: float                # total matched value in budget units
    assignments: np.ndarray     # per-bidder match counts
    stats: SlabStats


def run_balance(instance: SimInstance, n_slabs: int = 20) -> BalanceRun:
    """Deterministic BALANCE: each arrival goes to the neighbor with the
    largest remaining capacity (ties to the lowest index), earning 1/b."""
    n_slabs = _as_int(n_slabs, "n_slabs")
    if n_slabs < 1:
        raise LpInputError("n_slabs must be >= 1")
    n, b = instance.n_offline, instance.b
    remaining = [b] * (n + 1)   # 1-based; entry 0 is never read
    matched = 0
    for nb in instance.arrivals:
        if nb:
            u = max(nb, key=remaining.__getitem__)  # ties: lowest index
            if remaining[u]:
                remaining[u] -= 1
                matched += 1
    counts = b - np.array(remaining[1:], dtype=np.int64)
    return BalanceRun(value=matched / b, assignments=counts,
                      stats=_slab_stats(counts, b, n_slabs))


def _slab_stats(counts: np.ndarray, b: int, N: int) -> SlabStats:
    """Integer slab accounting: all quantities exact in units of 1/(N*b)."""
    n = counts.size
    rho_num = counts.astype(np.int64) * N          # rho_u = rho_num / (N*b)
    group = np.where(counts == b, N, rho_num // b)  # 0-based group index
    alpha = np.bincount(group, minlength=N + 1).astype(np.int64)
    j = np.arange(1, N + 1, dtype=np.int64)[:, None]
    spent = np.minimum(rho_num[None, :], j * b) - (j - 1) * b
    beta_units = np.maximum(spent, 0).sum(axis=1)
    return SlabStats(N=N, alpha=alpha, beta=beta_units / (N * b),
                     rho=counts / b, beta_units=beta_units, b=b)


def slab_audit(stats: SlabStats, opt_exhausts_budgets: bool) -> AuditResult:
    """Check the prefix inequality sum_{j<=p} beta_j >= sum_{i<=p} alpha_i.

    Only meaningful when the offline optimum exhausts every budget; the audit
    is refused otherwise.  Both sides are compared exactly, in integer units
    of 1/(N*b).
    """
    if not opt_exhausts_budgets:
        raise LpInputError("audit refused: hypothesis 'opt exhausts budgets' unmet")
    N = stats.N
    lhs = np.cumsum(stats.beta_units)
    rhs = np.cumsum(stats.alpha[:N]) * (N * stats.b)
    bad = np.nonzero(lhs < rhs)[0]
    if bad.size:
        return AuditResult(passed=False, worst_prefix=int(bad[0]) + 1)
    return AuditResult(passed=True, worst_prefix=None)


def run_ranking(instance: SimInstance, trials: int,
                seed: int = 0) -> SimReport:
    """Monte Carlo RANKING: per trial a uniform random priority order over
    the offline side; each arrival takes its available neighbor of highest
    priority.  Returns the mean matching size with its standard error.

    Per block, row v of an (n + 1, block size) uint64 array holds vertex
    v's keys ``priority << s | v``, s = n.bit_length(): the priority is the
    draw u times 2**53, an exact integer, while 54 + s <= 64 (n <= 1023),
    and u's stable rank in its trial above that.  An arrival's least key is
    its free neighbor of least u, ties going to the lowest index.  A matched
    key becomes ``done = 1 << (top + s) | n``, above every live key; with no
    free neighbor an arrival finds ``done`` and rewrites the dump row n.  A
    trial's matching size is its count of ``done`` keys in rows below n,
    counted once the block's arrivals are over.

    Two key arrays take turns: while the calling thread runs block i's
    arrivals on one, a second thread fills the other with block i + 1's
    keys, drawing the block's stream a few trials at a time, so no block of
    draws is held.  With one CPU, or one block, a single key array serves
    every block, refilled after each block's arrivals.  The arrivals stay
    on one thread, since each is a small GIL-bound gather.
    """
    if instance.b != 1:
        raise LpInputError("RANKING requires unit capacities (b = 1)")
    trials, seed = _as_int(trials, "trials"), _as_seed(seed)
    if trials < 1:
        raise LpInputError("trials must be >= 1")
    n = instance.n_offline
    s = n.bit_length()
    top = 53 if 54 + s <= 64 else s
    done, mask = 1 << (top + s) | n, (1 << s) - 1
    # a neighbor set of consecutive vertices is read as a slice, not gathered
    rows = [slice(nb[0] - 1, nb[-1]) if nb[-1] - nb[0] < len(nb)
            else np.array(nb) - 1 for nb in instance.arrivals if nb]
    vertex = np.arange(n, dtype=np.uint64)
    width = min(trials, TRIAL_BLOCK)
    blocks = list(_blocks(trials))
    # a second key array only where a second thread fills it
    keys = [np.empty((n + 1, width), dtype=np.uint64)
            for _ in range(2 if _workers() > 1 and len(blocks) > 1 else 1)]
    cols = np.arange(width, dtype=np.uint64)

    def draw(i):
        """Block i's keys, _CHUNK trials at a time: successive draws give the
        bytes of one.  Each chunk's keys are made in its draws' own memory."""
        block, bsz = blocks[i]
        rng = _block_rng(seed, block)
        for a in range(0, bsz, _CHUNK):
            u = rng.random((min(_CHUNK, bsz - a), n))
            key = u.view(np.uint64)
            if top == 53:
                # u * 2**53 is an integer: this is it shifted left by s, exactly
                np.multiply(u, 2.0**(53 + s), out=key, casting="unsafe")
            else:
                np.put_along_axis(key, np.argsort(u, axis=1, kind="stable"),
                                  vertex, axis=1)
                key <<= s
            key |= vertex
            keys[i % len(keys)][:n, a:a + len(u)] = key.T

    def play(i):
        """Block i's arrivals; returns each trial's matching size."""
        bsz = blocks[i][1]
        own = keys[i % len(keys)]
        live, flat = own[:, :bsz], own.reshape(-1)
        for idx in rows:
            m = live[idx].min(axis=0)
            m &= mask       # the matched vertex, then its key's flat index
            m *= width
            m += cols[:bsz]
            flat[m.view(np.int64)] = done
        size = np.empty(bsz, dtype=np.int64)
        step = 8 * _CHUNK   # n * step flags: the bytes of one chunk of draws
        for a in range(0, bsz, step):
            np.sum(live[:n, a:a + step] == done, axis=0, out=size[a:a + step])
        return size

    draw(0)
    total = 0.0
    total_sq = 0.0
    for i in range(len(blocks)):
        if len(keys) == 2 and i + 1 < len(blocks):
            size = _on_threads(lambda w: draw(i + 1) if w else play(i), 2)[0]
        else:
            size = play(i)
            if i + 1 < len(blocks):
                draw(i + 1)
        total += float(size.sum())
        total_sq += float((size.astype(float) ** 2).sum())
    return _report(total, total_sq, trials, seed)


def _report(total, total_sq, trials, seed) -> SimReport:
    mean = total / trials
    if trials > 1:
        var = max(0.0, (total_sq - total * total / trials) / (trials - 1))
        se = (var / trials) ** 0.5
    else:
        se = 0.0
    return SimReport(trials=trials, estimate=mean, std_error=se, seed=seed)


def secretary_policy_from_lp(x) -> PolicyTable:
    """Recover the stopping policy behind a feasible secretary LP solution.

    Position i accepts a best-so-far candidate with probability
    x_i * i / (1 - sum_{l<i} x_l); positions whose denominator vanishes are
    unreachable and carry probability 0.  x must satisfy the LP's rows
    i x_i + sum_{l<i} x_l <= 1 and bounds 0 <= x <= 1 to within 1e-6.
    """
    x = _as_floats(x, "x")
    n = x.size
    # the secretary rows are FamilyLp's prefix sums, without operator()'s cap;
    # FamilyLp refuses n = 0, and check_feasibility any x but n finite values
    lp = families.FamilyLp(**families.FAMILIES["secretary"].fields(n))
    report = check_feasibility(lp, x, 1e-6)
    if not report.ok:
        raise LpInputError("x is not feasible for the secretary LP "
                           f"(violation {report.max_violation:.3g})")
    i = np.arange(1, n + 1)
    prior = np.concatenate([[0.0], np.cumsum(x)[:-1]])
    denom = 1.0 - prior
    reachable = denom > 1e-12
    p = np.where(reachable, x * i / np.where(reachable, denom, 1.0), 0.0)
    # feasibility bounds p by 1; clamp the tolerance spill
    p = np.clip(p, 0.0, 1.0)
    # an optimum is a threshold rule; its rounding must not make p fractional
    p[p < 1e-12] = 0.0
    p[p > 1.0 - 1e-12] = 1.0
    return PolicyTable(n=n, accept_prob=p, reachable=reachable)


def run_secretary(policy: PolicyTable, trials: int, seed: int = 0) -> SimReport:
    """Estimate the probability that a position-indexed stopping policy picks
    the overall best of n randomly ordered candidates.

    Per trial: draw a uniform arrival order, walk the positions, and at each
    reachable best-so-far position accept with the policy's probability;
    success means the accepted candidate is the global best.

    A block draws its quality array and then, only for a fractional policy
    (some 0 < p < 1), a coin per position, accepting where coin < p; the
    coins are drawn into the running maximum's array, spent by then.  A coin
    lies in [0, 1), so with every p in {0, 1} the acceptance is p == 1 and the
    coins, drawn last from the block's own stream, are skipped exactly.

    Each block of bsz rows is split into W contiguous row ranges, W the
    number of CPUs (at most the rows of the first block).  Range w runs on a
    thread of its own, range 0 on the calling thread, through every block;
    its rows [a, b) read their qualities at offset a * n of the block's
    stream and their coins at offset (bsz + a) * n.  A thread holds arrays
    for its own rows only, so the block arrays in memory are the same for
    any W, and the success counts are summed as integers, so the estimate
    is the same bytes too.
    """
    trials, seed = _as_int(trials, "trials"), _as_seed(seed)
    if trials < 1:
        raise LpInputError("trials must be >= 1")
    p = policy.accept_prob
    fractional = bool(np.any((p > 0.0) & (p < 1.0)))
    workers = min(_workers(), trials, TRIAL_BLOCK)
    counts = _on_threads(
        lambda w: _secretary_rows(p, fractional, trials, seed, w, workers), workers)
    total = float(sum(counts))
    # success is a 0/1 indicator, so the sum of squares equals the sum
    return _report(total, total, trials, seed)


def _secretary_rows(p, fractional, trials, seed, w, workers) -> int:
    """Successes of row range w of `workers` in every block of a secretary run."""
    n = p.size
    certain = p == 1.0
    shape = (-(-min(trials, TRIAL_BLOCK) // workers), n)
    arrays = [np.empty(shape), np.empty(shape),
              np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)]
    successes = 0
    for block, bsz in _blocks(trials):
        a, b = bsz * w // workers, bsz * (w + 1) // workers
        if a == b:
            continue
        quality, record, best_so_far, accept = (x[:b - a] for x in arrays)
        _block_rng(seed, block, a * n).random(out=quality)
        np.maximum.accumulate(quality, axis=1, out=record)
        np.equal(quality, record, out=best_so_far)
        if fractional:
            coins = record
            _block_rng(seed, block, (bsz + a) * n).random(out=coins)
            np.less(coins, p[None, :], out=accept)
            accept &= best_so_far
        else:
            np.logical_and(best_so_far, certain[None, :], out=accept)
        # one expression, so no per-row array outlives its block
        successes += int(np.count_nonzero(accept.any(axis=1) & (
            np.argmax(accept, axis=1) == np.argmax(quality, axis=1))))
    return successes


def policy_value(policy: PolicyTable) -> float:
    """Exact success probability of a stopping policy,
    sum_i prod_{j<i} (1 - p_j / j) p_i / n: by Renyi's record theorem the
    best-so-far indicators of positions j are independent Bernoulli(1/j)."""
    p = policy.accept_prob
    go_on = np.cumprod(1.0 - p[:-1] / np.arange(1, policy.n))
    return float(p[0] + go_on @ p[1:]) / policy.n


def triangular_instance(n: int, b: int = 1) -> SimInstance:
    """Adversarial instance: phase t brings b copies of a query whose
    neighbors are bidders {t..n}; assigning phase t to bidder t is a planted
    perfect b-matching (OPT = n budget units)."""
    n, b = _as_int(n, "n"), _as_int(b, "b")
    arrivals = []
    for t in range(1, n + 1):
        nb = tuple(range(t, n + 1))
        arrivals.extend([nb] * b)
    return SimInstance(n_offline=n, b=b, arrivals=tuple(arrivals))


def planted_instance(n: int, b: int, extra_degree: int = 2,
                     seed: int = 0) -> SimInstance:
    """Random instance with a planted perfect b-matching: every bidder owns b
    dedicated queries, each padded with random extra neighbors, in a shuffled
    arrival order."""
    n, b = _as_int(n, "n"), _as_int(b, "b")
    extra_degree = _as_int(extra_degree, "extra_degree")
    if n < 1 or b < 1 or extra_degree < 0:
        raise LpInputError("need n >= 1, b >= 1 and extra_degree >= 0")
    rng = _block_rng(seed, 0)
    # one draw of every extra neighbor: the same stream as a draw per arrival
    extras = rng.integers(1, n + 1, size=(n * b, extra_degree)).tolist()
    arrivals = [(1 + i // b, *row) for i, row in enumerate(extras)]
    order = rng.permutation(len(arrivals))
    return SimInstance(n_offline=n, b=b,
                       arrivals=tuple(arrivals[i] for i in order))


def offline_optimum(instance: SimInstance) -> float:
    """Exact offline maximum in budget units: the maximum b-matching, found
    by breadth-first augmenting-path search.

    Each arrival in turn searches the offline vertices, each holding up to b
    arrivals; an arrival held by a full vertex may move to another neighbor.
    A failed search reached only full vertices whose arrivals have all their
    neighbors among them; no later path can leave or end in that set, so its
    vertices are skipped from then on.
    """
    n, b, arrivals = instance.n_offline, instance.b, instance.arrivals
    held = [[] for _ in range(n + 1)]   # vertex 0 holds the searching arrival
    seen = [-1] * (n + 1)   # last search to reach it; len(arrivals) once closed
    step = [None] * (n + 1)   # (vertex left, arrival moved) on the path to it
    for t in range(len(arrivals)):
        held[0] = [t]
        queue = [0]
        for u in queue:     # the queue grows while it is read
            if u and len(held[u]) < b:
                break
            for a in held[u]:
                for w in arrivals[a]:
                    if seen[w] < t:
                        seen[w], step[w] = t, (u, a)
                        queue.append(w)
        else:
            for u in queue[1:]:
                seen[u] = len(arrivals)
            continue
        while u:    # shift every arrival on the path one step
            p, a = step[u]
            held[p].remove(a)
            held[u].append(a)
            u = p
    return sum(map(len, held[1:])) / b


def write_instance(instance: SimInstance, path) -> None:
    """Text format: line 1 ``n_offline n_online b``; then one line per
    arrival with its neighbor indices."""
    with open(path, "w") as fh:
        fh.write(f"{instance.n_offline} {instance.n_online} {instance.b}\n")
        for nb in instance.arrivals:
            fh.write(" ".join(str(u) for u in nb) + "\n")


def read_instance(path) -> SimInstance:
    """Parse the write_instance format; malformed files raise LpInputError."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise LpInputError("instance header must be 'n_offline n_online b'")
        n, n_online, b = (_as_int(v, "instance header") for v in header)
        if n_online < 0:
            raise LpInputError("instance header needs n_online >= 0")
        arrivals = [tuple(_as_int(v, f"arrival line {t}") for v in line.split())
                    for t, line in enumerate(fh, 1)]
    if len(arrivals) != n_online:
        raise LpInputError(f"instance file has {len(arrivals)} arrival lines, "
                           f"its header says {n_online}")
    return SimInstance(n_offline=n, b=b, arrivals=tuple(arrivals))
