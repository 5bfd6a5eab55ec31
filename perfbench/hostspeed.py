"""The host's speed, measured while the benchmark runs.

The benchmark runs on a few cores of a shared host whose speed drifts by a
tenth to a half over seconds and minutes, whatever runs on it: a fixed loop
of pure Python takes from 1.0 to 1.5 times its best time, in stretches that
last from milliseconds to minutes.  A run's times therefore say as much
about the host as about the program.

The harness runs `block`, a fixed piece of pure-Python work that imports
nothing from the program, between ops throughout the timed phase (every
`EVERY_S` of op time).  Over passes of a few seconds its time tracks the
program's (correlation 0.84 to 0.97 on the reference host).  Every time metric
is scaled by `REFERENCE_BLOCK_S` / the block's weighted mean time in the
run (see `Meter`), so it reads as if the run had gone at the reference
host's usual speed.  A change
to the program moves the scaled times as it moves the raw ones; the block
does not depend on the program, and the collector is off while it runs, so
the program's heap cannot slow it.
"""

from __future__ import annotations

import gc
import time

# Mean time of `block` on the reference host (see perfbench/README.md).
REFERENCE_BLOCK_S = 0.00035
# A block runs once this much op time has passed since the last one.
EVERY_S = 0.005
# At most this many blocks run after one op, however long it took.
MAX_BLOCKS = 16
# Blocks a phase starts with, for a first estimate of the speed.
FIRST_BLOCKS = 20


class _Node:
    __slots__ = ("kind", "args")

    def __init__(self, kind, args):
        self.kind = kind
        self.args = args


def _tree(depth, k):
    if depth == 0:
        return _Node("atom", (k % 5,))
    return _Node("and" if k & 1 else "imp",
                 (_tree(depth - 1, k * 3 + 1), _tree(depth - 1, k * 5 + 2)))


def _walk(node):
    yield node
    if node.kind != "atom":
        for child in node.args:
            yield from _walk(child)


def block():
    """A fixed mix of what the prover and the algebra code do most: build
    small trees of objects and walk them with generators, make tuples and
    frozensets, look them up in dicts and sets.  It takes about half a
    millisecond on the reference host."""
    seen = {}
    total = 0
    for k in range(6):
        root = _tree(4, k)
        atoms = tuple(n.args[0] for n in _walk(root) if n.kind == "atom")
        for i in range(len(atoms) - 2):
            key = frozenset(atoms[i:i + 3])
            if key in seen:
                seen[key] += 1
            else:
                seen[key] = 1
        total += sum(v for v in seen.values() if v > 1)
        total += len({(a, b) for a in atoms[:8] for b in atoms[:8] if a <= b})
    return total


class Meter:
    """Times `block` between ops; `scale()` turns a measured time into one
    at the reference host speed.  Each block stands for the op time since
    the one before it, and the mean block time is weighted by that, so
    that the host's speed during a long op counts as much as during as
    many short ones."""

    def __init__(self, clock=time.perf_counter, every_s=EVERY_S):
        self.clock = clock
        self.every_s = every_s
        self.times = []
        self._weighted = 0.0     # sum of block time * weight
        self._weights = 0.0
        self._since = 0.0

    def after_op(self, op_s):
        """Account `op_s` of op time; once `every_s` of it has passed, run
        a block, or after a long op one per `every_s`, up to `MAX_BLOCKS`,
        so that one noisy block does not stand for a long op alone."""
        self._since += op_s
        if self._since >= self.every_s:
            n = min(MAX_BLOCKS, int(self._since / self.every_s))
            for _ in range(n):
                self.measure(self._since / n)
            self._since = 0.0

    def measure(self, weight=None):
        """Time one block; it stands for `weight` seconds of op time
        (`every_s` if not given)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            block()
            elapsed = self.clock() - start
        finally:
            if enabled:
                gc.enable()
        weight = self.every_s if weight is None else weight
        self.times.append(elapsed)
        self._weighted += elapsed * weight
        self._weights += weight

    def mean_s(self):
        return self._weighted / self._weights

    def scale(self):
        """Reference seconds per measured second, so far in the run."""
        return REFERENCE_BLOCK_S / self.mean_s()
