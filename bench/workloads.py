"""Seeded workload generation for the xpointsim benchmark.

A workload is a scenario INI text, the initial contents of every word and
a stream of operations. Everything is drawn from ``random.Random`` seeded
with a string built from the workload name, the seed and the pass number,
so the same seed always gives the same inputs, independent of hash
randomisation. Nothing here imports xpointsim: the program receives only
the generated INI text, the contents and the operations.

Pass 0 is the workload's fixed operation list. Later passes continue the
stream on the same array, so a run can keep measuring until its time is
up while every statistic taken from pass 0 stays exactly reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class Read:
    word: int
    kind: str = READ


@dataclass(frozen=True)
class Write:
    word: int
    data: str
    mode: str
    kind: str = WRITE


@dataclass(frozen=True)
class Spec:
    n_bits: int
    m_words: int
    line_resistance: float


# Why each workload exists is written down in README.md.
SPECS = {
    "read_scan": Spec(4, 256, 0.0),
    "write_wire": Spec(8, 16, 1.0),
    "rmw_mixed": Spec(8, 32, 0.0),
}

RMW_READS = 200
RMW_WRITES = 100
WIRE_WRITES = 100


def _rng(name, seed, part):
    return random.Random(f"xpointsim-bench:{name}:{seed}:{part}")


def _bits(rng, n):
    return "".join("01"[rng.getrandbits(1)] for _ in range(n))


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    spec: Spec

    @property
    def ini(self):
        s = self.spec
        return (
            "[array]\n"
            f"n_bits = {s.n_bits}\n"
            f"m_words = {s.m_words}\n"
            "balanced = true\n"
            f"line_resistance = {s.line_resistance!r}\n"
        )

    def contents(self):
        """Initial bit string of every word, in word order."""
        rng = _rng(self.name, self.seed, "contents")
        return [_bits(rng, self.spec.n_bits) for _ in range(self.spec.m_words)]

    def pass_ops(self, index):
        """Operation list of one pass; pass 0 is the workload proper."""
        n, m = self.spec.n_bits, self.spec.m_words
        if self.name == "read_scan":
            return [Read(w) for w in range(m)]
        rng = _rng(self.name, self.seed, f"pass{index}")
        if self.name == "write_wire":
            return [
                Write(rng.randrange(m), _bits(rng, n), "parallel")
                for _ in range(WIRE_WRITES)
            ]
        # fixed counts, not a per-operation draw, so every pass has enough
        # reads and writes for its tail percentiles
        ops = [Read(rng.randrange(m)) for _ in range(RMW_READS)]
        ops += [
            Write(rng.randrange(m), _bits(rng, n), "self_enable_serial")
            for _ in range(RMW_WRITES)
        ]
        rng.shuffle(ops)
        return ops

    def stream(self):
        """Endless ``(pass index, operation)`` pairs."""
        index = 0
        while True:
            for op in self.pass_ops(index):
                yield index, op
            index += 1


def make(name, seed):
    if name not in SPECS:
        raise ValueError(
            f"unknown workload {name!r}; choose from {', '.join(SPECS)}"
        )
    return Workload(name, seed, SPECS[name])
