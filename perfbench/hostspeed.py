"""Measured times corrected for the speed of the host at the moment.

The benchmark runs on a few cores of a shared host whose speed moves
with the load of its other tenants: the same run reads up to 1.7x
faster or slower minutes later, with no change to the program.  To take
that out, a workload times its work in segments and brackets every
segment with :func:`reference`, a fixed piece of pure-Python work shaped
like the simulators' inner loops (opcode dispatch, register-file and
memory updates, attribute access) that never touches the program under
test.  A segment's corrected time is its wall time times
:data:`NOMINAL_S` over the mean of the two reference runs around it: the
time the segment would have taken with the host at the speed at which
one reference run takes :data:`NOMINAL_S`.  A change to the program
moves the corrected time exactly as it moves the wall time; a change of
host speed moves both the segment and its references.

A reference run takes about a tenth of the shortest segment
(:data:`SEGMENT_S`), and its time is left out of both the measured and
the corrected time.  The references are timed in the same thread as the
work, right before and after it: timed on another core, at another
moment or from a sampling thread, they follow the work's speed far less
closely.  Only where the work runs in other processes (the farm server
and its pool workers) does :func:`probe`, a separate process, supply
them.

How much the correction steadies each workload, over ten runs on the
2-CPU VM the benchmark was written on, is in ``README.md``.
"""

from __future__ import annotations

import time

#: wall time of one :func:`reference` run at the benchmark's reference
#: host speed (about the median on the 2-CPU VM it was written on)
NOMINAL_S = 0.05
#: rounds of the kernel in one reference run
ROUNDS = 2400
#: shortest segment :meth:`Corrector.checkpoint` ends
SEGMENT_S = 0.5

_PROGRAM = [(i % 5, (7 * i) % 16, (3 * i + 1) % 16, (i * i) % 251) for i in range(64)]


class _Machine:
    def __init__(self):
        self.regs = [0] * 16
        self.mem: dict[int, int] = {}
        self.pc = 0


def _kernel(rounds: int) -> int:
    """A fixed register machine running a fixed 64-instruction loop."""
    m = _Machine()
    regs, mem = m.regs, m.mem
    for _ in range(rounds):
        m.pc = 0
        for op, a, b, imm in _PROGRAM:
            if op == 0:
                regs[a] = (regs[b] + imm) & 0xFFFFFFFF
            elif op == 1:
                regs[a] = (regs[a] ^ (regs[b] << 3)) & 0xFFFFFFFF
            elif op == 2:
                mem[(regs[b] + imm) & 0x3FF] = regs[a]
            elif op == 3:
                regs[a] = mem.get((regs[b] + imm) & 0x3FF, imm)
            else:
                regs[a] = (regs[a] * 33 + regs[b]) & 0xFFFFFFFF
            m.pc += 4
    return regs[0]


def reference() -> float:
    """Run the reference work once; returns its wall time in seconds."""
    started = time.perf_counter()
    _kernel(ROUNDS)
    return time.perf_counter() - started


class Corrector:
    """Corrected wall time of work done in segments between reference runs.

    Creating one runs the first reference; each :meth:`close` ends the
    segment of work since the previous reference run with another one.
    ``raw_s`` and ``corrected_s`` sum the segments' wall and corrected
    times; the reference runs are in neither."""

    def __init__(self):
        self.last = reference()
        self.raw_s = 0.0
        self.corrected_s = 0.0
        self._started = time.perf_counter()

    def close(self) -> float:
        """End the current segment, right after its work; returns its
        correction factor, NOMINAL_S over the mean of its two reference
        runs."""
        segment_s = time.perf_counter() - self._started
        ref = reference()
        factor = 2.0 * NOMINAL_S / (self.last + ref)
        self.last = ref
        self.raw_s += segment_s
        self.corrected_s += segment_s * factor
        self._started = time.perf_counter()
        return factor

    def checkpoint(self) -> None:
        """End the current segment if it has run for :data:`SEGMENT_S`."""
        if time.perf_counter() - self._started >= SEGMENT_S:
            self.close()


def probe(period_s: float = 0.25) -> None:
    """Run the reference every ``period_s`` seconds until killed, printing
    ``start end cpu_seconds`` per run (``perf_counter`` times).  For work
    that runs in other processes: the reference's own CPU time leaves out
    the time it waits for a core, so it reads the host's speed, not how
    busy the workload keeps the cores."""
    while True:
        time.sleep(period_s)
        started, cpu = time.perf_counter(), time.thread_time()
        _kernel(ROUNDS)
        print(f"{started} {time.perf_counter()} {time.thread_time() - cpu}", flush=True)


if __name__ == "__main__":
    probe()
