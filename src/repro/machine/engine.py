"""The skeleton both predecoded execution engines are built on.

A predecoded engine translates each instruction address of the loaded
program, once, into a specialized closure and runs a tight loop over a
dense handler table.  Everything about that which does not depend on the
instruction set lives here, once:

* the **handler table** over the program's span (every segment), one
  slot per possible instruction start — per aligned word on RISC I
  (``shift = 2``), per byte for the VAX's variable-length encoding
  (``shift = 0``) — with a parallel count array and, per translated
  slot, its static cycle cost, stats-mix key, mnemonic, decoded
  instruction and length;
* **lazy translation** (:meth:`EngineSkeleton._translate`): a slot is
  decoded and specialized on first execution, or marked ``False`` to run
  through ``cpu.step()`` forever (undecodable bytes and whatever the
  front end chooses not to specialize) — semantics by construction;
* **invalidation** through :attr:`Memory.write_watch`: the engine's watch
  first calls whatever watch was installed before the run (a debugger
  watchpoint, say), then drops every translated instruction whose bytes
  the write touched, so self-modifying code re-translates;
* **batched-count flushing**: the untraced loop only bumps a per-slot
  count, folded into the machine's stats when the slot is re-translated
  and when the run leaves the fast path;
* the **retire-sink protocol**: when the run's only ``on_execute`` hook
  is a pipeline adapter offering ``batch_sink()``, the batched loop feeds
  the adapter's buffer itself and :meth:`_translate` hands it each
  translated instruction through ``note_inst(pc, inst)``.

An ISA front end subclasses :class:`EngineSkeleton` and supplies the
decoder (:meth:`_decode`), the closure factory (:meth:`_make_handler`),
the static accounting of a decoded instruction (:meth:`_describe`) and
its two loops: the batched one (no tracer, no hook but a sink) and the
exact one, which updates stats per step so every tracer event and hook
sees the machine exactly as the reference ``step()`` loop leaves it.
"""

from __future__ import annotations


class EngineSkeleton:
    """ISA-neutral state and bookkeeping of one predecoded run.

    Built fresh per ``run()`` call; translation is lazy and costs far
    less than the steps it serves.
    """

    #: log2 of the slot granularity in bytes
    shift = 0
    #: the longest instruction in bytes: how far back a write can reach
    #: into a translated instruction
    max_length = 1
    #: the ``stats`` counter the per-slot ``keys`` index
    mix_field = ""
    #: the CPU's ``_trace_*`` flags; any set selects the exact loop
    trace_flags: tuple = ()

    def __init__(self, cpu):
        self.cpu = cpu
        segments = cpu._program.segments
        align = (1 << self.shift) - 1
        base = min(segment.base for segment in segments) & ~align
        end = max(segment.base + len(segment.data) for segment in segments)
        end = min((end + align) & ~align, cpu.memory.size)
        self.base = base
        self.span = max(end - base, 0)
        size = self.span >> self.shift
        #: per-slot translation state: a closure, ``False`` (always
        #: interpret via ``cpu.step()``) or ``None`` (translate on demand)
        self.handlers: list = [None] * size
        #: batched-loop execution counts, folded into stats on flush
        self.counts = [0] * size
        #: per translated slot: static cycles, stats-mix key, mnemonic,
        #: decoded instruction and length (sparse: most of the span is data)
        self.costs: dict = {}
        self.keys: dict = {}
        self.names: dict = {}
        self.insts: dict = {}
        self.lengths: dict = {}
        #: byte offsets spanned by translated slots (writes outside skip
        #: the invalidation scan)
        self._lo = self.span
        self._hi = 0
        #: the write watch installed before this run, chained by ours
        self._watch_prev = None
        #: the retire sink the batched loop feeds (see :meth:`run`)
        self._sink = None

    # -- bookkeeping -------------------------------------------------------

    def _flush(self, idx: int) -> None:
        """Fold one slot's batched executions into the CPU stats."""
        count = self.counts[idx]
        if count:
            self.counts[idx] = 0
            stats = self.cpu.stats
            stats.instructions += count
            stats.cycles += count * self.costs[idx]
            getattr(stats, self.mix_field)[self.keys[idx]] += count
            self._fold(idx, count)

    def _fold(self, idx: int, count: int) -> None:
        """Front-end hook: fold ISA-specific per-retire counters."""

    def _flush_all(self) -> None:
        for idx in self.lengths:  # every slot translated this run
            self._flush(idx)

    def _note_write(self, address: int, width: int = 4) -> None:
        """The run's ``write_watch``: chain, then invalidate what was hit.

        An invalidated slot keeps its batched count, cost and key until
        it is re-translated (which flushes first) or the run ends, so the
        old instruction's executions are credited to it and nothing
        touches the stats mid-instruction.
        """
        if self._watch_prev is not None:
            self._watch_prev(address, width)
        offset = address - self.base
        if offset < self._hi and offset + width > self._lo:
            handlers = self.handlers
            lengths = self.lengths
            shift = self.shift
            first = max(offset - self.max_length + 1, 0) >> shift
            last = (min(offset + width, self.span) - 1) >> shift
            for idx in range(first, last + 1):
                if handlers[idx] is not None and (idx << shift) + lengths[idx] > offset:
                    handlers[idx] = None

    def _store_range(self) -> tuple[int, int]:
        """``[lo, hi)``: stores a closure makes directly (bypassing
        ``Memory.write``) inside this range must call :meth:`_note_write`.
        Everything when an outside watch is chained, else the span."""
        if self._watch_prev is not None:
            return 0, 1 << 64
        return self.base, self.base + self.span

    # -- translation -------------------------------------------------------

    def _translate(self, idx: int):
        """Translate the slot ``idx``; returns its handler."""
        if idx in self.lengths:
            self._flush(idx)  # credit any batched executions of the old code
        address = self.base + (idx << self.shift)
        inst = self._decode(address)
        handler = False if inst is None else self._make_handler(inst, address)
        self.handlers[idx] = handler
        length = self.max_length
        if handler is not False:
            self.costs[idx], self.keys[idx], self.names[idx], length = self._describe(inst)
            self.insts[idx] = inst
            if self._sink is not None:
                self._sink.note_inst(address, inst)
        self.lengths[idx] = length
        offset = idx << self.shift
        if offset < self._lo:
            self._lo = offset
        if offset + length > self._hi:
            self._hi = offset + length
        return handler

    def _decode(self, address: int):
        """The decoded instruction at ``address``, or ``None`` when the
        bytes there must run through ``cpu.step()``."""
        raise NotImplementedError

    def _make_handler(self, inst, pc: int):
        """The specialized closure for ``inst`` at ``pc``, or ``False``."""
        raise NotImplementedError

    def _describe(self, inst) -> tuple:
        """``(static cycles, stats-mix key, mnemonic, length in bytes)``."""
        raise NotImplementedError

    # -- the run -----------------------------------------------------------

    def run(self, limit: int) -> None:
        """Execute up to ``limit`` steps; raises on halt or trap.

        Returns normally only when the step budget ran out — the CPU's
        ``run()`` wrapper turns that into :class:`StepLimitExceeded`.
        """
        cpu = self.cpu
        traced = any(getattr(cpu, flag) for flag in self.trace_flags)
        hook = cpu.on_execute
        sink = None
        if hook is not None and not traced:
            batch_sink = getattr(hook, "batch_sink", None)
            if batch_sink is not None:
                sink = batch_sink()
        memory = cpu.memory
        self._watch_prev = memory.write_watch
        memory.write_watch = self._note_write
        try:
            if traced or (hook is not None and sink is None):
                self._run_exact(limit)
            else:
                self._sink = sink
                self._run_batched(limit, sink)
        finally:
            self._sink = None
            memory.write_watch = self._watch_prev
            # the closures refer back to the engine: drop them now rather
            # than leave a large cycle to the garbage collector
            self.handlers.clear()

    def _run_batched(self, limit: int, sink=None) -> None:
        raise NotImplementedError

    def _run_exact(self, limit: int) -> None:
        raise NotImplementedError
