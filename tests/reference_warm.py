"""Reference semantics of the warm spans: the per-record walks.

:meth:`~repro.core.pipeline.Pipeline._warm_mem_span` and
:meth:`~repro.core.pipeline.Pipeline._warm_front_span` read the trace
arrays through flag-byte tables, ``bytes.translate`` masks,
:func:`itertools.compress` and :meth:`~repro.trace.format.Trace.mem_rank`.
These walks visit every record in order and test the flag bits
themselves, the way the warm phase has always been defined: a memory
record's address is found by counting the memory flags before it, and a
taken branch's target is read from its static instruction.
``tests/test_trace_reads.py`` holds the fast spans to them.
"""

from repro.trace.format import FLAG_COND_BRANCH, FLAG_MEM, FLAG_TAKEN


def warm_mem_span(pipeline, trace, start: int, end: int) -> None:
    """Each new I-line an instruction fetch, each memory record a data
    access, over records ``[start, end)``."""
    pcs, flags, mem_addrs = trace.pcs, trace.flags, trace.mem_addrs
    hierarchy = pipeline.hierarchy
    last_line = pipeline._last_ifetch_line
    # The address of the next memory record: one per memory flag so far.
    rank = sum(1 for i in range(start) if flags[i] & FLAG_MEM)
    for i in range(start, end):
        pc = pcs[i]
        line = pc >> 6
        if line != last_line:
            hierarchy.warm_ifetch(pc)
            last_line = line
        if flags[i] & FLAG_MEM:
            hierarchy.warm_data(mem_addrs[rank])
            rank += 1
    pipeline._last_ifetch_line = last_line


def warm_front_span(pipeline, trace, start: int, end: int) -> None:
    """Every conditional branch of records ``[start, end)`` trains the
    predictor, the BTB (when taken) and, with PUBS, the slice tracker."""
    pcs, flags = trace.pcs, trace.flags
    program = pipeline.program
    predictor = pipeline.predictor
    pubs_on = pipeline.config.pubs.enabled
    for i in range(start, end):
        f = flags[i]
        if not f & FLAG_COND_BRANCH:
            continue
        pc = pcs[i]
        taken = bool(f & FLAG_TAKEN)
        predicted = predictor.predict(pc)
        predictor.update(pc, taken, predicted)
        if taken:
            pipeline.btb.install(pc, program.at(pc).target)
        if pubs_on:
            pipeline.slice_tracker.on_branch_resolved(
                pc, correct=predicted == taken)
