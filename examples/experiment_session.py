"""The experiment-service front end: one Session, three surfaces.

:class:`~repro.harness.ExperimentSession` is the one public entry
point to the execution service.  This example walks its three
surfaces over the same tiny design grid:

1. ``run(spec)`` — memoized single-spec execution, the interactive
   surface every experiment uses;
2. ``stream(generator)`` — lazy streaming: specs are *generated*, not
   materialized, and the scheduler holds at most ``max(1, workers) +
   backlog`` of them in memory — the surface for million-spec grids;
3. ``sweep(list)`` — the batch surface: dedup, fan-back, one outcome
   per input position.

All three drive the same streaming :class:`~repro.harness.scheduler.
AsyncScheduler`, share one result cache, and produce bit-identical
numbers — demonstrated at the end.

Run:
    PYTHONPATH=src python examples/experiment_session.py
"""

import dataclasses
import shutil
import tempfile

from repro.harness import ExperimentSession

MAX_INSTRUCTIONS = 15_000


def spec_grid(session, seeds):
    """A generator — the streaming surface never sees a full list."""
    for seed in seeds:
        base = session.spec("mcf", "vcfr", drc_entries=64)
        yield dataclasses.replace(base, seed=seed)


def main():
    cache_dir = tempfile.mkdtemp(prefix="session-example-")
    try:
        with ExperimentSession(max_instructions=MAX_INSTRUCTIONS,
                               cache_dir=cache_dir, backlog=2) as session:
            # Surface 1: single spec, memoized.
            result = session.run(session.spec("mcf", "baseline"))
            print("run():    mcf/baseline  ipc %.3f  (%d instructions)"
                  % (result.ipc, result.instructions))

            # Surface 2: stream a generated grid, bounded memory.
            print("stream(): seed sweep over mcf/vcfr@64")
            streamed = []
            for outcome in session.stream(spec_grid(session, range(1, 5))):
                streamed.append(outcome)
                print("  seed %d  ipc %.3f  drc miss %.4f%s"
                      % (outcome.spec.seed, outcome.result.ipc,
                         outcome.result.drc_miss_rate,
                         "  [cached]" if outcome.cached else ""))

            # Surface 3: batch sweep of the same grid — every spec now
            # comes straight from the shared on-disk cache.
            batch = session.sweep(list(spec_grid(session, range(1, 5))))
            assert all(outcome.cached for outcome in batch)
            assert [b.result.as_dict() for b in batch] == \
                [s.result.as_dict() for s in streamed]
            stats = session.cache.stats()
            print("sweep():  %d specs, all cache hits "
                  "(cache: %d hits, %d writes) — surfaces agree"
                  % (len(batch), stats["hits"], stats["writes"]))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
