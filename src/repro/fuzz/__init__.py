"""Differential fuzzing subsystem (docs/TESTING.md).

Three cooperating pieces:

* :mod:`repro.fuzz.generate` — a deterministic, seed-driven program
  generator.  Every emitted program type-checks and terminates under a
  small step budget by construction.
* :mod:`repro.fuzz.oracle` — the differential oracle: runs one program
  through an execution-configuration matrix derived from declared axes
  (original vs split, engine, in-process channel vs the real socket
  transport, batching, tracing) and diffs outputs, step counts
  and transcript shapes against the reference configuration.
* :mod:`repro.fuzz.reduce` — a delta-debugging minimizer that shrinks a
  diverging program to a minimal ``.mj`` repro for ``tests/fuzz_corpus/``.

:mod:`repro.fuzz.selfcheck` wires them together against a deliberately
planted evaluator bug, proving the harness can actually catch one.
The ``repro fuzz`` CLI (:mod:`repro.cli`) drives campaigns.  Import
the submodules directly: the package itself loads nothing.
"""
