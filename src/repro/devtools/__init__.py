"""repro.devtools — correctness tooling for the invariants the tests assume.

The repo's headline guarantees (byte-for-byte identical incident and
correlation histories across thread interleavings and kill/resume) rest on
conventions that span the whole tree: simulated-time-only code paths,
``shared_pool()``-only execution, locked store mutation, registry-sourced
keyspace names and context-managed spans.  This package makes them
machine-checked:

* :mod:`repro.devtools.lint` — ``repro lint``, an AST-based static analyzer
  with five project-specific checkers, pragma suppression, table/JSON output
  and a nonzero exit on findings (the CI gate);
* :mod:`repro.devtools.sanitize` — an opt-in runtime sanitizer
  (``REPRO_SANITIZE=1``): tracked locks that flag lock-order inversions,
  task scopes that flag locks leaking across pool tasks, and guarded-field
  instrumentation that flags mutations outside the declared lock.
"""

from .lint import (
    CHECKERS,
    Finding,
    guarded_fields_of,
    lint_paths,
    lint_source,
    render_findings,
)
from .sanitize import (
    SanitizerViolation,
    instrument_guarded,
    is_enabled,
    recording,
    reset_violations,
    task_scope,
    track_lock,
    violations,
)

__all__ = [
    "CHECKERS",
    "Finding",
    "lint_paths",
    "lint_source",
    "render_findings",
    "guarded_fields_of",
    "SanitizerViolation",
    "is_enabled",
    "track_lock",
    "task_scope",
    "instrument_guarded",
    "violations",
    "reset_violations",
    "recording",
]
