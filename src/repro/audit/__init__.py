"""Resumable archive audits: assess every field in a bundle tree.

The out-of-core layer on top of the chunked bundle format
(:mod:`repro.io.bundle`): ``cuzchecker audit <dir>`` walks a directory
tree of bundles, streams every field chunk-by-chunk through a warm
:class:`~repro.service.session.CheckerSession`, checkpoints the exact
accumulator state after every chunk (atomic write-temp + replace), and
resumes a killed run bit-identically to an uninterrupted one.
"""

from repro.audit.checkpoint import AuditCheckpoint, decode_state, encode_state
from repro.audit.runner import (
    AuditInterrupted,
    AuditResumeError,
    discover_bundles,
    resolve_audit_workers,
    run_audit,
)

__all__ = [
    "AuditCheckpoint",
    "AuditInterrupted",
    "AuditResumeError",
    "decode_state",
    "encode_state",
    "discover_bundles",
    "resolve_audit_workers",
    "run_audit",
]
