"""Canonical JSON and its SHA-256: the one content digest of the project.

Every report digest (memory, serve, sample, shard, halo trace, insights),
the simulation-config digest and the metrics/trace export digests hash the
same byte form: sorted keys, no whitespace.  A report's digest covers the
report minus its own digest field (and any other field it leaves out):
:func:`report_digest`.  The metrics registry and the
timeline also write that form to disk as a newline-terminated file, and
their digests are defined over the file bytes, hence ``newline``.

This module imports nothing from the package, so every layer may use it.
"""

from __future__ import annotations

import hashlib
import json


def canonical_json(payload, newline: bool = False) -> str:
    """Sorted-key compact JSON, with a trailing newline when asked."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return text + "\n" if newline else text


def canonical_digest(payload, newline: bool = False) -> str:
    """SHA-256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(
        canonical_json(payload, newline).encode()).hexdigest()


def _without(payload: dict, fields) -> dict:
    out = dict(payload)
    for name in fields:
        head, _, rest = name.partition(".")
        if not rest:
            out.pop(head, None)
        elif isinstance(out.get(head), dict):
            out[head] = _without(out[head], (rest,))
    return out


def report_digest(report: dict, *omit: str) -> str:
    """:func:`canonical_digest` of ``report`` without the fields ``omit``
    names; a dotted name (``manifest.source_digest``) leaves out a field of
    a nested dict."""
    return canonical_digest(_without(report, omit))
