"""Exact-output gate: every query's output against values frozen at the seed.

A check takes the query's exit code and raw stdout and returns None when
the output is right, or a one-line reason when it is not. A fast wrong
answer therefore counts as a failed query, never as a speed-up.
"""

from __future__ import annotations

import hashlib
import json


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_digest(expected: dict, code: int, stdout: bytes):
    """Exit code and stdout bytes equal the frozen ``{"exit", "sha256"}``."""
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    if digest(stdout) != expected["sha256"]:
        return "stdout differs from the frozen bytes"
    return None


def _differing_keys(expected: dict, actual: dict, skip=()) -> list:
    keys = (set(expected) | set(actual)) - set(skip)
    return sorted(k for k in keys if expected.get(k) != actual.get(k))


def _parse(stdout: bytes):
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def check_bytes(expected: bytes, code: int, stdout: bytes):
    """Exit code 0 and stdout byte-identical to ``expected``."""
    if code != 0:
        return f"exit code {code}, expected 0"
    if stdout == expected:
        return None
    doc = _parse(stdout)
    if doc is None:
        return "stdout is not a JSON object"
    keys = _differing_keys(json.loads(expected), doc)
    return "stdout differs in " + (", ".join(keys) or "formatting")


def check_same_fit(oracle: bytes, code: int, stdout: bytes):
    """Every key except ``query`` equals the oracle document's.

    That covers r, the table, the finiteness stops, the leading form
    (the e-values), the degree estimate and the certificates.
    """
    if code != 0:
        return f"exit code {code}, expected 0"
    doc = _parse(stdout)
    if doc is None:
        return "stdout is not a JSON object"
    keys = _differing_keys(json.loads(oracle), doc, skip=("query",))
    return ("differs from the oracle in " + ", ".join(keys)) if keys else None
