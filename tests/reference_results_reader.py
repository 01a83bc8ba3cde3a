"""The line-by-line readers that `cassure.diagnostics.read_json_lines`
replaced, kept as oracles: one `json.loads` and one `read_record` call per
line.  They split the text with `str.splitlines`, which also ends a line at
U+0085, U+2028, U+2029, "\\r", "\\x0b", "\\x0c" and "\\x1c"-"\\x1e"; the new
reader ends a line at "\\n" only."""

import json

from cassure import CassureError, LifecycleError, VerificationResult
from cassure.diagnostics import malformed, read_record
from cassure.engine import _check_result
from cassure.lifecycle import MonitorEvent


def reference_results(text):
    """`cassure.engine.parse_results` as it read result records before."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            res = read_record(VerificationResult, json.loads(line))
            _check_result(res)
            out.append(res)
        except (KeyError, TypeError, ValueError) as e:
            raise CassureError(
                malformed(f"result record on line {lineno}", e)) from None
    return out


def reference_events(text):
    """`cassure.lifecycle.parse_monitor_events` as it read events before,
    but for one intended difference: an event that `MonitorEvent` rejects
    (an unknown kind, a confidence value outside [0,1]) is reported as a
    malformed record on its line too, where the old reader raised the bare
    `LifecycleError` of the check, without a line."""
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            events.append(read_record(MonitorEvent, json.loads(line)))
        except (KeyError, ValueError, TypeError, LifecycleError) as e:
            raise LifecycleError(
                malformed(f"event record on line {lineno}", e)) from None
    return events
