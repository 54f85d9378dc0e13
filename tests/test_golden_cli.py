"""Every golden CLI command still prints the frozen bytes, with the frozen
exit code (``tests/freeze_golden.py`` wrote them)."""

import json

from freeze_golden import GOLDEN, golden_commands, outcome


def test_golden_outputs_are_unchanged():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(golden_commands())
    changed = [line for line, frozen in golden.items() if outcome(line) != frozen]
    assert changed == []
