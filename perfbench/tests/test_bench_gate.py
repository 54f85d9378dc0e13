import json

import pytest

import gate
from workloads import EXPECTED

ORACLE = (EXPECTED / "oracle-nonmono-q.json").read_bytes()
BLOCK_VS_MAX = (EXPECTED / "block-vs-max.json").read_bytes()


def edited(text: bytes, edit) -> bytes:
    doc = json.loads(text)
    edit(doc)
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def bump_table(doc):
    values = doc["table"]["values"]
    values[-1] = str(int(values[-1]) + 1)


def bump_e_value(doc):
    key = sorted(doc["leading_form"])[-1]
    doc["leading_form"][key] = str(int(doc["leading_form"][key]) + 1)


def test_frozen_outputs_pass_their_own_gates():
    assert gate.check_bytes(ORACLE, 0, ORACLE) is None
    assert gate.check_same_fit(ORACLE, 0, ORACLE) is None
    assert gate.check_bytes(BLOCK_VS_MAX, 0, BLOCK_VS_MAX) is None


def test_oracle_check_ignores_only_the_query_block():
    other_gens = edited(ORACLE, lambda d: d["query"]["submodules"]["H"]["gens"].reverse())
    assert gate.check_same_fit(ORACLE, 0, other_gens) is None


@pytest.mark.parametrize("edit, key", [(bump_table, "table"), (bump_e_value, "leading_form")])
def test_gates_reject_a_perturbed_table_or_e_value(edit, key):
    for frozen in (ORACLE, BLOCK_VS_MAX):
        wrong = edited(frozen, edit)
        assert key in gate.check_bytes(frozen, 0, wrong)
        assert key in gate.check_same_fit(frozen, 0, wrong)
        assert gate.check_digest({"exit": 0, "sha256": gate.digest(frozen)}, 0, wrong)


def test_gates_reject_a_wrong_exit_code_or_non_json():
    assert gate.check_same_fit(ORACLE, 1, ORACLE)
    assert gate.check_bytes(ORACLE, 2, ORACLE)
    assert gate.check_same_fit(ORACLE, 0, b"not json")
    expected = {"exit": 1, "sha256": gate.digest(b"error document")}
    assert gate.check_digest(expected, 1, b"error document") is None
    assert gate.check_digest(expected, 0, b"error document")
