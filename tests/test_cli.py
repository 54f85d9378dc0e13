"""Instance-file parsing and the command-line surface."""

import json

import pytest

import brmult.cli as cli
from brmult.cli import ParseError, parse_instance, run
from brmult.verify import VerificationReport

BLOCK = """\
# rank-one module over a two-by-two block of fiber monomials
field Q
ring base x y fiber u v
module free 1 shifts (0,0)
submodule H fiberdeg 1 gens x*u, x*v, y*u, y*v
"""

LOCAL_SQUARES = """\
field Q
ring base x y fiber
submodule I fiberdeg 0 gens x^2, y^2
"""


def write(tmp_path, text, name="inst.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_block_instance():
    inst = parse_instance(BLOCK)
    assert inst.ring.base == ("x", "y")
    assert inst.ring.fiber == ("u", "v")
    sub = inst.submodule(0)
    assert sub.fiber_degree == 1
    assert len(sub.gens) == 4
    assert inst.module.free.rank == 1


def test_parse_rejects_bad_prime():
    with pytest.raises(ParseError) as err:
        parse_instance("field Fp 4\nring x y ;\n")
    assert "not prime" in str(err.value)


def test_parse_rejects_mixed_fiber_degrees():
    text = (
        "field Q\n"
        "ring base x y fiber T\n"
        "submodule H fiberdeg 1 gens x*T + y\n"
    )
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert "term y" in str(err.value)
    assert "line 3" in str(err.value)


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_instance(
            "field Q\nring base x y fiber\nsubmodule I fiberdeg 0 gens x + * y\n"
        )
    msg = str(err.value)
    assert "line 3" in msg
    assert "column" in msg


def test_parse_rejects_directive_order():
    with pytest.raises(ParseError):
        parse_instance("ring base x y fiber\nfield Q\n")
    with pytest.raises(ParseError):
        parse_instance("field Q\nfield Q\nring base x y fiber\n")


def test_parse_empty_generator_list_allowed():
    inst = parse_instance(
        "field Q\nring base x y fiber T\nsubmodule H fiberdeg 0 gens\n"
    )
    assert inst.submodule(0).gens == ()


def test_br_json_golden(tmp_path):
    path = write(tmp_path, BLOCK)
    code, out = run(["br", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["leading_form"] == {
        "e[3,0]": "3",
        "e[2,1]": "1",
        "e[1,2]": "0",
        "e[0,3]": "0",
    }
    assert doc["r"] == "3"
    assert doc["r_source"] == "krull-1"
    assert doc["degree_estimate"] == "3"
    assert doc["certificates"]["grid_enlarged"] is False
    # every numeric table entry is a decimal string, never a float
    assert all(isinstance(v, str) for v in doc["table"]["values"])


def test_lambda_command(tmp_path):
    path = write(tmp_path, BLOCK)
    code, out = run(["lambda", path, "--grid", "3"])
    assert code == 0
    doc = json.loads(out)
    values = doc["table"]["values"]
    assert doc["table"]["extents"] == ["4", "4"]
    # row-major: lambda(2, 3) sits at flat index 2*4 + 3
    assert values[2 * 4 + 3] == "18"


def test_samuel_command(tmp_path):
    path = write(tmp_path, LOCAL_SQUARES)
    code, out = run(["samuel", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["e"] == "4"
    assert doc["k"] == "4"
    assert doc["r_source"] == "krull"


def test_spread_command(tmp_path):
    path = write(tmp_path, LOCAL_SQUARES)
    code, out = run(["spread", path])
    assert code == 0
    assert json.loads(out)["spread_positive"] is True
    one_axis = write(
        tmp_path,
        "field Q\nring base x y fiber\nsubmodule I fiberdeg 0 gens x\n",
        "axis.txt",
    )
    code, out = run(["spread", one_axis])
    assert code == 0
    assert json.loads(out)["spread_positive"] is False


def test_csv_output(tmp_path):
    path = write(tmp_path, BLOCK)
    code, out = run(["lambda", path, "--grid", "2", "--csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,n,value"
    assert lines[1] == "0,0,0"
    # row for (p, n) = (2, 1): lambda = (2+1+1)*2*3/2 = 12
    assert "2,1,12" in lines
    assert len(lines) == 1 + 3 * 3


def test_verify_all_passes(tmp_path):
    path = write(
        tmp_path,
        "field Q\nring base x y fiber T\n"
        "submodule H1 fiberdeg 0 gens x, y\n"
        "submodule H2 fiberdeg 0 gens x, y\n",
    )
    code, out = run(["verify", "all", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [c["check"] for c in doc["verification"]] == [
        "mixed-operator-formula",
        "telescoping-factor-sum",
        "mixed-factor-sum",
        "degree-bound",
        "mixed-symmetry",
        "filtration-inclusions",
    ]


def test_verify_all_with_one_submodule(tmp_path):
    code, out = run(["verify", "all", write(tmp_path, BLOCK)])
    assert code == 0
    assert [c["check"] for c in json.loads(out)["verification"]] == [
        "telescoping-factor-sum",
        "degree-bound",
    ]


def test_unknown_check_error_document(tmp_path):
    code, out = run(["verify", "bogus", write(tmp_path, BLOCK)])
    assert code == 1
    assert json.loads(out) == {
        "error": {
            "kind": "value",
            "message": "unknown check 'bogus'; choose from operator,"
            " telescoping, factor-sum, degree-bound, symmetry, inclusions or all",
        }
    }


def test_verify_single_check(tmp_path):
    path = write(tmp_path, BLOCK)
    code, out = run(["verify", "telescoping", path, "--grid", "3"])
    assert code == 0
    doc = json.loads(out)
    assert [c["check"] for c in doc["verification"]] == [
        "telescoping-factor-sum"
    ]


def test_verify_failure_exits_two(tmp_path, monkeypatch):
    def broken(module, h, grid=4):
        return VerificationReport(
            check="telescoping-factor-sum",
            instance="forced failure",
            left=(("cell", 1),),
            right=(("cell", 2),),
            passed=False,
            witness="cell disagrees",
        )

    monkeypatch.setattr(cli, "check_telescoping", broken)
    path = write(tmp_path, BLOCK)
    code, out = run(["verify", "telescoping", path])
    assert code == 2
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["verification"][0]["witness"] == "cell disagrees"


def test_degree_bound_failure_exits_two_with_a_witness(tmp_path):
    # the fit at r = 1 raises DegreeExceedsError; the check must still
    # report, from the table at the enlarged grid
    path = write(tmp_path, BLOCK)
    code, out = run(["verify", "degree-bound", path, "--r", "1"])
    assert code == 2
    doc = json.loads(out)
    assert doc["passed"] is False
    [check] = doc["verification"]
    assert check["check"] == "degree-bound"
    assert check["left"] == [["degree estimate", "3"]]
    assert check["right"] == [["declared r", "1"]]
    assert check["witness"] == "difference of order (1, 1) at (6, 6) is 7, not 0"


@pytest.mark.parametrize(
    "command, subs, message",
    [
        ("lambda", "gens", "H has no generators but M is nonzero"),
        ("br", "gens", "H has no generators but M is nonzero"),
        (
            "mixed",
            "gens x, y\nsubmodule H2 fiberdeg 0 gens",
            "a power of a generatorless H acts on a nonzero M",
        ),
    ],
    ids=["lambda", "br", "mixed"],
)
def test_support_condition_error_kind(tmp_path, command, subs, message):
    path = write(
        tmp_path, f"field Q\nring base x y fiber T\nsubmodule H fiberdeg 0 {subs}\n"
    )
    code, out = run([command, path])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "support-condition",
        "message": message,
    }


def test_cutoff_too_small_error_kind(tmp_path):
    path = write(tmp_path, BLOCK)
    code, out = run(["br", path, "--cutoff", "0"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "cutoff-too-small"
    # an infinite quotient still reports cutoff-exceeded
    principal = write(
        tmp_path,
        "field Q\nring base x y fiber T\n"
        "submodule H1 fiberdeg 0 gens x\nsubmodule H2 fiberdeg 0 gens y\n",
        "principal.txt",
    )
    code, out = run(["verify", "all", principal])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "cutoff-exceeded"


@pytest.mark.parametrize(
    "command, ring, sub",
    [
        ("samuel", "ring base x y fiber", "I fiberdeg 0 gens x, y"),
        ("br", "ring base x y fiber u", "H fiberdeg 1 gens x*u, y*u"),
    ],
    ids=("samuel", "br"),
)
def test_hilbert_probe_error_kind(tmp_path, command, ring, sub):
    # k[x,y]/(x^12, y^12) is Artinian; its Hilbert function still falls at
    # the probe bound, so no r is resolved and no e-value is printed.
    path = write(
        tmp_path,
        f"field Q\n{ring}\nmodule free 1 shifts (0,0)\nrel x^12\nrel y^12\n"
        f"submodule {sub}\n",
    )
    code, out = run([command, path])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "hilbert-probe"


def test_parse_error_kind(tmp_path):
    path = write(tmp_path, "field Fp 4\nring base x y fiber\n")
    code, out = run(["br", path])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["kind"] == "parse"
    assert "not prime" in doc["error"]["message"]


def test_io_error_kind():
    code, out = run(["br", "/nonexistent/instance.txt"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "io"


def test_unknown_command_and_flags(tmp_path):
    path = write(tmp_path, BLOCK)
    code, out = run(["frobnicate", path])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "value"
    code, out = run(["br", path, "--unknown-flag"])
    assert code == 1
    code, out = run(["br", path, "--grid"])
    assert code == 1


def test_degree_exceeds_error_kind(tmp_path):
    path = write(tmp_path, BLOCK)
    code, out = run(["br", path, "--r", "2"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "degree-exceeds"


def test_modp_override_matches_rationals(tmp_path):
    path = write(tmp_path, BLOCK)
    code_q, out_q = run(["br", path])
    code_p, out_p = run(["br", path, "--modp", "2147483647"])
    assert code_q == code_p == 0
    doc_q, doc_p = json.loads(out_q), json.loads(out_p)
    assert doc_q["leading_form"] == doc_p["leading_form"]
    assert doc_q["table"] == doc_p["table"]


def test_output_is_byte_deterministic(tmp_path):
    path = write(tmp_path, BLOCK)
    _, serial = run(["br", path])
    _, again = run(["br", path])
    assert serial == again


def test_mixed_command(tmp_path):
    path = write(
        tmp_path,
        "field Q\nring base x y fiber T\n"
        "submodule H1 fiberdeg 0 gens x, y^2\n"
        "submodule H2 fiberdeg 0 gens x^2, y\n",
    )
    code, out = run(["mixed", path])
    assert code == 0
    lead = json.loads(out)["leading_form"]
    assert lead["e[2,0,0]"] == "2"
    assert lead["e[1,1,0]"] == "1"
    assert lead["e[0,2,0]"] == "2"


def test_dims_command(tmp_path):
    path = write(tmp_path, BLOCK)
    code, out = run(["dims", path, "--grid", "2"])
    assert code == 0
    doc = json.loads(out)
    values = doc["table"]["values"]
    # free rank-1 module over k[x,y;u,v]: dim (a, n) = (a+1)(n+1)
    assert values[0] == "1"
    assert values[-1] == "9"
