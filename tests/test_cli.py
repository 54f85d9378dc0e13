"""Instance-file parsing and the command-line surface."""

import json
from pathlib import Path

import pytest

import brmult.cli as cli
from brmult.cli import ParseError, parse_instance, run
from brmult.verify import VerificationReport

INSTANCES = Path(__file__).resolve().parent.parent / "demos" / "instances"

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
    # k[x,y]/((x+y)^12, y^12) is Artinian; a module with a polynomial
    # relation still probes its Hilbert function, which falls at the probe
    # bound, so no r is resolved and no e-value is printed.
    path = write(
        tmp_path,
        f"field Q\n{ring}\nmodule free 1 shifts (0,0)\nrel (x+y)^12\nrel y^12\n"
        f"submodule {sub}\n",
    )
    code, out = run([command, path])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "hilbert-probe"


def test_monomial_artinian_module_resolves_r_by_its_pole(tmp_path):
    # k[x,y;u]/(x^12, y^12) with H = (xu, yu): the series' pole at T = 1
    # has order 1, so r = 0 with no probe. The table settles only at large
    # p, so the default grid fails the fit, and grid 28 gives e[0,0] = 144,
    # the length of k[x,y]/(x^12, y^12).
    path = write(
        tmp_path,
        "field Q\nring base x y fiber u\nmodule free 1 shifts (0,0)\n"
        "rel x^12\nrel y^12\nsubmodule H fiberdeg 1 gens x*u, y*u\n",
    )
    code, out = run(["br", path])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "degree-exceeds"
    code, out = run(["br", path, "--grid", "28"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["r"], doc["r_source"]) == ("0", "krull-1")
    assert doc["leading_form"] == {"e[0,0]": "144"}


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
    for flag in ("--unknown-flag", "--json"):
        code, out = run(["br", path, flag])
        assert code == 1
    code, out = run(["br", path, "--grid"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "telescoping"],
        ["verify", "factor-sum"],
        ["verify", "inclusions"],
        ["lambda"],
        ["dims"],
        ["br"],
    ],
)
@pytest.mark.parametrize("source", ["flag", "setting"])
def test_negative_grid_is_a_value_error(tmp_path, argv, source):
    # Unchecked, a negative grid makes the verify checks compare nothing and
    # pass, and gives the table commands a misleading grid-too-small error.
    text = BLOCK + "submodule m fiberdeg 0 gens x, y\n"
    if source == "flag":
        code, out = run([*argv, write(tmp_path, text), "--grid", "-1"])
    else:
        code, out = run([*argv, write(tmp_path, text + "set grid -1\n")])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "value",
        "message": "grid must be nonnegative",
    }


@pytest.mark.parametrize(
    "argv, text",
    [(["br"], BLOCK), (["verify", "all"], BLOCK), (["samuel"], LOCAL_SQUARES)],
    ids=("br", "verify", "samuel"),
)
@pytest.mark.parametrize("source", ["flag", "setting"])
def test_negative_cutoff_is_a_value_error(tmp_path, argv, text, source):
    # Unchecked, a negative cutoff was reported as cutoff-too-small, as if
    # a larger one were a remedy rather than the input being out of range.
    if source == "flag":
        code, out = run([*argv, write(tmp_path, text), "--cutoff", "-1"])
    else:
        code, out = run([*argv, write(tmp_path, text + "set cutoff -1\n")])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "value",
        "message": "cutoff must be nonnegative",
    }


@pytest.mark.parametrize("argv", [["verify", "all"], ["spread"]])
def test_csv_is_rejected_before_the_query_runs(tmp_path, monkeypatch, argv):
    # spread and verify print no table. Rejecting --csv only after the
    # query had run made ``verify all ... --csv`` run every check first.
    # Every slice walk and table row folds Hilbert series, so none may be
    # folded.
    import brmult.modules as modules

    folds = []
    fold = modules._fold
    monkeypatch.setattr(modules, "_fold", lambda *a: folds.append(a) or fold(*a))
    pair = BLOCK + "submodule m fiberdeg 0 gens x, y\n"
    text = LOCAL_SQUARES if argv == ["spread"] else pair
    code, out = run([*argv, write(tmp_path, text), "--csv"])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "value",
        "message": f"--csv not available for {argv[0]!r}",
    }
    assert folds == []


def test_dims_walks_one_series_per_fiber_degree(monkeypatch):
    # dims at the default grid 6 reads its 7 x 7 table off one walk per
    # fiber degree, not one walk per (a, n) cell (49)
    import brmult.modules as modules

    folds = []
    fold = modules._fold
    monkeypatch.setattr(modules, "_fold", lambda *a: folds.append(a) or fold(*a))
    code, _ = run(["dims", str(INSTANCES / "min_deg_one_block.txt")])
    assert code == 0
    assert len(folds) == 7
    assert [fiber_deg for _, fiber_deg, _ in folds] == list(range(7))


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


def test_quadric_cone_multiplicity_is_the_degree_of_f():
    # M = k[x,y,z;u]/(x^2 + y^2 + z^2): a polynomial relation, so every
    # walk ranks its multiples; dim M_(a, n) = 2a + 1 and e[2,0] = deg f
    cone = str(INSTANCES / "quadric_cone.txt")
    code, out = run(["br", cone])
    assert code == 0
    doc = json.loads(out)
    assert (doc["r"], doc["r_source"]) == ("2", "krull-1")
    assert doc["leading_form"] == {"e[2,0]": "2", "e[1,1]": "0", "e[0,2]": "0"}
    code, out = run(["dims", cone, "--grid", "4"])
    assert code == 0
    table = json.loads(out)["table"]
    assert table["axes"] == ["a", "n"] and table["extents"] == ["5", "5"]
    values = [int(v) for v in table["values"]]
    assert values == [2 * a + 1 for a in range(5) for n in range(5)]


HEADER = "field Q\nring base x y fiber u v\n"
MODULE = HEADER + "module free 1 shifts (0,0)\n"
GENS = HEADER + "submodule H fiberdeg 1 gens "

# (instance text, error kind, line, column, message fragment). Columns
# point at the declaration, or at the shift or polynomial at fault.
PARSE_ERRORS = [
    (HEADER + "module free 1 shifts 0,0", "parse", 3, 22, "expected '(a,n)' shift"),
    (HEADER + "module free 1 shifts (0,0", "parse", 3, 22, "unclosed shift"),
    (HEADER + "module free 1 shifts (0,0,1)", "parse", 3, 22, "exactly (a,n)"),
    (HEADER + "module free 1 shifts (a,0)", "parse", 3, 22, "bad shift integers 'a,0'"),
    (HEADER + "module free 2 shifts (0,0)", "parse", 3, 1, "declared 2 generators"),
    ("field R\n", "parse", 1, 1, "expected 'field Q' or 'field Fp <prime>'"),
    ("field Q\nfield Q\n", "parse", 2, 1, "duplicate field line"),
    ("ring base x fiber u\nfield Q\n", "parse", 2, 1, "field must precede ring"),
    ("field Fp seven\n", "parse", 1, 1, "bad prime 'seven'"),
    ("field Q\nring base x y\n", "parse", 2, 1, "expected 'ring base <names...>"),
    ("field Q\nring fiber u base x\n", "parse", 2, 1, "base list before fiber list"),
    (HEADER + "ring base x fiber u\n", "parse", 3, 1, "duplicate ring line"),
    ("ring base x x fiber u\n", "parse", 1, 1, "duplicate variable names"),
    ("ring base fiber\n", "parse", 1, 1, "ring needs at least one variable"),
    ("module free 1 shifts (0,0)\n", "parse", 1, 1, "module needs a ring first"),
    (MODULE + "module free 1 shifts (0,0)\n", "parse", 4, 1, "duplicate module line"),
    (HEADER + "module free 1 (0,0)\n", "parse", 3, 1, "expected 'module free <count>"),
    (HEADER + "module free one shifts (0,0)\n", "parse", 3, 1, "bad generator count"),
    (HEADER + "rel x\n", "parse", 3, 1, "rel needs a module first"),
    (MODULE + "rel x ; y\n", "parse", 4, 4, "relation needs 1 entries"),
    (MODULE + "rel  x + z\n", "parse", 4, 10, "unknown variable 'z'"),
    ("submodule H fiberdeg 1 gens x\n", "parse", 1, 1, "submodule needs a ring first"),
    (HEADER + "submodule H gens x*u\n", "parse", 3, 1, "expected 'submodule <name>"),
    (GENS + "x*u\n" + GENS[len(HEADER):] + "y*u\n", "parse", 4, 1, "duplicate submodule 'H'"),
    (HEADER + "submodule H fiberdeg one gens x*u\n", "parse", 3, 1, "bad fiber degree"),
    (GENS + "x*u +\n", "parse", 3, 34, "unexpected end of polynomial"),
    (GENS + "(x + y*u\n", "parse", 3, 37, "expected ')'"),
    (GENS + "x*u)\n", "parse", 3, 32, "unexpected ')'"),
    (GENS + "x^\n", "parse", 3, 31, "expected exponent"),
    (GENS + "x*u - u*x\n", "parse", 3, 28, "zero polynomial not allowed here"),
    (GENS + "x @ u\n", "parse", 3, 31, "unexpected '@'"),
    (HEADER + "set window 2\n", "parse", 3, 1, "expected 'set r|grid|cutoff <int>'"),
    (HEADER + "set r two\n", "parse", 3, 1, "bad integer 'two'"),
    (HEADER + "  frobnicate 3\n", "parse", 3, 3, "unknown declaration 'frobnicate'"),
    ("field Q\n", "parse", 0, 0, "missing ring declaration"),
    # gradings are checked on the line that declares them
    (MODULE + "rel x*u + y\n", "parse", 4, 4, "mixed bidegrees in one polynomial"),
    (HEADER + "module free 2 shifts (0,0) (0,0)\nrel x ; u\n", "parse", 4, 4, "not bihomogeneous"),
    (HEADER + "module free 1 shifts (-1,0)\n", "parse", 3, 21, "negative shift (-1, 0)"),
]


@pytest.mark.parametrize(
    "text, kind, line, col, fragment",
    PARSE_ERRORS,
    ids=[f"{i}-{case[4][:24]}" for i, case in enumerate(PARSE_ERRORS)],
)
def test_parse_errors_name_kind_line_and_column(text, kind, line, col, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert cli._error_doc(err.value)["error"]["kind"] == kind
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).startswith(f"line {line}, column {col}: ")
    assert fragment in str(err.value)


def test_parse_signs_parentheses_and_coefficients():
    inst = parse_instance(GENS + "-(x + 2*y)*u, +3*x^2*v - (y - x)^2*v, (u)\n")
    x, y, u, v = inst.ring.gens()
    assert inst.submodule(0).gens == (
        (x + y * 2) * u * -1,
        x * x * v * 3 - (y - x) * (y - x) * v,
        u,
    )


def test_parse_zero_relation_entries():
    inst = parse_instance(
        HEADER + "module free 2 shifts (0,0) (0,1)\nrel x ; 0\nrel  0 ;-2*y^2\n"
    )
    x, y, _, _ = inst.ring.gens()
    zero = inst.ring.zero
    assert inst.module.relations == ((x, zero), (zero, y * y * -2))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mixed"], "mixed needs 2 submodule declaration(s), but the instance declares 1"),
        (
            ["verify", "inclusions"],
            "verify inclusions needs 2 submodule declaration(s), but the instance"
            " declares 1",
        ),
        (
            ["verify", "symmetry"],
            "verify symmetry needs 2 submodule declaration(s), but the instance"
            " declares 1",
        ),
    ],
)
def test_a_command_short_of_submodules_is_a_value_error(tmp_path, argv, message):
    # the file parsed, so no line is at fault: the error names the command
    # and both counts rather than a parse position
    code, out = run([*argv, write(tmp_path, BLOCK)])
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "value", "message": message}


def test_the_fit_window_is_not_a_setting(tmp_path):
    from brmult.multiplicity import ProductQuery
    from brmult.polyfit import WINDOW

    assert cli.SETTINGS == ("r", "grid", "cutoff")
    path = write(tmp_path, BLOCK)
    code, out = run(["br", path, "--window", "3"])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "value",
        "message": "unknown flag '--window'",
    }
    code, out = run(["br", write(tmp_path, BLOCK + "set window 2\n", "set.txt")])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "parse"
    inst = parse_instance(BLOCK)
    with pytest.raises(TypeError):
        ProductQuery(inst.module, (inst.submodule(0),), window=2)
    code, out = run(["br", path])
    assert json.loads(out)["certificates"]["window"] == str(WINDOW) == "2"


@pytest.mark.parametrize(
    "argv",
    [
        ["br", str(INSTANCES / "min_deg_one_block.txt")],
        ["mixed", str(INSTANCES / "quadric_cone.txt")],
    ],
    ids=["success", "error"],
)
@pytest.mark.parametrize("entry", ["-m brmult", "cli.main"])
def test_entry_points_print_what_run_returns(argv, entry):
    import os
    import subprocess
    import sys

    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    if entry == "-m brmult":
        command = [sys.executable, "-m", "brmult", *argv]
    else:
        command = [sys.executable, "-c", "from brmult.cli import main; main()", *argv]
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == run(argv)


@pytest.mark.parametrize(
    "check, witness",
    [
        # e(m^2) = 4 against C(2,0) + C(2,1) + C(2,2) mixed e-values of 1
        ("operator", "e[2,0](H1*H2): left 5 != right 4"),
        ("symmetry", "e[0,2,0](H1,H2): left 1 != right 2"),
    ],
)
def test_pair_check_failure_exits_two_with_a_witness(
    tmp_path, monkeypatch, check, witness
):
    # the second report each check fits (the product's, or the swapped
    # pair's) gets its first e-value raised by one, so the sides disagree
    import brmult.verify as verify
    from brmult.multiplicity import MultiplicityReport
    from brmult.polyfit import LeadingForm

    fits = []
    real = verify.br_multiplicities

    def tampered(query):
        report = real(query)
        fits.append(report)
        if len(fits) < 2:
            return report
        lf = report.leading
        (alpha, e), *rest = lf.entries
        lf = LeadingForm(lf.r, lf.axes, ((alpha, e + 1), *rest), lf.base_point)
        fields = report._values()[2:]
        return MultiplicityReport(report.table, lf, *fields)

    monkeypatch.setattr(verify, "br_multiplicities", tampered)
    code, out = run(["verify", check, str(INSTANCES / "max_ideal_pair.txt")])
    assert code == 2
    doc = json.loads(out)
    assert doc["passed"] is False
    [report] = doc["verification"]
    assert report["passed"] is False
    assert report["witness"] == witness


@pytest.mark.parametrize("modp", ["0", "1", "4", "-7"])
def test_modp_that_is_not_prime_is_a_field_error(tmp_path, modp):
    code, out = run(["br", write(tmp_path, BLOCK), "--modp", modp])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "field",
        "message": f"{modp} is not prime",
    }


def test_failing_inclusion_document(monkeypatch):
    # one generator escapes at (p, q) = (1, 0); every other test passes
    from brmult.filtration import InclusionWitness

    def one_escape(h1, h2, p, q, memo):
        if (p, q) == (1, 0):
            return [InclusionWitness("a", 0, False, "x*y", (2, 0))]
        return [InclusionWitness("a", 0, True)]

    monkeypatch.setattr(cli, "check_filtration_inclusions", one_escape)
    path = str(INSTANCES / "max_ideal_pair.txt")
    code, out = run(["verify", "inclusions", path, "--grid", "1"])
    assert code == 2
    doc = json.loads(out)
    assert doc["passed"] is False
    [report] = doc["verification"]
    assert report["passed"] is False
    label = "(p,q)=(1,0) a nu=0"
    assert report["witness"] == (
        f"{label}: generator x*y of bidegree (2, 0) escapes the larger level"
    )
    assert report["left"] == [
        ["(p,q)=(0,0) a nu=0", "1"],
        ["(p,q)=(0,1) a nu=0", "1"],
        [label, "0"],
        ["(p,q)=(1,1) a nu=0", "1"],
    ]
    assert {value for _, value in report["right"]} == {"1"}
