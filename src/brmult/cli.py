"""Command line interface.

An instance file declares the field, the ring, the module presentation,
named submodules, and optional settings, one declaration per line:

    field Q                      (or: field Fp 7)
    ring base x y fiber u v      (either list may be empty, not both)
    module free 1 shifts (0,0)
    rel x^2 ; y                  (one polynomial per free generator)
    submodule H fiberdeg 1 gens x*u, x*v, y*u, y*v
    set r 3                      (also: grid, cutoff)

Commands: dims, lambda, br, mixed, samuel, spread, verify <check>|all.
Pure commands use the first declared submodule, mixed ones the first
two. Output is a JSON document on stdout with every integer rendered as
a decimal string; --csv emits just the length table. Exit codes: 0 for
success or a passing verification, 2 for a failing verification, 1 for
any error (reported as a structured ``error`` object).

Output is byte-identical across runs for the same input; nothing time-
or path-dependent is ever serialized.
"""

from __future__ import annotations

import json
import sys

from .fields import FieldError, PrimeField, QQ, RationalField, Value
from .filtration import check_filtration_inclusions
from .modules import (
    CutoffExceeded,
    CutoffTooSmall,
    FreeModuleSpec,
    HilbertProbeError,
    ModulePresentation,
    ZeroModuleError,
    slice_dims_up_to,
)
from .multiplicity import (
    KInstabilityError,
    LocalQuery,
    ProductQuery,
    SupportConditionError,
    br_multiplicities,
    generalized_samuel_report,
    grid_bounds,
    pure_table,
    resolve_r,
)
from .polyfit import (
    DegreeExceedsError,
    GridTooSmallError,
    LengthTable,
    StabilizationError,
    WINDOW,
)
from .rings import GradingError, Polynomial, RingSpec, SubmoduleSpec
from .verify import (
    VerificationReport,
    check_br_degree_bound,
    check_mixed_factor_sum,
    check_mixed_operator_formula,
    check_symmetry,
    check_telescoping,
)

__all__ = ["ParseError", "InstanceFile", "parse_instance", "run", "main"]

# Instance settings that the queries take as keyword arguments.
SETTINGS = ("r", "grid", "cutoff")


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class InstanceFile(Value):
    """A parsed instance: everything a command needs to run."""

    field: object
    ring: RingSpec
    module: ModulePresentation
    submodules: tuple  # ((name, SubmoduleSpec), ...) in declaration order
    settings: dict  # r / grid / cutoff, each possibly absent

    def submodule(self, index: int, command: str = "this command") -> SubmoduleSpec:
        """The ``index``-th declared submodule, which ``command`` reads."""
        if index >= len(self.submodules):
            raise ValueError(
                f"{command} needs {index + 1} submodule declaration(s), but the"
                f" instance declares {len(self.submodules)}"
            )
        return self.submodules[index][1]


class _PolyScanner:
    """Recursive-descent parser for integer-coefficient polynomials."""

    def __init__(self, text: str, line: int, col_base: int, ring: RingSpec):
        self.text = text
        self.line = line
        self.col_base = col_base
        self.ring = ring
        self.pos = 0

    def error(self, message, pos=None):
        where = self.pos if pos is None else pos
        raise ParseError(self.line, self.col_base + where + 1, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Polynomial:
        value = self.expr()
        if self.peek() != "":
            self.error(f"unexpected {self.text[self.pos]!r}")
        return value

    def expr(self) -> Polynomial:
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        elif self.peek() == "+":
            self.pos += 1
        value = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Polynomial:
        value = self.power()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.power()
        return value

    def power(self) -> Polynomial:
        value = self.atom()
        if self.peek() == "^":
            self.pos += 1
            return value ** self.integer("exponent")
        return value

    def atom(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return value
        if ch.isdigit():
            return self.ring.one * self.integer("coefficient")
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            names = self.ring.base + self.ring.fiber
            if name not in names:
                self.error(f"unknown variable {name!r}", start)
            mono = [0] * self.ring.nvars
            mono[names.index(name)] = 1
            return self.ring.monomial(tuple(mono))
        if ch == "":
            self.error("unexpected end of polynomial")
        self.error(f"unexpected {ch!r}")

    def integer(self, what) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error(f"expected {what}")
        return int(self.text[start : self.pos])


def _parse_poly(text, line, col_base, ring) -> Polynomial:
    value = _PolyScanner(text, line, col_base, ring).parse()
    if value.is_zero():
        raise ParseError(line, col_base + 1, "zero polynomial not allowed here")
    return value


def _parse_shifts(rest, line, col_base):
    shifts = []
    pos = 0
    while pos < len(rest):
        while pos < len(rest) and rest[pos] in " \t":
            pos += 1
        if rest[pos] != "(":
            raise ParseError(line, col_base + pos + 1, "expected '(a,n)' shift")
        end = rest.find(")", pos)
        if end < 0:
            raise ParseError(line, col_base + pos + 1, "unclosed shift")
        body = rest[pos + 1 : end]
        parts = body.split(",")
        if len(parts) != 2:
            raise ParseError(
                line, col_base + pos + 1, "shift needs exactly (a,n)"
            )
        try:
            shifts.append((int(parts[0].strip()), int(parts[1].strip())))
        except ValueError:
            raise ParseError(
                line, col_base + pos + 1, f"bad shift integers {body!r}"
            )
        pos = end + 1
    return shifts


def parse_instance(text: str, field_override=None) -> InstanceFile:
    field = None
    ring = None
    module = None
    submodules = []
    settings = {}
    seen_names = set()
    line_no = indent = 0

    def error(message) -> ParseError:
        """A ParseError at the start of the current declaration."""
        return ParseError(line_no, indent + 1, message)

    def integer(token, what) -> int:
        try:
            return int(token)
        except ValueError:
            raise error(f"bad {what} {token!r}")

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        tokens = line.split()
        head = tokens[0]

        if head == "field":
            if ring is not None:
                raise error("field must precede ring")
            if field is not None:
                raise error("duplicate field line")
            if len(tokens) == 2 and tokens[1] == "Q":
                field = QQ
            elif len(tokens) == 3 and tokens[1] == "Fp":
                p = integer(tokens[2], "prime")
                try:
                    field = PrimeField(p)
                except FieldError as exc:
                    raise error(str(exc))
            else:
                raise error("expected 'field Q' or 'field Fp <prime>'")
        elif head == "ring":
            if ring is not None:
                raise error("duplicate ring line")
            if "base" not in tokens or "fiber" not in tokens:
                raise error("expected 'ring base <names...> fiber <names...>'")
            bi = tokens.index("base")
            fi = tokens.index("fiber")
            if bi != 1 or fi < bi:
                raise error("expected base list before fiber list")
            base = tuple(tokens[bi + 1 : fi])
            fiber = tuple(tokens[fi + 1 :])
            use_field = field_override or field or QQ
            try:
                ring = RingSpec(use_field, base, fiber)
            except GradingError as exc:
                raise error(str(exc))
        elif head == "module":
            if ring is None:
                raise error("module needs a ring first")
            if module is not None:
                raise error("duplicate module line")
            if len(tokens) < 4 or tokens[1] != "free" or tokens[3] != "shifts":
                raise error("expected 'module free <count> shifts (a,n) ...'")
            rank = integer(tokens[2], "generator count")
            rest_col = line.index("shifts") + len("shifts")
            shifts = _parse_shifts(line[rest_col:], line_no, rest_col)
            if len(shifts) != rank:
                raise error(f"declared {rank} generators but {len(shifts)} shifts")
            try:
                module = ModulePresentation(FreeModuleSpec(ring, tuple(shifts)))
            except GradingError as exc:
                raise ParseError(line_no, rest_col + 1, str(exc))
        elif head == "rel":
            if module is None:
                raise error("rel needs a module first")
            body_col = line.index("rel") + len("rel")
            body = line[body_col:]
            pieces = body.split(";")
            if len(pieces) != module.free.rank:
                raise ParseError(
                    line_no, body_col + 1,
                    f"relation needs {module.free.rank} entries separated by ';'",
                )
            entries = []
            col = body_col
            for piece in pieces:
                if piece.strip() == "0" or not piece.strip():
                    entries.append(ring.zero)
                else:
                    entries.append(_parse_poly(piece, line_no, col, ring))
                col += len(piece) + 1
            try:
                relations = module.relations + (tuple(entries),)
                module = ModulePresentation(module.free, relations)
            except GradingError as exc:
                raise ParseError(line_no, body_col + 1, str(exc))
        elif head == "submodule":
            if ring is None:
                raise error("submodule needs a ring first")
            if len(tokens) < 5 or tokens[2] != "fiberdeg" or tokens[4] != "gens":
                raise error("expected 'submodule <name> fiberdeg <d> gens <polys>'")
            name = tokens[1]
            if name in seen_names:
                raise error(f"duplicate submodule {name!r}")
            fiberdeg = integer(tokens[3], "fiber degree")
            gens_col = line.index("gens", line.index("fiberdeg")) + len("gens")
            body = line[gens_col:]
            gens = []
            col = gens_col
            if body.strip():
                for piece in body.split(","):
                    gens.append(_parse_poly(piece, line_no, col, ring))
                    col += len(piece) + 1
            try:
                sub = SubmoduleSpec(ring, fiberdeg, tuple(gens))
            except GradingError as exc:
                raise ParseError(line_no, gens_col + 1, str(exc))
            seen_names.add(name)
            submodules.append((name, sub))
        elif head == "set":
            if len(tokens) != 3 or tokens[1] not in SETTINGS:
                raise error("expected 'set r|grid|cutoff <int>'")
            settings[tokens[1]] = integer(tokens[2], "integer")
        else:
            raise error(f"unknown declaration {head!r}")

    if ring is None:
        raise ParseError(0, 0, "missing ring declaration")
    if module is None:
        module = ModulePresentation(FreeModuleSpec(ring, ((0, 0),)))
    return InstanceFile(ring.field, ring, module, tuple(submodules), settings)


def _query_block(command, inst: InstanceFile) -> dict:
    """What ``command`` ran on: the declarations, the submodules it reads
    and the instance file's ``set`` lines."""
    field = inst.field
    return {
        "command": command,
        "field": "Q" if isinstance(field, RationalField) else f"Fp {field.p}",
        "ring": {"base": inst.ring.base, "fiber": inst.ring.fiber},
        "module": {
            "rank": inst.module.free.rank,
            "shifts": inst.module.free.shifts,
            "relations": [list(map(str, rel)) for rel in inst.module.relations],
        },
        "submodules": {
            name: {"fiberdeg": sub.fiber_degree, "gens": list(map(str, sub.gens))}
            for name, sub in inst.submodules
        },
        "used": [name for name, _ in inst.submodules[: _SUBMODULES[command]]],
        "settings": inst.settings,
    }


def _leading_block(leading) -> dict:
    return {"e[" + ",".join(map(str, alpha)) + "]": e for alpha, e in leading.entries}


def _plain(value):
    """``value`` as the JSON document holds it: a ``Value`` (a length
    table, a verification report) as the dict of its fields, a tuple as a
    list, and every int but a bool as its decimal string."""
    if isinstance(value, Value):
        value = dict(zip(value._fields, value._values()))
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return value


def _emit(doc) -> str:
    return json.dumps(_plain(doc), sort_keys=True, indent=2) + "\n"


def _csv(table: LengthTable) -> str:
    lines = [",".join(table.axes) + ",value"]
    for flat, value in enumerate(table.values):
        lines.append(",".join(map(str, (*table.point(flat), value))))
    return "\n".join(lines) + "\n"


_ERROR_KINDS = (
    (ParseError, "parse"),
    (SupportConditionError, "support-condition"),
    (KInstabilityError, "k-instability"),
    (CutoffExceeded, "cutoff-exceeded"),
    (CutoffTooSmall, "cutoff-too-small"),
    (StabilizationError, "stabilization"),
    (GridTooSmallError, "grid-too-small"),
    (DegreeExceedsError, "degree-exceeds"),
    (ZeroModuleError, "zero-module"),
    (HilbertProbeError, "hilbert-probe"),
    (FieldError, "field"),
    (GradingError, "grading"),
    (OSError, "io"),
    (ValueError, "value"),
)


def _error_doc(exc) -> dict:
    kinds = (tag for klass, tag in _ERROR_KINDS if isinstance(exc, klass))
    kind = next(kinds, "internal")
    return {"error": {"kind": kind, "message": str(exc)}}


def _query_kwargs(settings) -> dict:
    """The settings given, as query keyword arguments."""
    return {key: settings[key] for key in SETTINGS if key in settings}


def _query(inst, settings, count, command) -> ProductQuery:
    """The product query of ``command`` over the first ``count`` submodules."""
    subs = tuple(inst.submodule(i, command) for i in range(count))
    return ProductQuery(inst.module, subs, **_query_kwargs(settings))


def _certificates(leading, enlarged, **extra) -> dict:
    return {
        "stabilization_base": leading.base_point,
        "window": WINDOW,
        "grid_enlarged": enlarged,
        **extra,
    }


def _cmd_dims(command, inst, settings, check_name):
    gmax = settings.get("grid", 6)
    # one walk per fiber degree n, transposed into the (a, n) row-major table
    columns = [
        slice_dims_up_to(inst.module, n, None, (), gmax) for n in range(gmax + 1)
    ]
    values = tuple(v for row in zip(*columns) for v in row)
    table = LengthTable(("a", "n"), (0, 0), (gmax + 1, gmax + 1), values)
    return 0, {"table": table}, table


def _cmd_lambda(command, inst, settings, check_name):
    query = _query(inst, settings, 1, command)
    r, r_source = resolve_r(query.module, query.r)
    table, stops = pure_table(query, grid_bounds(r, query.grid)[0])
    doc = {
        "r": r,
        "r_source": r_source,
        "table": table,
        "certificates": {"finiteness_stops": stops},
    }
    return 0, doc, table


def _cmd_fit(command, inst, settings, check_name):
    """``br`` on the first submodule, ``mixed`` on the first two."""
    query = _query(inst, settings, _SUBMODULES[command], command)
    report = br_multiplicities(query)
    doc = {
        "r": report.r,
        "r_source": report.r_source,
        "table": report.table,
        "leading_form": _leading_block(report.leading),
        "degree_estimate": report.degree_estimate,
        "certificates": _certificates(
            report.leading, report.enlarged, finiteness_stops=report.stops
        ),
    }
    return 0, doc, report.table


def _cmd_samuel(command, inst, settings, check_name):
    """``samuel`` reports e(I, M) with its fit, ``spread`` whether e > 0."""
    query = LocalQuery(
        inst.module, inst.submodule(0, command), **_query_kwargs(settings)
    )
    report = generalized_samuel_report(query)
    doc = {"e": report.e, "r": report.r, "k": report.k}
    if command == "spread":
        doc["spread_positive"] = report.e > 0
        return 0, doc, None
    doc.update(
        r_source=report.r_source,
        table=report.table,
        leading_form=_leading_block(report.leading),
        certificates=_certificates(
            report.leading, report.enlarged, k_agreement=(report.e, report.e_next_k)
        ),
    )
    return 0, doc, report.table


def _inclusion_report(inst, grid) -> VerificationReport:
    command = "verify inclusions"
    h1, h2 = inst.submodule(0, command), inst.submodule(1, command)
    left = []
    right = []
    witness = None
    memo = {}
    for p in range(grid + 1):
        for q in range(grid + 1):
            for item in check_filtration_inclusions(h1, h2, p, q, memo):
                label = f"(p,q)=({p},{q}) {item.part} nu={item.nu}"
                left.append((label, int(item.passed)))
                right.append((label + " expected", 1))
                if not item.passed and witness is None:
                    witness = (
                        f"{label}: generator {item.generator} of bidegree"
                        f" {item.bidegree} escapes the larger level"
                    )
    return VerificationReport(
        "filtration-inclusions",
        f"pairs up to p,q <= {grid}",
        tuple(left),
        tuple(right),
        witness is None,
        witness,
    )


# Check name -> check(inst, settings, grid, command), in ``verify all``
# order, where ``command`` names the check in errors. Each looks its
# function up when called, so wrappers rebound here see it.
_CHECKS = {
    "operator": lambda inst, s, grid, cmd: check_mixed_operator_formula(
        _query(inst, s, 2, cmd)
    ),
    "telescoping": lambda inst, s, grid, cmd: check_telescoping(
        inst.module, inst.submodule(0, cmd), grid=grid
    ),
    "factor-sum": lambda inst, s, grid, cmd: check_mixed_factor_sum(
        inst.module, inst.submodule(0, cmd), inst.submodule(1, cmd), grid=grid
    ),
    "degree-bound": lambda inst, s, grid, cmd: check_br_degree_bound(
        _query(inst, s, 1, cmd)
    ),
    "symmetry": lambda inst, s, grid, cmd: check_symmetry(_query(inst, s, 2, cmd)),
    "inclusions": lambda inst, s, grid, cmd: _inclusion_report(inst, grid),
}


def _cmd_verify(command, inst, settings, check_name):
    if check_name == "all":
        names = ["telescoping", "degree-bound"]
        if len(inst.submodules) >= 2:
            names = list(_CHECKS)
    elif check_name in _CHECKS:
        names = [check_name]
    else:
        raise ValueError(
            f"unknown check {check_name!r}; choose from"
            f" {', '.join(_CHECKS)} or all"
        )
    grid = settings.get("grid", 3)
    reports = [
        _CHECKS[name](inst, settings, grid, f"verify {name}") for name in names
    ]
    passed = all(rep.passed for rep in reports)
    return (0 if passed else 2), {"verification": reports, "passed": passed}, None


# Command name -> handler(command, inst, settings, check_name), which returns
# (exit code, JSON document without its query block, table for --csv, or
# None for spread and verify).
_HANDLERS = {
    "dims": _cmd_dims,
    "lambda": _cmd_lambda,
    "br": _cmd_fit,
    "mixed": _cmd_fit,
    "samuel": _cmd_samuel,
    "spread": _cmd_samuel,
    "verify": _cmd_verify,
}
COMMANDS = tuple(_HANDLERS)
# Command name -> how many submodules it reads, the first ones declared.
_SUBMODULES = {
    "dims": 0,
    "lambda": 1,
    "br": 1,
    "mixed": 2,
    "samuel": 1,
    "spread": 1,
    "verify": 2,
}


def run(argv):
    """Execute one CLI command; returns (exit_code, output_text)."""
    try:
        args = iter(argv)
        csv, positional, overrides = False, [], {}
        for arg in args:
            if arg == "--csv":
                csv = True
            elif not arg.startswith("--"):
                positional.append(arg)
            elif arg[2:] not in SETTINGS + ("modp",):
                raise ValueError(f"unknown flag {arg!r}")
            else:
                try:
                    overrides[arg[2:]] = int(next(args))
                except StopIteration:
                    raise ValueError(f"{arg} needs a value")
                except ValueError:
                    raise ValueError(f"{arg} needs an integer value")

        names = ", ".join(COMMANDS)
        if not positional:
            raise ValueError(
                "usage: brmult <command> [check] <instance-file> [flags];"
                f" commands: {names}"
            )
        command, *rest = positional
        if command not in COMMANDS:
            raise ValueError(f"unknown command {command!r}; choose from {names}")
        verify = command == "verify"
        if len(rest) != (2 if verify else 1):
            raise ValueError(
                "usage: brmult verify <check-name>|all <instance-file>"
                if verify
                else f"usage: brmult {command} <instance-file> [flags]"
            )
        check_name = rest[0] if verify else None

        with open(rest[-1], "r", encoding="utf-8") as handle:
            text = handle.read()
        modp = overrides.pop("modp", None)
        inst = parse_instance(text, None if modp is None else PrimeField(modp))
        settings = {**inst.settings, **overrides}
        if settings.get("grid", 0) < 0:
            raise ValueError("grid must be nonnegative")
        if csv and command in ("spread", "verify"):
            raise ValueError(f"--csv not available for {command!r}")

        code, doc, table = _HANDLERS[command](command, inst, settings, check_name)
        if csv:
            return code, _csv(table)
        doc["query"] = _query_block(command, inst)
        return code, _emit(doc)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports all
        return 1, _emit(_error_doc(exc))


def main() -> None:
    code, output = run(sys.argv[1:])
    sys.stdout.write(output)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
