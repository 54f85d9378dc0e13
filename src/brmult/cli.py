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


def _s(value) -> str:
    return str(int(value))


def _field_tag(field) -> str:
    if isinstance(field, RationalField):
        return "Q"
    return f"Fp {field.p}"


def _query_block(command, inst: InstanceFile, used) -> dict:
    subs = {}
    for name, sub in inst.submodules:
        subs[name] = {
            "fiberdeg": _s(sub.fiber_degree),
            "gens": [str(g) for g in sub.gens],
        }
    return {
        "command": command,
        "field": _field_tag(inst.field),
        "ring": {"base": list(inst.ring.base), "fiber": list(inst.ring.fiber)},
        "module": {
            "rank": _s(inst.module.free.rank),
            "shifts": [[_s(a), _s(n)] for a, n in inst.module.free.shifts],
            "relations": [
                [str(entry) for entry in rel] for rel in inst.module.relations
            ],
        },
        "submodules": subs,
        "used": list(used),
        "settings": {key: _s(val) for key, val in sorted(inst.settings.items())},
    }


def _table_block(table: LengthTable) -> dict:
    return {
        "axes": list(table.axes),
        "origin": [_s(v) for v in table.origin],
        "extents": [_s(v) for v in table.extents],
        "values": [_s(v) for v in table.values],
    }


def _leading_block(leading) -> dict:
    out = {}
    for alpha, value in leading.entries:
        key = "e[" + ",".join(str(a) for a in alpha) + "]"
        out[key] = _s(value)
    return out


def _verification_block(report: VerificationReport) -> dict:
    return {
        "check": report.check,
        "instance": report.instance,
        "passed": report.passed,
        "left": [[label, _s(v)] for label, v in report.left],
        "right": [[label, _s(v)] for label, v in report.right],
        "witness": report.witness,
    }


def _emit(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv(table: LengthTable) -> str:
    lines = [",".join(table.axes) + ",value"]
    for flat, value in enumerate(table.values):
        coords = table.point(flat)
        lines.append(",".join(_s(c) for c in coords) + "," + _s(value))
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
    kind = "internal"
    for klass, tag in _ERROR_KINDS:
        if isinstance(exc, klass):
            kind = tag
            break
    return {"error": {"kind": kind, "message": str(exc)}}


def _query_kwargs(settings) -> dict:
    """The settings given, as query keyword arguments."""
    return {key: settings[key] for key in SETTINGS if key in settings}


def _query(inst, settings, count, command) -> ProductQuery:
    """The product query of ``command`` over the first ``count`` submodules."""
    subs = tuple(inst.submodule(i, command) for i in range(count))
    return ProductQuery(inst.module, subs, **_query_kwargs(settings))


def _used(inst, count) -> tuple:
    return tuple(name for name, _ in inst.submodules[:count])


def _certificates(leading, enlarged, **extra) -> dict:
    return {
        "stabilization_base": [_s(v) for v in leading.base_point],
        "window": _s(WINDOW),
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
    doc = {
        "query": _query_block(command, inst, ()),
        "table": _table_block(table),
    }
    return 0, doc, table


def _cmd_lambda(command, inst, settings, check_name):
    query = _query(inst, settings, 1, command)
    r, r_source = resolve_r(query.module, query.r)
    table, stops = pure_table(query, grid_bounds(r, query.grid)[0])
    doc = {
        "query": _query_block(command, inst, _used(inst, 1)),
        "r": _s(r),
        "r_source": r_source,
        "table": _table_block(table),
        "certificates": {"finiteness_stops": [_s(v) for v in stops]},
    }
    return 0, doc, table


def _cmd_fit(command, inst, settings, check_name):
    """``br`` on the first submodule, ``mixed`` on the first two."""
    count = 2 if command == "mixed" else 1
    report = br_multiplicities(_query(inst, settings, count, command))
    doc = {
        "query": _query_block(command, inst, _used(inst, count)),
        "r": _s(report.r),
        "r_source": report.r_source,
        "table": _table_block(report.table),
        "leading_form": _leading_block(report.leading),
        "degree_estimate": _s(report.degree_estimate),
        "certificates": _certificates(
            report.leading,
            report.enlarged,
            finiteness_stops=[_s(v) for v in report.stops],
        ),
    }
    return 0, doc, report.table


def _cmd_samuel(command, inst, settings, check_name):
    """``samuel`` reports e(I, M) with its fit, ``spread`` whether e > 0."""
    query = LocalQuery(
        inst.module, inst.submodule(0, command), **_query_kwargs(settings)
    )
    report = generalized_samuel_report(query)
    doc = {
        "query": _query_block(command, inst, _used(inst, 1)),
        "e": _s(report.e),
        "r": _s(report.r),
        "k": _s(report.k),
    }
    if command == "spread":
        doc["spread_positive"] = report.e > 0
        return 0, doc, None
    doc.update(
        r_source=report.r_source,
        table=_table_block(report.table),
        leading_form=_leading_block(report.leading),
        certificates=_certificates(
            report.leading,
            report.enlarged,
            k_agreement=[_s(report.e), _s(report.e_next_k)],
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
                left.append((label, 1 if item.passed else 0))
                right.append((label + " expected", 1))
                if not item.passed and witness is None:
                    witness = (
                        f"{label}: generator {item.generator} of bidegree"
                        f" {item.bidegree} escapes the larger level"
                    )
    passed = all(a[1] == b[1] for a, b in zip(left, right))
    return VerificationReport(
        "filtration-inclusions",
        f"pairs up to p,q <= {grid}",
        tuple(left),
        tuple(right),
        passed,
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
    doc = {
        "query": _query_block(command, inst, _used(inst, 2)),
        "verification": [_verification_block(rep) for rep in reports],
        "passed": all(rep.passed for rep in reports),
    }
    return (0 if doc["passed"] else 2), doc, None


# Command name -> handler(command, inst, settings, check_name), which returns
# (exit code, JSON document, table for --csv, or None for spread and verify).
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


def run(argv):
    """Execute one CLI command; returns (exit_code, output_text)."""
    try:
        args = list(argv)
        flags = {"csv": False}
        positional = []
        overrides = {}
        i = 0
        while i < len(args):
            arg = args[i]
            if arg == "--csv":
                flags["csv"] = True
            elif arg.startswith("--") and arg[2:] in SETTINGS + ("modp",):
                if i + 1 >= len(args):
                    raise ValueError(f"{arg} needs a value")
                try:
                    overrides[arg[2:]] = int(args[i + 1])
                except ValueError:
                    raise ValueError(f"{arg} needs an integer value")
                i += 1
            elif arg.startswith("--"):
                raise ValueError(f"unknown flag {arg!r}")
            else:
                positional.append(arg)
            i += 1

        if not positional:
            raise ValueError(
                "usage: brmult <command> [check] <instance-file> [flags];"
                f" commands: {', '.join(COMMANDS)}"
            )
        command = positional[0]
        if command not in COMMANDS:
            raise ValueError(
                f"unknown command {command!r}; choose from {', '.join(COMMANDS)}"
            )
        check_name = None
        if command == "verify":
            if len(positional) != 3:
                raise ValueError(
                    "usage: brmult verify <check-name>|all <instance-file>"
                )
            check_name = positional[1]
            path = positional[2]
        else:
            if len(positional) != 2:
                raise ValueError(
                    f"usage: brmult {command} <instance-file> [flags]"
                )
            path = positional[1]

        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        field_override = None
        if "modp" in overrides:
            field_override = PrimeField(overrides.pop("modp"))
        inst = parse_instance(text, field_override)
        settings = dict(inst.settings)
        settings.update(overrides)
        if settings.get("grid", 0) < 0:
            raise ValueError("grid must be nonnegative")
        if flags["csv"] and command in ("spread", "verify"):
            raise ValueError(f"--csv not available for {command!r}")

        handler = _HANDLERS[command]
        code, doc, table = handler(command, inst, settings, check_name)

        if flags["csv"]:
            return code, _csv(table)
        return code, _emit(doc)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports all
        return 1, _emit(_error_doc(exc))


def main() -> None:
    code, output = run(sys.argv[1:])
    sys.stdout.write(output)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
