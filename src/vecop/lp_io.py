"""CPLEX-LP-format text export/import for MilpModel.

The writer is canonical (terms sorted by variable name, repr float
formatting) so export -> read -> export is byte-stable. The reader accepts
exactly the dialect the writer produces: the headers "Minimize", "Subject
To", "Bounds", "Binaries", "Generals" and "End", one statement per line,
and "\\" comments. A MilpModel is always minimized, so the reader rejects
a "Maximize" section.
"""

from __future__ import annotations

import re

from .formulation import BINARY, CONTINUOUS, INTEGER, Constraint, MilpModel, Variable

_TOKEN_RE = re.compile(
    r"<=|>=|=|\+|-|:"
    r"|[0-9]+\.?[0-9]*(?:[eE][+-]?[0-9]+)?"
    r"|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
    r"|[A-Za-z_][A-Za-z0-9_.]*"
)


def _tokenize(line: str, line_no: int) -> list[str]:
    tokens = _TOKEN_RE.findall(line)
    if "".join(tokens) != "".join(line.split()):
        raise LpParseError(line_no, f"unexpected character in {line!r}")
    return tokens

__all__ = ["export_lp", "read_lp", "LpParseError", "structurally_equal"]


class LpParseError(ValueError):
    def __init__(self, line_no: int, msg: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {msg}")


def _fmt(value: float) -> str:
    return repr(float(value))


def _expr(coeffs: dict[str, float]) -> str:
    parts = []
    for name in sorted(coeffs):
        c = coeffs[name]
        if c == 0.0:
            continue
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(c))} {name}")
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def export_lp(model: MilpModel) -> str:
    lines = ["Minimize"]
    lines.append(f" obj: {_expr(model.objective)}")
    lines.append("Subject To")
    for c in model.constraints:
        sense = {"<=": "<=", ">=": ">=", "=": "="}[c.sense]
        lines.append(f" {c.name}: {_expr(c.coeffs)} {sense} {_fmt(c.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        if v.kind == BINARY:
            continue
        if v.upper is None:
            lines.append(f" {v.name} >= {_fmt(v.lower)}")
        else:
            lines.append(f" {_fmt(v.lower)} <= {v.name} <= {_fmt(v.upper)}")
    for section, kind in (("Binaries", BINARY), ("Generals", INTEGER)):
        names = [v.name for v in model.variables if v.kind == kind]
        if names:
            lines.append(section)
            for i in range(0, len(names), 8):
                lines.append(" " + " ".join(names[i : i + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"


_HEADERS = ("Minimize", "Subject To", "Bounds", "Binaries", "Generals", "End")


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _parse_expr(tokens: list[str], line_no: int) -> dict[str, float]:
    coeffs: dict[str, float] = {}
    sign = 1.0
    coef: float | None = None
    for tok in tokens:
        if tok in ("+", "-"):
            if coef is not None:
                raise LpParseError(line_no, f"dangling coefficient before {tok!r}")
            sign = 1.0 if tok == "+" else -sign
        elif _is_number(tok):
            if coef is not None:
                raise LpParseError(line_no, f"two consecutive numbers near {tok!r}")
            coef = sign * float(tok)
            sign = 1.0
        else:
            c = coef if coef is not None else sign
            coeffs[tok] = coeffs.get(tok, 0.0) + c
            coef = None
            sign = 1.0
    if coef is not None and coef != 0.0:
        raise LpParseError(line_no, "expression ends with a dangling coefficient")
    return coeffs


def read_lp(text: str) -> MilpModel:
    """Read the dialect `export_lp` writes, one statement per line.

    Anything else, such as another spelling of a header, a row wrapped onto
    a second line or a `free` bound, raises LpParseError naming its line.
    """
    objective: dict[str, float] | None = None
    constraints: list[Constraint] = []
    bounds: dict[str, tuple[float, float | None]] = {}
    kinds: dict[str, str] = {}
    order: dict[str, None] = {}  # variable names in order of first use

    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        if line.lower() in ("maximize", "max"):
            raise LpParseError(line_no, "a maximized objective is not supported")
        if line in _HEADERS:
            section = line
            if section == "End":
                break
            continue
        if section == "Minimize":
            toks = _tokenize(line, line_no)
            if objective is not None or toks[:2] != ["obj", ":"]:
                raise LpParseError(line_no, "the objective must be one 'obj: <expr>' line")
            objective = _parse_expr(toks[2:], line_no)
            names = objective
        elif section == "Subject To":
            toks = _tokenize(line, line_no)
            if len(toks) < 2 or toks[1] != ":":
                raise LpParseError(line_no, "constraint without a name")
            sense_idx = next((i for i, t in enumerate(toks) if t in ("<=", ">=", "=")), None)
            if sense_idx is None:
                raise LpParseError(line_no, "constraint without a sense")
            lhs = _parse_expr(toks[2:sense_idx], line_no)
            rhs_toks = toks[sense_idx + 1 :]
            rhs_sign = 1.0
            if rhs_toks and rhs_toks[0] == "-":
                rhs_sign, rhs_toks = -1.0, rhs_toks[1:]
            if len(rhs_toks) != 1 or not _is_number(rhs_toks[0]):
                raise LpParseError(line_no, "constraint right-hand side must be a number")
            constraints.append(
                Constraint(toks[0], lhs, toks[sense_idx], rhs_sign * float(rhs_toks[0]))
            )
            names = lhs
        elif section == "Bounds":
            parts = line.split()
            if len(parts) == 3 and parts[1] == ">=" and _is_number(parts[2]):
                bounds[parts[0]] = (float(parts[2]), None)
                names = [parts[0]]
            elif (
                len(parts) == 5
                and parts[1] == parts[3] == "<="
                and _is_number(parts[0])
                and _is_number(parts[4])
            ):
                bounds[parts[2]] = (float(parts[0]), float(parts[4]))
                names = [parts[2]]
            else:
                raise LpParseError(line_no, f"unrecognized bounds line: {raw.strip()!r}")
        elif section in ("Binaries", "Generals"):
            names = line.split()
            for name in names:
                kinds[name] = BINARY if section == "Binaries" else INTEGER
        else:
            raise LpParseError(line_no, "content before the objective section")
        order.update(dict.fromkeys(names))

    variables = []
    for name in order:
        kind = kinds.get(name, CONTINUOUS)
        if kind == BINARY:
            variables.append(Variable(name, BINARY, 0.0, 1.0))
        else:
            lo, up = bounds.get(name, (0.0, None))
            variables.append(Variable(name, kind, lo, up))
    return MilpModel(tuple(variables), tuple(constraints), objective or {}, {})


def structurally_equal(m1: MilpModel, m2: MilpModel, tol: float = 1e-12) -> bool:
    """Same variables, constraints and coefficients, ignoring declaration order."""

    def vkey(v: Variable):
        return v.name

    v1 = sorted(m1.variables, key=vkey)
    v2 = sorted(m2.variables, key=vkey)
    if len(v1) != len(v2):
        return False
    for a, b in zip(v1, v2):
        if a.name != b.name or a.kind != b.kind:
            return False
        if abs(a.lower - b.lower) > tol:
            return False
        if (a.upper is None) != (b.upper is None):
            return False
        if a.upper is not None and abs(a.upper - b.upper) > tol:
            return False

    def close(d1: dict[str, float], d2: dict[str, float]) -> bool:
        keys = set(d1) | set(d2)
        return all(abs(d1.get(k, 0.0) - d2.get(k, 0.0)) <= tol for k in keys)

    c1 = sorted(m1.constraints, key=lambda c: c.name)
    c2 = sorted(m2.constraints, key=lambda c: c.name)
    if len(c1) != len(c2):
        return False
    for a, b in zip(c1, c2):
        if a.name != b.name or a.sense != b.sense or abs(a.rhs - b.rhs) > tol:
            return False
        if not close(a.coeffs, b.coeffs):
            return False
    return close(m1.objective, m2.objective)
