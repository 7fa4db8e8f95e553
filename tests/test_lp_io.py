import pytest

from vecop.formulation import (
    BINARY,
    CONTINUOUS,
    DELAY_UNIT,
    INTEGER,
    Bounds,
    Constraint,
    MilpModel,
    Variable,
    formulate,
)
from vecop.lp_io import LpParseError, export_lp, read_lp, structurally_equal
from vecop.scenario import POWER_WEIGHTS, ObjectiveWeights

POWER = POWER_WEIGHTS
JOINT = ObjectiveWeights(0.02, 2000.0)


def tiny_model():
    return MilpModel(
        variables=(
            Variable("x1", CONTINUOUS, 0.0, 1.0),
            Variable("x2", CONTINUOUS, 0.0, None),
            Variable("b1", BINARY, 0.0, 1.0),
            Variable("n1", INTEGER, 1.0, 4.0),
        ),
        constraints=(
            Constraint("c1", {"x1": 1.0, "x2": 2.0}, "<=", 3.0),
            Constraint("c2", {"x1": 1.0, "b1": -1.0}, ">=", -0.5),
            Constraint("c3", {"x2": 1.0}, "=", 0.25),
            Constraint("c4", {"x2": 1.0, "n1": -0.5}, "<=", 0.0),
        ),
        objective={"x1": 1.5, "b1": 7.0},
    )


def test_round_trip_tiny():
    m = tiny_model()
    assert structurally_equal(read_lp(export_lp(m)), m)


def test_export_is_canonical():
    m = tiny_model()
    text = export_lp(m)
    assert text == export_lp(read_lp(text))  # byte stability
    assert text.startswith("Minimize\n obj: ")
    assert text.endswith("End\n")
    assert "Binaries" in text and "Bounds" in text
    assert text.endswith("Generals\n n1\nEnd\n")


@pytest.mark.parametrize("weights", [POWER, JOINT], ids=["power", "joint"])
def test_round_trip_default_model(default_scenario, default_linkset, default_tables, weights):
    m = formulate(default_scenario, default_linkset, default_tables, weights)
    text = export_lp(m)
    back = read_lp(text)
    assert structurally_equal(back, m, tol=1e-12)
    # After one read the variable order is canonical: export is byte-stable.
    text2 = export_lp(back)
    assert export_lp(read_lp(text2)) == text2


def test_round_trip_a_floor_without_a_cap(default_scenario, default_linkset, default_tables):
    # T then has a lower bound and no upper one: a "T >= <floor>" line.
    floor = 4e-4
    m = formulate(
        default_scenario, default_linkset, default_tables, JOINT, Bounds(delay_floor=floor)
    )
    text = export_lp(m)
    assert f"\n T >= {floor / DELAY_UNIT!r}\n" in text
    assert structurally_equal(read_lp(text), m)


def test_round_trip_an_empty_objective():
    m = tiny_model()
    m = MilpModel(m.variables, m.constraints, {})
    text = export_lp(m)
    assert text.startswith("Minimize\n obj: 0\n")
    assert structurally_equal(read_lp(text), m)


def test_reader_reads_generals_as_integers():
    m = read_lp(
        "Minimize\n obj: x + n + m\nSubject To\n c1: x + n + m >= 1.5\n"
        "Bounds\n 1 <= n <= 4\nGenerals\n n\n m\nEnd\n"
    )
    variables = {v.name: v for v in m.variables}
    assert variables["n"] == Variable("n", INTEGER, 1.0, 4.0)
    assert variables["m"] == Variable("m", INTEGER, 0.0, None)
    assert variables["x"].kind == CONTINUOUS


def test_reader_implicit_coefficients_and_signs():
    m = read_lp(
        "Minimize\n obj: -x1 + 2e-3 x2 - 1.5 x3\nSubject To\n c: x1 >= 0\nEnd\n"
    )
    assert m.objective == {"x1": -1.0, "x2": 0.002, "x3": -1.5}


def test_parse_error_reports_line():
    bad = "Minimize\n obj: x1\nSubject To\n c1: x1 + 3 4 <= 5\nEnd\n"
    with pytest.raises(LpParseError) as e:
        read_lp(bad)
    assert e.value.line_no == 4

    with pytest.raises(LpParseError, match="without a sense"):
        read_lp("Minimize\n obj: x\nSubject To\n c1: x 3\nEnd\n")

    with pytest.raises(LpParseError, match="before the objective"):
        read_lp("x1 <= 3\nEnd\n")


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("min\n obj: x\nSubject To\n c1: x <= 1\nEnd\n", 1),
        ("Minimize\n obj: x\nst\n c1: x <= 1\nEnd\n", 3),
        ("Minimize\n obj: x\nSubject To\n c1: x + y\n   + 3 z <= 10\nEnd\n", 4),
        ("Minimize\n obj: x\nSubject To\n c1: x <= 1\nBounds\n x free\nEnd\n", 6),
        ("Minimize\n obj: x\nSubject To\n x + y <= 1\nEnd\n", 4),
        ("Minimize\n obj: x\nSubject To\n c1: x < 1\nEnd\n", 4),
        ("Minimize\n obj: 3 - x\nSubject To\n c1: x <= 1\nEnd\n", 2),
        ("Minimize\n obj: x\nSubject To\n c1: 2 - y >= 1.0\nEnd\n", 4),
        ("Minimize\n obj: x\nSubject To\n c1: x + 2 <= 1\nEnd\n", 4),
        ("Minimize\n obj: x\nSubject To\n c1: x <= y\nEnd\n", 4),
    ],
    ids=[
        "min", "st", "wrapped-row", "free-bound", "unnamed-row", "less-than",
        "number-minus-objective", "number-minus-row", "trailing-coefficient", "rhs-not-a-number",
    ],
)
def test_reader_rejects_forms_export_never_writes(text, line_no):
    # Each of these is valid CPLEX LP elsewhere; reading it must fail loudly
    # at its line rather than yield a different model.
    with pytest.raises(LpParseError) as e:
        read_lp(text)
    assert e.value.line_no == line_no


@pytest.mark.parametrize("header", ["Maximize", "max", "MAX"])
def test_reader_rejects_maximize(header):
    # A MilpModel is always minimized; reading a maximized model as one would
    # silently flip its optimum.
    with pytest.raises(LpParseError, match="maximized") as e:
        read_lp(f"\\ model\n{header}\n obj: x1\nSubject To\n c1: x1 <= 1\nEnd\n")
    assert e.value.line_no == 2


def _swap(items, i, item):
    return items[:i] + (item,) + items[i + 1:]


_V, _C = tiny_model().variables, tiny_model().constraints

# One difference per check of structurally_equal: (variables, constraints,
# objective) of the changed model, and whether tol=1e-3 forgives it.
DIFFERENCES = {
    "variable-count": (_V + (Variable("x3", CONTINUOUS, 0.0, None),), _C, None, False),
    "kind": (_swap(_V, 0, Variable("x1", INTEGER, 0.0, 1.0)), _C, None, False),
    "lower": (_swap(_V, 3, Variable("n1", INTEGER, 1.0 + 1e-6, 4.0)), _C, None, True),
    "upper-none": (_swap(_V, 1, Variable("x2", CONTINUOUS, 0.0, 1e6)), _C, None, False),
    "upper": (_swap(_V, 0, Variable("x1", CONTINUOUS, 0.0, 1.0 + 1e-6)), _C, None, True),
    "constraint-count": (_V, _C[:2] + _C[3:], None, False),
    "rhs": (_V, _swap(_C, 0, Constraint("c1", {"x1": 1.0, "x2": 2.0}, "<=", 3.0 + 1e-6)),
            None, True),
    "coefficients": (_V, _swap(_C, 0, Constraint("c1", {"x1": 1.0, "x2": 2.0 + 1e-6}, "<=", 3.0)),
                     None, True),
    "objective": (_V, _C, {"x1": 1.5, "b1": 7.0 + 1e-6}, True),
}


@pytest.mark.parametrize("case", DIFFERENCES, ids=list(DIFFERENCES))
def test_structurally_equal_detects_differences(case):
    m = tiny_model()
    variables, constraints, objective, forgiven = DIFFERENCES[case]
    other = MilpModel(variables, constraints, objective or m.objective)
    assert not structurally_equal(m, other)
    assert not structurally_equal(other, m)
    assert structurally_equal(m, other, tol=1e-3) == forgiven
