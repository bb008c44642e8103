"""Text format round trips and parse diagnostics."""

import pytest

from quivalg import (
    ParseError,
    build_algebra,
    format_algebra,
    format_element,
    format_module,
    parse_algebra,
    parse_module,
    reference_end_algebra,
    regular_module,
    simples,
    validate,
)
from quivalg import linalg
from quivalg.linalg import QQ

from conftest import element


def test_algebra_round_trip_two_loop(two_loop):
    text = format_algebra(two_loop.quiver, two_loop.relations)
    quiver, relations = parse_algebra(text)
    assert quiver.vertex_labels == two_loop.quiver.vertex_labels
    assert [a.label for a in quiver.arrows] == [a.label for a in two_loop.quiver.arrows]
    assert len(relations) == len(two_loop.relations)
    rebuilt = build_algebra(quiver, relations)
    assert rebuilt.dim == two_loop.dim
    # formatting the parse is stable
    assert format_algebra(quiver, relations) == text


def test_algebra_round_trip_reference():
    b = reference_end_algebra()
    text = format_algebra(b.quiver, b.relations)
    quiver, relations = parse_algebra(text)
    assert build_algebra(quiver, relations).dim == 165


def test_module_round_trip(two_loop):
    reg = regular_module(two_loop)
    text = format_module(reg, "some/path with spaces.alg")
    rep = parse_module(text, algebra=two_loop)
    assert rep == reg
    assert format_module(rep, "some/path with spaces.alg") == text


def test_module_algebra_reference_keeps_raw_tail(two_loop):
    # references may contain characters outside the token alphabet
    text = format_module(simples(two_loop)[0], "builtin:two-loop-local")
    seen = {}

    def loader(ref):
        seen["ref"] = ref
        return two_loop

    rep = parse_module(text, algebra_loader=loader)
    assert seen["ref"] == "builtin:two-loop-local"
    assert validate(rep) is None


def test_missing_arrow_block_means_zero(two_loop):
    text = "vertex v 1\n"
    rep = parse_module(text, algebra=two_loop)
    assert rep.dims == [1]
    assert all(mat.is_zero() for mat in rep.matrices)


def test_format_element_signs_and_coefficients(two_loop):
    q = two_loop.quiver
    el = element(q, (QQ(1), ["a"]), (QQ(-1, 2), ["b", "b"]), (QQ(3), ["a", "b"]))
    text = format_element(q, el)
    assert text == "a + 3*a*b - 1/2*b*b"


@pytest.mark.parametrize("term", ["2 a*a", "2*a*a", "2  *  a * a"])
def test_coefficient_apart_from_its_path_parses(term):
    """A coefficient is read when a space or * parts it from the path; one
    glued to the path's first label is rejected (test_parse_error_positions)."""
    q, (rel,) = parse_algebra("vertices v\narrow a: v -> v\nrelation %s\n" % term)
    assert rel.terms == {q.path(["a", "a"]): 2}


def test_parse_algebra_positions():
    bad = "vertices v\narrow a: v -> v\nrelation a*c\n"
    with pytest.raises(ParseError) as err:
        parse_algebra(bad)
    assert err.value.line == 3
    assert "c" in str(err.value)


def test_parse_algebra_duplicate_arrow():
    bad = "vertices v\narrow a: v -> v\narrow a: v -> v\n"
    with pytest.raises(ParseError) as err:
        parse_algebra(bad)
    assert err.value.line == 3


def test_parse_algebra_unknown_vertex_in_arrow():
    bad = "vertices v\narrow a: v -> w\n"
    with pytest.raises(ParseError) as err:
        parse_algebra(bad)
    assert err.value.line == 2


def test_parse_module_shape_errors(two_loop):
    bad = "vertex v 2\narrow a\n1 0\n"
    with pytest.raises(ParseError) as err:
        parse_module(bad, algebra=two_loop)
    assert "2 rows" in str(err.value)
    bad_width = "vertex v 1\narrow a\n1 0\n"
    with pytest.raises(ParseError) as err:
        parse_module(bad_width, algebra=two_loop)
    assert "1 entries" in str(err.value)


def test_parse_module_unknown_labels(two_loop):
    with pytest.raises(ParseError) as err:
        parse_module("vertex w 1\n", algebra=two_loop)
    assert "unknown vertex" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_module("vertex v 1\narrow zz\n0\n", algebra=two_loop)
    assert "unknown arrow" in str(err.value)
    assert err.value.line == 2


def test_parse_module_needs_algebra_source():
    with pytest.raises(ParseError):
        parse_module("vertex v 1\n")


def test_parse_rational_entries(two_loop):
    text = "vertex v 1\narrow a\n0\narrow b\n-2/3\n"
    rep = parse_module(text, algebra=two_loop)
    assert rep.matrices[1].rows[0][0] == QQ(-2, 3)
    with pytest.raises(ParseError):
        parse_module("vertex v 1\narrow a\n1/0\n", algebra=two_loop)


def test_parse_module_coerces_no_entry_again(two_loop, count_calls):
    """The parser makes each entry a canonical scalar, so parse_module
    builds the matrices from the entries as they are and runs rat on none
    of them; through the Matrix constructor it ran rat once per entry,
    zeros included."""
    text = "vertex v 2\narrow a\n0 -4/2\n1/3 0\narrow b\n6/4 - 1\n0 0\n"
    rats = count_calls(linalg, "rat")
    rep = parse_module(text, algebra=two_loop)
    assert rats["calls"] == 0
    assert [mat.pairs for mat in rep.matrices] == [
        [[(1, -2)], [(0, QQ(1, 3))]],
        [[(0, QQ(3, 2)), (1, -1)], []],
    ]
    assert type(rep.matrices[0].pairs[0][0][1]) is int


def test_comments_and_blank_lines_ignored(two_loop):
    text = "# header\n\nvertex v 1  # inline\n\n# done\n"
    rep = parse_module(text, algebra=two_loop)
    assert rep.dims == [1]


_ALGEBRA_HEAD = "vertices v\narrow a: v -> v\n"
_MODULE_HEAD = "vertex v 1\narrow a\n"

# (parser, text, message, line, column) for each way the text formats
# reject their input; "module" reads against the two-loop algebra
_PARSE_ERRORS = [
    ("algebra", _ALGEBRA_HEAD + "relation a*a $ a\n", "unexpected character '$'", 3, 14),
    ("algebra", _ALGEBRA_HEAD + "relation a*a +\n", "dangling sign", 3, 14),
    ("algebra", _ALGEBRA_HEAD + "relation a*a a*a\n", "expected + or - between terms", 3, 14),
    ("algebra", _ALGEBRA_HEAD + "relation a*a - a*\n", "expected arrow label after *", 3, 17),
    (
        "algebra",
        "vertices u v\narrow a: u -> v\narrow b: v -> u\nrelation a*b - b*b\n",
        "cannot compose: first path ends at vertex 0, second starts at vertex 1",
        4,
        14,
    ),
    ("algebra", _ALGEBRA_HEAD + "relation\n", "relation line has no terms", 3, 9),
    ("algebra", _ALGEBRA_HEAD + "relation a*a - 2\n", "expected a path term", 3, 17),
    ("algebra", _ALGEBRA_HEAD + "relation 2a*a\n", "expected a path term, got '2a'", 3, 10),
    ("algebra", _ALGEBRA_HEAD + "relation a*a - 1/2a\n", "expected a path term, got '1/2a'", 3, 16),
    ("algebra", _ALGEBRA_HEAD + "relation a*a - a*c\n", "unknown arrow label 'c'", 3, 18),
    ("algebra", _ALGEBRA_HEAD + "relation 1/0*a*a\n", "zero denominator", 3, 10),
    ("algebra", _ALGEBRA_HEAD + "vertices w\n", "duplicate vertices line", 3, 1),
    ("algebra", "vertices\n", "vertices line needs at least one label", 1, 1),
    ("algebra", "vertices 1v\n", "bad vertex label '1v'", 1, 10),
    ("algebra", "vertices v w v\n", "duplicate vertex label 'v'", 1, 14),
    ("algebra", "vertices v\narrow a v -> v\n", "expected: arrow label: source -> target", 2, 1),
    ("algebra", "vertices v\nquiver a\n", "unknown directive 'quiver'", 2, 1),
    ("algebra", "arrow a: v -> v\n", "missing vertices line", 1, 1),
    ("algebra", _ALGEBRA_HEAD + "arrow a: v -> v\n", "duplicate arrow label 'a'", 3, 7),
    ("algebra", _ALGEBRA_HEAD + "arrow b: v -> w\n", "arrow endpoint 'w' is not a vertex", 3, 15),
    ("module", "algebra\nvertex v 1\n", "algebra line needs a reference", 1, 1),
    ("module", "algebra x.alg\nalgebra y.alg\n", "duplicate algebra line", 2, 1),
    ("module", "vertex v\n", "expected: vertex label dim", 1, 1),
    ("module", "vertex v 1\nvertex v 2\n", "duplicate vertex 'v'", 2, 8),
    ("module", "vertex v 1/2\n", "vertex dimension must be a nonnegative integer", 1, 10),
    ("module", "vertex v x\n", "vertex dimension must be a nonnegative integer", 1, 10),
    ("module", "vertex v 1\narrow\n", "expected: arrow label", 2, 1),
    ("module", _MODULE_HEAD + "0\narrow a\n0\n", "duplicate arrow block 'a'", 4, 7),
    ("module", "vertex v 1\n1\n", "unknown directive '1'", 2, 1),
    ("module", _MODULE_HEAD + "-\n", "dangling sign", 3, 1),
    ("module", _MODULE_HEAD + "x\n", "expected a rational entry, got 'x'", 3, 1),
    ("module", _MODULE_HEAD + "1/0\n", "zero denominator", 3, 1),
    ("module without algebra", "vertex v 1\n", "missing algebra line", 1, 1),
    ("module", "vertex w 1\n", "unknown vertex 'w'", 1, 8),
    ("module", "vertex v 2\narrow a\n1 0\n", "arrow 'a' needs 2 rows, got 1", 3, 1),
    ("module", _MODULE_HEAD + "1 0\n", "arrow 'a' rows need 1 entries, got 2", 3, 1),
    ("module", "vertex v 1\narrow zz\n0\n", "unknown arrow 'zz'", 2, 7),
]


@pytest.mark.parametrize(
    "parse, text, message, line, column",
    _PARSE_ERRORS,
    ids=[f"{parse}: {message}" for parse, _text, message, _line, _col in _PARSE_ERRORS],
)
def test_parse_error_positions(two_loop, parse, text, message, line, column):
    """Every rejection names its cause, line and column; module text is
    read against the two-loop algebra, whose one vertex is v."""
    with pytest.raises(ParseError) as err:
        if parse == "algebra":
            parse_algebra(text)
        elif parse == "module":
            parse_module(text, algebra=two_loop)
        else:
            parse_module(text)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"line {line}, column {column}: {message}",
        line,
        column,
    )
