import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steadydim.netmodel import (
    Complex,
    NetworkMatrices,
    ParseError,
    Reaction,
    ReactionNetwork,
    parse_network,
)
from steadydim import ratmat
from steadydim.ratmat import RatMatrix

from conftest import CALCIUM_B, CALCIUM_GAMMA, fixture_path, random_network

CALCIUM_TEXT = (
    "0 <-> X1 ; k1, k2\n"
    "X1 + X2 -> 2 X1 ; k3\n"
    "X1 + X3 <-> X4 ; k4, k5\n"
    "X4 -> X2 + X3 ; k6"
)

EXAMPLE42_TEXT = "X -> Y ; k1\nX -> Z ; k2\nY + Z -> X + Y + Z ; k3\nY + Z -> 0 ; k4"

EXAMPLE46_TEXT = "3 X1 + X2 -> 4 X1 ; k1\n2 X1 + X2 -> 3 X2 ; k2\nX1 + X2 -> 2 X1 ; k3"


def test_parse_calcium():
    net = parse_network(CALCIUM_TEXT)
    assert net.species == ("X1", "X2", "X3", "X4")
    assert net.r == 6
    assert [rx.label for rx in net.reactions] == ["k1", "k2", "k3", "k4", "k5", "k6"]
    # reverse direction inserted right after its forward partner
    assert net.reactions[0].reactant == Complex(())
    assert net.reactions[1].product == Complex(())


def test_parse_example42():
    net = parse_network(EXAMPLE42_TEXT)
    assert net.species == ("X", "Y", "Z")
    assert net.r == 4


def test_parse_rejects_self_loop():
    with pytest.raises(ParseError) as err:
        parse_network("X1 -> X1 ; k1")
    assert "self-loop" in str(err.value)
    assert err.value.line == 1


def test_parse_rejects_duplicate_labels():
    with pytest.raises(ParseError) as err:
        parse_network("X -> Y ; k1\nY -> X ; k1")
    assert "duplicate" in str(err.value)
    assert err.value.line == 2


def test_parse_rejects_single_label_on_reversible():
    with pytest.raises(ParseError):
        parse_network("X <-> Y ; k1")


def test_parse_rejects_unknown_token():
    with pytest.raises(ParseError) as err:
        parse_network("X -> Y & Z ; k1")
    assert err.value.column == 8


def test_parse_rejects_zero_coefficient():
    with pytest.raises(ParseError):
        parse_network("0 X -> Y ; k1")


def test_parse_rejects_a_coefficient_past_the_int_string_limit():
    # the limit exists from Python 3.11 (and 3.10.7) on; without it, or with
    # it switched off (0), the coefficient is just a large int
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = "1" * (max(limit, 4300) + 1)
    text = f"X -> Y ; k1\nY -> {digits} X ; k2"
    if not limit:
        assert parse_network(text).reactions[1].product.coeffs == ((0, int(digits)),)
        return
    with pytest.raises(ParseError) as err:
        parse_network(text)
    assert (err.value.line, err.value.column) == (2, 6)
    assert "too long" in err.value.message


def test_parse_rejects_missing_arrow():
    with pytest.raises(ParseError):
        parse_network("X + Y ; k1")


def test_parse_rejects_empty_text():
    with pytest.raises(ParseError) as err:
        parse_network("# nothing here\n\n")
    assert "no reactions" in str(err.value)


def test_parse_auto_labels():
    net = parse_network("X <-> Y\nY -> Z")
    assert [rx.label for rx in net.reactions] == ["k1", "k2", "k3"]


def test_parse_auto_labels_skip_explicit_labels():
    # an explicit label anywhere in the text, before or after, is never reused
    net = parse_network("A -> B ; k2\nB -> C\n")
    assert [rx.label for rx in net.reactions] == ["k2", "k3"]
    net = parse_network("A <-> B\nB -> C ; k1\nC -> A ; k3\n")
    assert [rx.label for rx in net.reactions] == ["k2", "k4", "k1", "k3"]
    assert parse_network(net.render()) == net


# The boundary cases of the line grammar: each accepted text pins the network
# it renders to, each rejected one the (line, column) of its error.
@pytest.mark.parametrize(
    "text, expected",
    [
        ("2X -> Y", "2 X -> Y ; k1\n"),
        ("12X -> Y", "12 X -> Y ; k1\n"),
        ("0 -> A", "0 -> A ; k1\n"),
        ("A -> 0", "A -> 0 ; k1\n"),
        ("\u0663X -> Y", "3 X -> Y ; k1\n"),  # a Unicode digit is a coefficient
        ("X\u00e9 -> Y", "X\u00e9 -> Y ; k1\n"),
        # only LF, CRLF and a lone CR end a line: \x0b, \f and \u2028 are whitespace
        ("A -> B\x0bB -> C", (1, 10)),
        ("A -> B\r\nB -> C ; k1", "A -> B ; k2\nB -> C ; k1\n"),
        ("00 -> A", (1, 1)),
        ("0 X -> Y", (1, 1)),
        ("2 3X -> Y", (1, 1)),
        ("A - B -> C", (1, 3)),
        ("A <- B", (1, 3)),
        ("A -> B -> C", (1, 8)),
        ("A -> B ;", (1, 9)),
        ("A <-> B ; k1", (1, 11)),
        ("A -> B ; k1, k2", (1, 10)),
        ("A + -> B", (1, 5)),
        ("A -> \u00e9", (1, 6)),
        ("X <-> Y ; k1, k1", (1, 15)),
        ("A -> B\fB -> B", (1, 10)),
        ("A -> B\u2028B -> C", (1, 10)),
    ],
)
def test_parse_line_grammar_boundaries(text, expected):
    if isinstance(expected, str):
        assert parse_network(text).render() == expected
        return
    with pytest.raises(ParseError) as err:
        parse_network(text)
    assert (err.value.line, err.value.column) == expected


def test_parse_star_coefficients_and_comments():
    net = parse_network("2*X + Y -> 3*Z # inline comment\n")
    rx = net.reactions[0]
    assert rx.reactant.coefficient(0) == 2
    assert rx.product.coefficient(2) == 3


def test_parse_accumulates_repeated_species():
    net = parse_network("X + X -> Y ; k1")
    assert net.reactions[0].reactant.coefficient(0) == 2


def test_calcium_matrices_match_reference_form():
    mats = NetworkMatrices.from_network(parse_network(CALCIUM_TEXT))
    assert mats.gamma == RatMatrix.from_rows(CALCIUM_GAMMA)
    assert mats.b == RatMatrix.from_rows(CALCIUM_B)
    assert (mats.n, mats.r, mats.s, mats.d) == (4, 6, 3, 1)
    assert mats.w_mat == RatMatrix.from_rows([[0, 0, 1, 1]])


def test_example46_matrices():
    mats = NetworkMatrices.from_network(parse_network(EXAMPLE46_TEXT))
    assert mats.gamma == RatMatrix.from_rows([[1, -2, 1], [-1, 2, -1]])
    assert mats.b == RatMatrix.from_rows([[3, 2, 1], [1, 1, 1]])
    assert (mats.s, mats.d) == (1, 1)
    assert mats.n_mat == RatMatrix.from_rows([[1, -2, 1]])
    assert mats.w_mat == RatMatrix.from_rows([[1, 1]])


def test_single_reaction_matrices():
    mats = NetworkMatrices.from_network(parse_network("X -> Y ; k1"))
    assert mats.gamma == RatMatrix.from_rows([[-1], [1]])
    assert mats.b == RatMatrix.from_rows([[1], [0]])
    assert (mats.s, mats.d) == (1, 1)


def test_fixture_files_parse():
    for name in ("calcium", "example42", "example45", "example46", "weakly_reversible"):
        net = parse_network(fixture_path(f"{name}.crn").read_text())
        assert net.r >= 1


def test_weakly_reversible_fixture_dims():
    net = parse_network(fixture_path("weakly_reversible.crn").read_text())
    mats = NetworkMatrices.from_network(net)
    assert (mats.n, mats.r, mats.s, mats.d) == (2, 12, 2, 0)
    assert mats.w_mat.rows == 0


def test_render_round_trip_fixtures():
    for name in ("calcium", "example42", "example45", "example46", "weakly_reversible"):
        net = parse_network(fixture_path(f"{name}.crn").read_text())
        assert parse_network(net.render()) == net


def test_render_round_trip_random():
    rng = random.Random(77)
    for _ in range(50):
        net = random_network(rng)
        assert parse_network(net.render()) == net


# Parser fuzzing over the grammar's alphabet (A B _ 0-9 + * -> <-> ; , #,
# whitespace, newlines) plus a non-ASCII letter and digit, a stray '&', '\r'
# and the separators '\x0b', '\f' and '\u2028', which do not end a line:
# lines that follow the grammar, lines that nearly do (zero coefficients,
# identical complexes, repeated labels) and junk.
_NAME = st.sampled_from(["A", "B", "AB", "A1", "B20", "_", "X\u00e9", "\u00e9"])
_LABEL = st.builds("{}{}".format, st.sampled_from("AB"), st.integers(0, 99))
_TERM = st.builds("{}{}".format, st.sampled_from(["", "1 ", "2", "10 ", "3*", "2 * ", "0 ", "\u0663"]), _NAME)
_COMPLEX = st.one_of(st.just("0"), st.lists(_TERM, min_size=1, max_size=3).map(" + ".join))
_IRREVERSIBLE = st.builds(
    "{} -> {}{}".format, _COMPLEX, _COMPLEX, st.one_of(st.just(""), _LABEL.map(" ; {}".format))
)
_REVERSIBLE = st.builds(
    "{} <-> {}{}".format, _COMPLEX, _COMPLEX, st.one_of(st.just(""), st.builds(" ; {}, {}".format, _LABEL, _LABEL))
)
_JUNK = st.lists(
    st.sampled_from(
        ["A", "B", "_", "\u00e9", "0", "1", "9", "\u0663", "+", "*", "->", "<->", ";", ",", "#"]
        + [" ", "\t", "\r", "\x0b", "\f", "\u2028", "-", "<", ">", "&"]
    ),
    max_size=12,
).map("".join)
_LINE = st.one_of(_IRREVERSIBLE, _REVERSIBLE, _IRREVERSIBLE.map("{}  # A -> B".format), _JUNK, st.just(""))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(_LINE, max_size=6).map("\n".join))
def test_parser_fuzz_raises_parse_error_or_round_trips(text):
    try:
        net = parse_network(text)
    except ParseError as err:
        # the column lies on the line, comment excluded, or just past it
        line = re.split(r"\r\n?|\n", text)[err.line - 1].split("#", 1)[0]
        assert 1 <= err.column <= len(line) + 1
        return
    assert parse_network(net.render()) == net


def test_matrix_invariants_random():
    rng = random.Random(78)
    for _ in range(40):
        net = random_network(rng)
        mats = NetworkMatrices.from_network(net)
        # column sums: total product minus total reactant coefficients
        for j, rx in enumerate(net.reactions):
            total_product = sum(c for _, c in rx.product.coeffs)
            total_reactant = sum(c for _, c in rx.reactant.coeffs)
            assert sum(mats.gamma.transpose().row(j)) == total_product - total_reactant
            assert mats.b.transpose().row(j) == tuple(rx.reactant.coefficient(i) for i in range(mats.n))
        assert all(x >= 0 for i in range(mats.n) for x in mats.b.row(i))
        assert mats.gamma.vstack(mats.n_mat).rank() == mats.s
        assert mats.w_mat.rank() == mats.n - mats.s
        assert (mats.w_mat @ mats.gamma).is_zero()


def test_from_network_eliminates_gamma_once(monkeypatch):
    # n_mat, w_mat and G all read one elimination of gamma: building them
    # makes the calls and the integer row updates of a single elimination
    # with its RREF (the forward pass and the back-substitution)
    counts = {"eliminations": 0, "back_substitutions": 0, "row_operations": 0}
    real_eliminate, real_back_substitute = RatMatrix._eliminate, RatMatrix._back_substitute
    real_row_update = ratmat.row_update

    def eliminate(self):
        counts["eliminations"] += 1
        return real_eliminate(self)

    def back_substitute(self):
        counts["back_substitutions"] += 1
        return real_back_substitute(self)

    def row_update(*args):
        counts["row_operations"] += 1
        real_row_update(*args)

    monkeypatch.setattr(RatMatrix, "_eliminate", eliminate)
    monkeypatch.setattr(RatMatrix, "_back_substitute", back_substitute)
    monkeypatch.setattr(ratmat, "row_update", row_update)
    RatMatrix.from_rows(CALCIUM_GAMMA).rref()
    one_elimination = dict(counts)
    assert one_elimination["eliminations"] == one_elimination["back_substitutions"] == 1
    assert one_elimination["row_operations"] > 0
    counts.update(eliminations=0, back_substitutions=0, row_operations=0)
    mats = NetworkMatrices.from_network(parse_network(CALCIUM_TEXT))
    assert mats.g.cols == mats.r - mats.s
    assert counts == one_elimination


def test_from_matrices_raw():
    n_mat = RatMatrix.from_rows([[1, -2, 1]])
    b = RatMatrix.from_rows([[3, 2, 1], [1, -1, 1]])  # negative exponent allowed
    w = RatMatrix.from_rows([[1, 1]])
    mats = NetworkMatrices.from_matrices(n_mat, b, w)
    assert (mats.n, mats.r, mats.s, mats.d) == (2, 3, 1, 1)
    assert (mats.w_mat @ mats.gamma).is_zero()
    assert mats.gamma.row_basis() == n_mat.row_basis()


def test_from_matrices_full_rank_without_w():
    n_mat = RatMatrix.from_rows([[1, 0], [0, 1]])
    b = RatMatrix.from_rows([[1, 0], [0, 2]])
    mats = NetworkMatrices.from_matrices(n_mat, b)
    assert mats.d == 0
    assert mats.w_mat.rows == 0
    assert mats.gamma == n_mat


def test_from_matrices_validation():
    b = RatMatrix.from_rows([[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        NetworkMatrices.from_matrices(RatMatrix.from_rows([[1, 0], [2, 0]]), b)
    with pytest.raises(ValueError):
        NetworkMatrices.from_matrices(RatMatrix.from_rows([[1, 0]]), b)  # missing W
    with pytest.raises(ValueError):
        NetworkMatrices.from_matrices(
            RatMatrix.from_rows([[1, 0]]),
            RatMatrix.from_rows([["1/2", 0], [0, 1]]),
            RatMatrix.from_rows([[1, 0]]),
        )
