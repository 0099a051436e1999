"""Scenario grammar: parsing, validation, line-numbered errors."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinef import ScenarioError, parse_scenario
from antinef.cli import main
from antinef.filtration import Example42Spec, ExplicitSpec, QDivisorialSpec
from antinef.scenario import MAX_POINTS

CUSP_SCENARIO = """\
# family of valuation ideals on the cusp constellation
[cluster CUSP]
point = free parent=0 param=0
point = satellite parent=1 other=0

[divisor E2 on CUSP]
coeffs = 0 0 1

[element F]
poly = y^2 - x^3

[filtration FAM]
kind = qdivisorial
divisor = E2

[task]
kind = degree_limits
filtration = FAM
nmax = 60
"""


class TestParsing:
    def test_full_scenario(self):
        sc = parse_scenario(CUSP_SCENARIO)
        assert set(sc.clusters) == {"CUSP"}
        assert set(sc.divisors) == {"E2"}
        assert set(sc.elements) == {"F"}
        assert isinstance(sc.filtrations["FAM"], QDivisorialSpec)
        assert len(sc.tasks) == 1
        task = sc.tasks[0]
        assert task.kind == "degree_limits"
        assert task.nmax == 60
        assert task.labels == (0, 1, 2)  # one label per cusp curve

    def test_cluster_matches_hand_built(self):
        sc = parse_scenario(CUSP_SCENARIO)
        c = sc.clusters["CUSP"]
        assert c.intersection_matrix().entries == (
            (-3, 0, 1),
            (0, -2, 1),
            (1, 1, -1),
        )

    def test_empty_scenario(self):
        sc = parse_scenario("")
        assert not sc.tasks
        sc = parse_scenario("# just a comment\n\n")
        assert not sc.tasks

    def test_rational_and_infinite_params(self):
        sc = parse_scenario(
            """
[cluster C]
point = free parent=0 param=3/2
point = free parent=0 param=inf
"""
        )
        c = sc.clusters["C"]
        assert c.point(1).param == Fraction(3, 2)
        assert c.point(2).param == float("inf")

    def test_example42_filtration(self):
        sc = parse_scenario(
            """
[filtration G]
kind = example42
params = 0 1 5/2
"""
        )
        spec = sc.filtrations["G"]
        assert isinstance(spec, Example42Spec)
        assert spec.params == (0, 1, Fraction(5, 2))

    def test_explicit_filtration(self):
        sc = parse_scenario(
            """
[cluster C]
point = free parent=0 param=0

[filtration G]
kind = explicit
entry = 1 C 1 1
entry = 2 C 2 2
"""
        )
        spec = sc.filtrations["G"]
        assert isinstance(spec, ExplicitSpec)
        assert sorted(spec.table) == [1, 2]

    def test_inline_delta(self):
        sc = parse_scenario(
            """
[cluster C]
point = free parent=0 param=0

[filtration G]
kind = qdivisorial
cluster = C
delta = 0 1/2
"""
        )
        assert sc.filtrations["G"].delta.coeffs == (0, Fraction(1, 2))


class TestErrors:
    @staticmethod
    def expect_error(text, match, line):
        with pytest.raises(ScenarioError, match=match) as info:
            parse_scenario(text)
        assert info.value.line == line

    def test_undefined_divisor(self):
        self.expect_error(
            "[task]\nkind = unload\ndivisor = NOPE\n",
            "undefined divisor",
            3,
        )

    def test_undefined_cluster_in_divisor(self):
        self.expect_error(
            "[divisor D on MISSING]\ncoeffs = 1\n",
            "undefined cluster",
            1,
        )

    def test_unknown_section(self):
        self.expect_error("[widget W]\n", "unknown section", 1)

    def test_malformed_rational(self):
        self.expect_error(
            "[cluster C]\npoint = free parent=0 param=0\n\n"
            "[divisor D on C]\ncoeffs = 1 x/2\n",
            "malformed rational",
            5,
        )

    def test_decimal_rejected(self):
        self.expect_error(
            "[cluster C]\npoint = free parent=0 param=0\n\n"
            "[divisor D on C]\ncoeffs = 1 0.5\n",
            "not exact",
            5,
        )

    def test_coefficient_count_mismatch(self):
        self.expect_error(
            "[cluster C]\npoint = free parent=0 param=0\n\n"
            "[divisor D on C]\ncoeffs = 1 2 3\n",
            "has 3 coefficients",
            5,
        )

    def test_unknown_task_kind(self):
        self.expect_error("[task]\nkind = dance\n", "unknown task kind", 2)

    def test_task_missing_nmax(self):
        self.expect_error(
            "[filtration G]\nkind = example42\n\n[task]\nkind = rees_union\nfiltration = G\n",
            "missing key 'nmax'",
            4,
        )

    def test_bad_point_line(self):
        self.expect_error("[cluster C]\npoint = loop parent=0\n", "unknown point kind", 2)

    def test_structural_point_error_carries_line(self):
        self.expect_error(
            "[cluster C]\npoint = free parent=0 param=1\npoint = free parent=0 param=1\n",
            "coincident",
            3,
        )

    def test_content_outside_section(self):
        self.expect_error("kind = unload\n", "outside any section", 1)

    def test_missing_equals(self):
        self.expect_error("[cluster C]\njust words\n", "key = value", 2)

    def test_labels_on_wrong_task(self):
        self.expect_error(
            "[filtration G]\nkind = example42\n\n"
            "[task]\nkind = rees_union\nfiltration = G\nnmax = 3\nlabels = v0\n",
            "labels only apply",
            8,
        )

    def test_duplicate_name_rejected(self):
        self.expect_error(
            "[cluster C]\npoint = free parent=0\n\n[cluster C]\npoint = free parent=0\n",
            "duplicate cluster",
            4,
        )

    def test_negative_nmax(self):
        self.expect_error(
            "[filtration G]\nkind = example42\n\n"
            "[task]\nkind = rees_union\nfiltration = G\nnmax = -1\n",
            "nmax must be positive",
            7,
        )


def _chain_of(points):
    """A cluster section of ``points`` free point lines, each on the last curve."""
    return "[cluster C]\n" + "".join(f"point = free parent={i}\n" for i in range(points))


class TestPointCap:
    def test_at_the_cap_parses(self):
        assert len(parse_scenario(_chain_of(MAX_POINTS)).clusters["C"]) == MAX_POINTS + 1

    def test_past_the_cap_exits_2_on_its_line_before_any_task(self, tmp_path, capsys):
        scn = tmp_path / "s.scn"
        task = "\n[task]\nkind = intersection_matrix\ncluster = C\n"
        scn.write_text(_chain_of(MAX_POINTS + 1) + task)
        assert main(["run", "--scenario", str(scn)]) == 2
        line = MAX_POINTS + 2  # the header, then the point lines
        message = f"a cluster takes at most {MAX_POINTS} point lines"
        assert capsys.readouterr() == ("", f"error: line {line}: {message}\n")


_EXPLICIT = "[cluster C]\npoint = free parent=0 param=0\n\n[filtration G]\nkind = explicit\n"
_EXAMPLE42_TASK = "[filtration G]\nkind = example42\n\n[task]\nkind = rees_union\nfiltration = G\n"


class TestEntryIndices:
    """An explicit table names each member index once, and every index is >= 1."""

    def expect_error(self, entries, match, line):
        TestErrors.expect_error(_EXPLICIT + entries, match, line)

    def test_repeated_index_rejected_on_its_line(self):
        self.expect_error("entry = 2 C 1 1\nentry = 2 C 5 5\n", "duplicate entry index 2", 7)

    def test_zero_index_rejected(self):
        self.expect_error("entry = 1 C 1 1\nentry = 0 C 1 1\n", "entry index must be positive", 7)

    def test_negative_index_rejected(self):
        self.expect_error("entry = -3 C 1 1\n", "entry index must be positive", 6)

    @pytest.mark.parametrize("index", ["+2", "1_0", "1e1", "x"])
    def test_non_nat_index_rejected(self, index):
        self.expect_error(f"entry = {index} C 1 1\n", "bad index", 6)

    def test_non_integer_coefficients_rejected_on_the_entry_line(self, tmp_path, capsys):
        message = "entry coefficients must be integers"
        self.expect_error("entry = 2 C 2 2\nentry = 1 C 1/2 1\n", message, 7)
        scn = tmp_path / "half.scn"
        task = "[task]\nkind = rees_union\nfiltration = G\nnmax = 1\n"
        scn.write_text(_EXPLICIT + "entry = 1 C 1/2 1\n\n" + task)
        assert main(["run", "--scenario", str(scn)]) == 2
        assert capsys.readouterr() == ("", f"error: line 6: {message}\n")

    def test_distinct_positive_indices_kept(self):
        sc = parse_scenario(_EXPLICIT + "entry = 3 C 3 3\nentry = 1 C 1 1\n")
        assert sorted(sc.filtrations["G"].table) == [1, 3]


class TestNumberGrammar:
    """rational = [ "-" ] nat [ "/" nat ], nat = digit { digit }, nothing more."""

    @pytest.mark.parametrize("token", ["1e3", "1E-2", "1_0", "+2", "1/+2", "\u0661", "2/1_0"])
    def test_non_grammar_rationals_rejected(self, token):
        TestErrors.expect_error(
            f"[cluster C]\npoint = free parent=0 param=0\n\n[divisor D on C]\ncoeffs = 1 {token}\n",
            "malformed rational",
            5,
        )

    @pytest.mark.parametrize("token", ["1e3", "1_0", "+2"])
    def test_non_grammar_param_rejected(self, token):
        TestErrors.expect_error(
            f"[cluster C]\npoint = free parent=0 param={token}\n", "malformed rational", 2
        )

    @pytest.mark.parametrize("token", ["1e3", "1_0", "+2"])
    def test_non_grammar_example42_params_rejected(self, token):
        TestErrors.expect_error(
            f"[filtration G]\nkind = example42\nparams = 0 {token}\n", "malformed rational", 3
        )

    @pytest.mark.parametrize("token", ["1_0", "+3", "1e1", "3.0", "\u0663"])
    def test_non_nat_nmax_rejected(self, token):
        TestErrors.expect_error(_EXAMPLE42_TASK + f"nmax = {token}\n", "bad nmax", 7)

    def test_zero_nmax_rejected(self):
        TestErrors.expect_error(_EXAMPLE42_TASK + "nmax = 0\n", "nmax must be positive", 7)

    def test_nmax_above_the_limit_rejected(self):
        TestErrors.expect_error(_EXAMPLE42_TASK + "nmax = 1001\n", "nmax must be at most 1000", 7)

    @pytest.mark.parametrize(
        "point, what",
        [
            ("free parent=+0", "parent"),
            ("free parent=0_0 param=1", "parent"),
            ("satellite parent=1 other=+0", "other"),
            ("satellite parent=1_0 other=0", "parent"),
            ("free parent=x", "parent"),
        ],
    )
    def test_non_nat_point_index_rejected(self, point, what):
        TestErrors.expect_error(
            f"[cluster C]\npoint = free parent=0 param=0\npoint = {point}\n", f"bad {what}", 3
        )

    @pytest.mark.parametrize("label", ["v+1", "v1_0", "v\u0661", "v"])
    def test_non_nat_label_rejected(self, label):
        TestErrors.expect_error(
            _EXAMPLE42_TASK.replace("rees_union", "degree_limits")
            + f"nmax = 3\nlabels = v0 {label}\n",
            "unknown valuation label",
            8,
        )

    @given(st.fractions(max_denominator=10**6).filter(lambda f: abs(f) < 10**9))
    def test_str_of_a_fraction_parses_back(self, value):
        # the form perfbench/gen.py writes its parameters in
        sc = parse_scenario(f"[cluster C]\npoint = free parent=0 param={value}\n")
        assert sc.clusters["C"].point(1).param == value


_CLUSTER = "[cluster C]\npoint = free parent=0 param=0\n"


class TestParseErrorMessages:
    """Each parse error names its fault and the line it sits on."""

    @pytest.mark.parametrize(
        "text, match, line",
        [
            ("[cluster C]\npoint =\n", "empty point definition", 2),
            ("[cluster C]\npoint = free parent=0 tint=2\n", r"unknown point options \['tint'\]", 2),
            ("[cluster C]\npoint = free param=1\n", "point is missing option 'parent'", 2),
            (_CLUSTER + "point = satellite parent=1\n", "point is missing option 'other'", 3),
            ("\n[element F]\npoly = x +\n", "bad polynomial: unexpected end of input", 3),
            ("[element F]\npoly = 1/0*x\n", r"bad polynomial: zero denominator \(at position 3\)", 2),
            (_EXPLICIT + "entry = 1\n", "entry needs: n cluster-name coefficients", 6),
            ("[filtration G]\n# no entries\nkind = explicit\n", "needs at least one entry", 3),
            (
                _CLUSTER + "[filtration G]\nkind = qdivisorial\ncluster = C\ndelta = 1 -1\n",
                "the generating divisor must be effective",
                4,
            ),
            ("[filtration G]\nkind = example42\nparams = 1 2 1\n", "pairwise distinct", 2),
            ("[ ]\n", "empty section header", 1),
            ("\n[divisor D C]\ncoeffs = 1\n", re.escape("expected [divisor NAME on CLUSTER]"), 2),
            ("[cluster C]\npoint = free parent=0 param=1/0\n", "malformed rational '1/0'", 2),
            (_CLUSTER + "[divisor D on C]\ncoeffs = 1 1/0\n", "malformed rational '1/0'", 4),
        ],
    )
    def test_message_and_line(self, text, match, line):
        TestErrors.expect_error(text, match, line)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[element F]\npoly = 1/0*x\n", "line 2: bad polynomial: zero denominator"),
            ("[ ]\n", "line 1: empty section header"),
        ],
    )
    def test_run_exits_2_with_empty_stdout(self, text, message, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text(text)
        assert main(["run", "--scenario", str(scn)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")


# A scenario using every section and filtration kind; the fuzz test edits a
# few of its lines with tokens that are valid somewhere in a scenario and
# inserts lines of such tokens, so its inputs fail at every depth of the
# file, not only at the first lines.
_FUZZ_BASE = """\
[cluster C]
point = free parent=0 param=0
point = satellite parent=1 other=0
point = free parent=2 param=1
[cluster D]
point = free parent=0 param=1/2
[divisor E on C]
coeffs = 0 0 1 1/2
[element F]
poly = y^2 - x^3
[filtration G]
kind = qdivisorial
divisor = E
[filtration H]
kind = qdivisorial
cluster = D
delta = 1 1/3
[filtration X]
kind = example42
params = 0 1 5/2
[filtration T]
kind = explicit
entry = 1 C 1 1 2 2
entry = 2 D 2 2
[task]
kind = intersection_matrix
cluster = C
[task]
kind = degree_function
divisor = E
element = F
[task]
kind = degree_limits
filtration = G
nmax = 3
labels = v0 v2
[task]
kind = commutation
filtration = T
element = F
nmax = 2
[task]
kind = rees_union
filtration = X
nmax = 3
""".splitlines()
_TOKENS = [
    "[", "]", "[task]", "cluster", "divisor", "element", "filtration", "on", "C", "D", "E",
    "F", "G", "T", "=", "point", "free", "satellite", "parent=0", "parent=3", "parent=x",
    "param=1/2", "param=1/0", "param=0.5", "param=inf", "other=0", "other=2", "coeffs",
    "poly", "kind", "qdivisorial", "example42", "explicit", "entry", "delta", "params",
    "labels", "nmax", "-1", "0", "1", "2", "1/2", "1/0", "-3/4", "x", "y^2", "(x", "+", "*",
    "v0", "v9", "v-1", "#", "inf", "unload", "degree_limits", "commutation", "rees_union",
]
_SOUP = st.lists(st.sampled_from(_TOKENS), max_size=8).map(" ".join)
# (action, token, word index): keep the line (most often), drop it, or
# replace one of its words with the token
_EDIT = st.tuples(st.sampled_from("k" * 18 + "dr"), st.sampled_from(_TOKENS), st.integers(0, 7))


def _edited(line, edit):
    action, token, index = edit
    if action == "d":
        return ""
    words = line.split()
    if action == "r" and words:
        words[index % len(words)] = token
    return " ".join(words)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(_EDIT, min_size=len(_FUZZ_BASE), max_size=len(_FUZZ_BASE)),
    st.lists(st.tuples(st.integers(0, len(_FUZZ_BASE)), _SOUP), max_size=4),
)
def test_token_soup_raises_only_scenario_error(edits, inserts):
    lines = [_edited(line, edit) for line, edit in zip(_FUZZ_BASE, edits)]
    for position, soup in inserts:
        lines.insert(position, soup)
    try:
        parse_scenario("\n".join(lines))
    except ScenarioError:
        pass
