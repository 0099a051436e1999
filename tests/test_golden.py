"""Golden stdout: sha256 digests of whole CLI runs, pinned byte for byte.

The digests were recorded before the family specs took over their own closed
forms and default labels, so any change to what a run prints, in either
output format, fails here.  The inline scenario runs every family task on
each family kind: the explicit tables cover the estimate path and, over two
clusters, the commutation error row with exit status 1.  Further pins, taken
before the task kinds moved into one table, cover one task of every kind, a
per-task error row, and the ``run --nmax`` override.  The mixed-literal
scenario was pinned while the parser still read every integer literal as a
``Fraction``.
"""

import contextlib
import hashlib
import io
import os

import pytest

from antinef.cli import main
from antinef.scenario import TASK_KINDS, parse_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO = os.path.join(ROOT, "docs", "demo.scn")

FAMILIES_SCENARIO = """\
[cluster CUSP]
point = free parent=0 param=0
point = satellite parent=1 other=0

[cluster CUSP2]
point = free parent=0 param=1
point = satellite parent=1 other=0

[element CUSPCURVE]
poly = y^2 - x^3

[element LINE]
poly = y - 2*x

[filtration EX]
kind = example42
params = 3 1/2 -1 5 2/3 7 -4

[filtration QD]
kind = qdivisorial
cluster = CUSP
delta = 1/2 1/3 5/4

[filtration TAB]
kind = explicit
entry = 1 CUSP 1 1 2
entry = 2 CUSP 2 3 5
entry = 3 CUSP 3 4 7
entry = 4 CUSP 5 5 9
entry = 5 CUSP 5 7 11
entry = 6 CUSP 6 8 13
entry = 7 CUSP 8 9 15

[filtration TWO]
kind = explicit
entry = 1 CUSP 1 1 2
entry = 2 CUSP2 2 2 4
entry = 3 CUSP 3 3 6
"""

_FAMILY_TASKS = """
[task]
kind = multiplicity_limit
filtration = {name}
nmax = 7

[task]
kind = degree_limits
filtration = {name}
nmax = 7

[task]
kind = degree_limits
filtration = {name}
nmax = 7
labels = v2 v0

[task]
kind = commutation
filtration = {name}
element = {element}
nmax = 7

[task]
kind = rees_union
filtration = {name}
nmax = 7
"""

FAMILIES_SCENARIO += "".join(
    _FAMILY_TASKS.format(name=name, element=element)
    for name, element in (("EX", "LINE"), ("QD", "CUSPCURVE"), ("TAB", "CUSPCURVE"))
)
FAMILIES_SCENARIO += """
[task]
kind = commutation
filtration = TWO
element = CUSPCURVE
nmax = 3
"""


# One task of every kind, in the order of the grammar's task-kind list; the
# degree_limits task on example42 takes its labels v0..v(nmax) at run time.
ALL_KINDS_SCENARIO = """\
[cluster CUSP]
point = free parent=0 param=0
point = satellite parent=1 other=0
point = free parent=2 param=-1/2

[divisor D on CUSP]
coeffs = 2 1 3 1

[divisor DELTA on CUSP]
coeffs = 1/2 0 2/3 5/4

[element F]
poly = y^2 - x^3 + x*y^3

[element LINE]
poly = y - 2*x

[filtration QD]
kind = qdivisorial
divisor = DELTA

[filtration EX]
kind = example42
params = 1 -1/3 2

[filtration TAB]
kind = explicit
entry = 1 CUSP 1 1 2 1
entry = 2 CUSP 2 3 5 2
entry = 3 CUSP 3 4 7 4

[task]
kind = intersection_matrix
cluster = CUSP

[task]
kind = value_vector
cluster = CUSP
element = F

[task]
kind = degree_function
divisor = D
element = F

[task]
kind = unload
divisor = D

[task]
kind = nef_envelope
divisor = DELTA

[task]
kind = multiplicity
divisor = D

[task]
kind = degree_coefficients
divisor = D

[task]
kind = rees_valuations
divisor = D

[task]
kind = multiplicity_limit
filtration = QD
nmax = 4

[task]
kind = degree_limits
filtration = EX
nmax = 3

[task]
kind = commutation
filtration = TAB
element = F
nmax = 3

[task]
kind = rees_union
filtration = QD
nmax = 4
"""

# value_vector needs coordinates; a free point without ``param=`` has none,
# so the task leaves an ERROR row, the next task still runs, and the exit is 1.
ERROR_ROW_SCENARIO = """\
[cluster BARE]
point = free parent=0

[element F]
poly = y^2 - x^3

[task]
kind = value_vector
cluster = BARE
element = F

[task]
kind = intersection_matrix
cluster = BARE
"""


# Elements that mix integer and a/b literals (including 3/1, 10/5, 4/6 and a
# zero term) on a cluster with one satellite of each crossing, so both the
# integer and the Fraction parse paths and both satellite charts feed
# value_vector, degree_function and commutation on a qdivisorial family.
MIXED_LITERALS_SCENARIO = """\
[cluster MIX]
point = free parent=0 param=1/2
point = satellite parent=1 other=0
point = free parent=2 param=-3/2
point = free parent=0 param=inf
point = satellite parent=4 other=0
point = free parent=5 param=3/4

[divisor D on MIX]
coeffs = 4 5 10 12 5 10 12

[element F]
poly = (y - 1/2*x)^2 + 3/2*x^3 - 7*x^2*y^2

[element G]
poly = 4/6*x^2 - 8/9*y^3 + 5*x*y^3

[element H]
poly = (2*x - 1/3*y)^3 - 3/1*y^4 + 0*x + 10/5*x^5

[filtration QD]
kind = qdivisorial
cluster = MIX
delta = 2 5/2 5 11/2 5/2 5 11/2

[task]
kind = value_vector
cluster = MIX
element = F

[task]
kind = value_vector
cluster = MIX
element = G

[task]
kind = value_vector
cluster = MIX
element = H

[task]
kind = degree_function
divisor = D
element = F

[task]
kind = degree_function
divisor = D
element = G

[task]
kind = degree_function
divisor = D
element = H

[task]
kind = commutation
filtration = QD
element = F
nmax = 4

[task]
kind = commutation
filtration = QD
element = G
nmax = 4
"""


def stdout_digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (
            ["example42", "--nmax", "30", "--format", "csv"],
            0,
            "ad33e66bfa141c0e6b38ee610da974b5893950910c8cd4d1e2b67fff9ee427f1",
        ),
        (
            ["example42", "--nmax", "30", "--format", "table"],
            0,
            "14d75d4e77796641a8ae696e5e4e629dd0851514230ab7cf511090fe15dfc827",
        ),
        (
            ["run", "--scenario", DEMO, "--format", "table"],
            0,
            "25e9716e727174b56da687776b25241b10e5cb468d301727fde084428ab3215b",
        ),
        (
            ["run", "--scenario", DEMO, "--format", "csv"],
            0,
            "90b020e5218159b50c417f0104b73b31ca14565c3b30a64d21a5a380253b0056",
        ),
    ],
)
def test_cli_stdout_pinned(argv, code, digest):
    assert stdout_digest(argv) == (code, digest)


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("table", "07e27dba8e54cb1cfb6d0eb4bb01e38c4d52ee8a4ccd8ab44982dc0b011a6620"),
        ("csv", "7003bc16b2e5e4b910acabae7461d684c593d21d034509478ace44d44f9d1691"),
    ],
)
def test_family_scenario_stdout_pinned(tmp_path, fmt, digest):
    scn = tmp_path / "families.scn"
    scn.write_text(FAMILIES_SCENARIO)
    assert stdout_digest(["run", "--scenario", str(scn), "--format", fmt]) == (1, digest)


def test_all_kinds_scenario_runs_every_kind_once():
    kinds = [task.kind for task in parse_scenario(ALL_KINDS_SCENARIO).tasks]
    assert kinds == list(TASK_KINDS)


@pytest.mark.parametrize(
    "text, fmt, code, digest",
    [
        (ALL_KINDS_SCENARIO, "table", 0, "8e48cf9a5b70356b9676b52a9f14c8452df3f40bb0f7899e3cc58ef0668cebb7"),
        (ALL_KINDS_SCENARIO, "csv", 0, "2fc29a84ad5adda2f398eda182b9b6fc0245d0bd98a45962b0cb1c1f891344cd"),
        (ERROR_ROW_SCENARIO, "table", 1, "04b46d68b7aa9917a405eefb1637bae53fd530afafa56008781edd79e5bf9d94"),
        (ERROR_ROW_SCENARIO, "csv", 1, "ae9fd651cdb0fb11c1aa18a985c6b7a9800f5331e0ebc35124c712c9680a704b"),
    ],
    ids=["all-kinds-table", "all-kinds-csv", "error-row-table", "error-row-csv"],
)
def test_task_kind_stdout_pinned(tmp_path, text, fmt, code, digest):
    scn = tmp_path / "kinds.scn"
    scn.write_text(text)
    assert stdout_digest(["run", "--scenario", str(scn), "--format", fmt]) == (code, digest)


@pytest.mark.parametrize(
    "fmt, digest",
    [("table", "556005f2d1a3740f5962c40733b83bed914e217775dd4723bc392a64fedbb456"), ("csv", "b0c008629201ee2d0f54b0a29d3d500e91e75b4100246337489a71428b735568")],
)
def test_run_nmax_override_stdout_pinned(fmt, digest):
    argv = ["run", "--scenario", DEMO, "--nmax", "5", "--format", fmt]
    assert stdout_digest(argv) == (0, digest)


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("table", "cc6018cd829b247f093466570c3ef012d4d19412a680201868c0d32e528b482d"),
        ("csv", "a63a52135d4d93e2651c2fc500fc858214516ada0072db781ae1df1a4d75268d"),
    ],
)
def test_mixed_literals_stdout_pinned(tmp_path, fmt, digest):
    scn = tmp_path / "mixed.scn"
    scn.write_text(MIXED_LITERALS_SCENARIO)
    assert stdout_digest(["run", "--scenario", str(scn), "--format", fmt]) == (0, digest)
