"""Golden stdout: sha256 digests of whole CLI runs, pinned byte for byte.

The digests were recorded before the family specs took over their own closed
forms and default labels, so any change to what a run prints, in either
output format, fails here.  The inline scenario runs every family task on
each family kind: the explicit tables cover the estimate path and, over two
clusters, the commutation error row with exit status 1.
"""

import contextlib
import hashlib
import io
import os

import pytest

from antinef.cli import main

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
