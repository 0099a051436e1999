"""Line-based scenario files: clusters, divisors, elements, filtrations, tasks.

The grammar is deliberately small.  Sections open with a bracketed header
and hold ``key = value`` lines; ``#`` starts a comment; rationals are
written ``a/b``; whitespace separates list items.  Every name a task
references must be defined earlier in the file.  See
``docs/scenario-grammar.md`` for the EBNF.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Optional

from .cluster import Cluster, new_cluster
from .curves import PlaneElement, parse_poly
from .divisor import ExcDivisor, divisor
from .errors import ScenarioError
from .filtration import (
    Example42Spec,
    ExplicitSpec,
    FiltrationSpec,
    QDivisorialSpec,
    parse_label,
)
from .rationals import MAX_DIGITS, parse_integer, parse_param, parse_rational

__all__ = ["Scenario", "Task", "parse_scenario", "TASK_KINDS", "MAX_NMAX", "MAX_POINTS"]

#: The largest ``nmax`` a task or the CLI accepts.  A sweep to N keeps its N
#: members alive, O(N^2) data in all (about 160 MB at N = 800).
MAX_NMAX = 1000
#: The most ``point`` lines a cluster section takes.  The dense
#: ``intersection_matrix`` task is O(n^2) in time and in output.
MAX_POINTS = 2000

#: Every task kind, with the named objects it takes.  A kind that takes a
#: filtration also needs ``nmax``.
TASK_KINDS = MappingProxyType(
    {
        "intersection_matrix": ("cluster",),
        "value_vector": ("cluster", "element"),
        "degree_function": ("divisor", "element"),
        "unload": ("divisor",),
        "nef_envelope": ("divisor",),
        "multiplicity": ("divisor",),
        "degree_coefficients": ("divisor",),
        "rees_valuations": ("divisor",),
        "multiplicity_limit": ("filtration",),
        "degree_limits": ("filtration",),
        "commutation": ("filtration", "element"),
        "rees_union": ("filtration",),
    }
)


class Task:
    """One task: its kind, then the objects it takes, their names and its
    options, each None until the scenario reader sets it."""

    __slots__ = ("kind", "cluster", "divisor", "element", "element_name", "filtration",
                 "filtration_name", "cluster_name", "divisor_name", "nmax", "labels")

    def __init__(self, kind: str):
        self.kind = kind
        self.cluster = self.divisor = self.element = self.filtration = None
        self.cluster_name = self.divisor_name = self.element_name = self.filtration_name = None
        self.nmax = self.labels = None


class Scenario:
    """The named objects of a scenario file, each kind in its own dict, and its tasks."""

    __slots__ = ("clusters", "divisors", "elements", "filtrations", "tasks")

    def __init__(self):
        self.clusters: dict[str, Cluster] = {}
        self.divisors: dict[str, ExcDivisor] = {}
        self.elements: dict[str, PlaneElement] = {}
        self.filtrations: dict[str, FiltrationSpec] = {}
        self.tasks: list[Task] = []


def _split_kv(line: str, lineno: int) -> tuple[str, str]:
    if "=" not in line:
        raise ScenarioError(f"expected key = value, got {line!r}", lineno)
    key, _, value = line.partition("=")
    return key.strip(), value.strip()


def _nat(text: str, what: str, lineno: int) -> int:
    """Read a ``nat`` of the grammar: ASCII digits only, no ``+``, ``_`` or exponent.

    A leading ``-`` is read too, so that the caller's range check names the fault.
    """
    try:
        return parse_integer(text, what)
    except ValueError as exc:
        too_long = len(text) > MAX_DIGITS
        raise ScenarioError(str(exc) if too_long else f"bad {what} {text!r}", lineno) from None


#: Point kind -> the Cluster method that adds it, its point-index options and
#: its optional ``param`` option, in the method's argument order.
_POINT_KINDS = {
    "free": ("add_free_point", ("parent",), ("param",)),
    "satellite": ("add_satellite_point", ("parent", "other"), ()),
}


def _parse_point_line(scenario_cluster: Cluster, value: str, lineno: int):
    fields = value.split()
    if not fields:
        raise ScenarioError("empty point definition", lineno)
    kind, opts = fields[0], {}
    for item in fields[1:]:
        if "=" not in item:
            raise ScenarioError(f"expected name=value in point options, got {item!r}", lineno)
        k, _, v = item.partition("=")
        opts[k] = v
    if kind not in _POINT_KINDS:
        raise ScenarioError(f"unknown point kind {kind!r}", lineno)
    method, indices, optional = _POINT_KINDS[kind]
    try:
        args = [_nat(opts.pop(key), key, lineno) for key in indices]
        args += [parse_param(opts.pop(key)) if key in opts else None for key in optional]
        if opts:
            raise ScenarioError(f"unknown point options {sorted(opts)}", lineno)
        getattr(scenario_cluster, method)(*args)
    except KeyError as exc:
        raise ScenarioError(f"point is missing option {exc}", lineno) from None
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(str(exc), lineno) from None


class _SectionReader:
    """Accumulates the key=value lines of one section, then builds the object."""

    def __init__(self, header: str, lineno: int, groups: dict[str, PlaneElement]):
        self.header = header
        self.lineno = lineno
        self.lines: list[tuple[int, str, str]] = []
        #: The file's parenthesized polynomial groups parsed so far, shared
        #: by all of its sections and kept for this one parse only.
        self.groups = groups

    def single(self, key: str, required: bool = True) -> Optional[tuple[int, str]]:
        hits = [(no, v) for no, k, v in self.lines if k == key]
        if not hits:
            if required:
                raise ScenarioError(f"section is missing key {key!r}", self.lineno)
            return None
        if len(hits) > 1:
            raise ScenarioError(f"duplicate key {key!r}", hits[1][0])
        return hits[0]

    def known_keys(self, allowed: set[str]):
        for no, k, _ in self.lines:
            if k not in allowed:
                raise ScenarioError(f"unknown key {k!r} in [{self.header}]", no)


def _coeff_list(text: str, lineno: int, what: str = "coefficient") -> list[Fraction]:
    try:
        return [parse_rational(tok, what) for tok in text.split()]
    except ValueError as exc:
        raise ScenarioError(str(exc), lineno) from None


def _check_fresh(pool: dict, kind: str, name: str, lineno: int):
    if name in pool:
        raise ScenarioError(f"duplicate {kind} name {name!r}", lineno)


def _named(pool: dict, kind: str, name: str, lineno: int):
    """The object ``name`` refers to, which an earlier section must define."""
    if name not in pool:
        raise ScenarioError(f"undefined {kind} {name!r}", lineno)
    return pool[name]


def _divisor_on(cluster: Cluster, cname: str, text: str, lineno: int, what: str):
    """The divisor with coefficients ``text`` on ``cluster``, one per curve."""
    coeffs = _coeff_list(text, lineno)
    if len(coeffs) != cluster.n_curves:
        raise ScenarioError(
            f"{what} has {len(coeffs)} coefficients but cluster "
            f"{cname!r} has {cluster.n_curves} curves",
            lineno,
        )
    return divisor(cluster, coeffs)


def _finish_cluster(sc: Scenario, reader: _SectionReader, name: str):
    _check_fresh(sc.clusters, "cluster", name, reader.lineno)
    reader.known_keys({"point"})
    if len(reader.lines) > MAX_POINTS:
        lineno = reader.lines[MAX_POINTS][0]  # the first point line past the cap
        raise ScenarioError(f"a cluster takes at most {MAX_POINTS} point lines", lineno)
    cluster = new_cluster()
    for lineno, key, value in reader.lines:
        _parse_point_line(cluster, value, lineno)
    sc.clusters[name] = cluster


def _finish_divisor(sc: Scenario, reader: _SectionReader, name: str, cluster_name: str):
    _check_fresh(sc.divisors, "divisor", name, reader.lineno)
    reader.known_keys({"coeffs"})
    cluster = _named(sc.clusters, "cluster", cluster_name, reader.lineno)
    lineno, text = reader.single("coeffs")
    sc.divisors[name] = _divisor_on(cluster, cluster_name, text, lineno, "divisor")


def _finish_element(sc: Scenario, reader: _SectionReader, name: str):
    _check_fresh(sc.elements, "element", name, reader.lineno)
    reader.known_keys({"poly"})
    lineno, text = reader.single("poly")
    try:
        sc.elements[name] = parse_poly(text, _groups=reader.groups)
    except ValueError as exc:
        raise ScenarioError(f"bad polynomial: {exc}", lineno) from None


def _qdivisorial_args(sc: Scenario, reader: _SectionReader) -> dict:
    div = reader.single("divisor", required=False)
    if div is not None:
        return {"delta": _named(sc.divisors, "divisor", div[1], div[0])}
    cl, cname = reader.single("cluster")
    cluster = _named(sc.clusters, "cluster", cname, cl)
    dl, text = reader.single("delta")
    return {"delta": _divisor_on(cluster, cname, text, dl, "delta")}


def _example42_args(sc: Scenario, reader: _SectionReader) -> dict:
    params = reader.single("params", required=False)
    if params is None:
        return {"params": None}
    return {"params": tuple(_coeff_list(params[1], params[0], "param"))}


def _explicit_args(sc: Scenario, reader: _SectionReader) -> dict:
    table = {}
    for el, key, value in reader.lines:
        if key != "entry":
            continue
        fields = value.split()
        if len(fields) < 2:
            raise ScenarioError("entry needs: n cluster-name coefficients", el)
        n = _nat(fields[0], "index", el)
        if n < 1:
            raise ScenarioError("entry index must be positive", el)
        if n in table:
            raise ScenarioError(f"duplicate entry index {n}", el)
        cluster = _named(sc.clusters, "cluster", fields[1], el)
        table[n] = _divisor_on(cluster, fields[1], " ".join(fields[2:]), el, "entry")
        if not table[n].is_integral():
            raise ScenarioError("entry coefficients must be integers", el)
    return {"table": table}


#: Filtration kind -> (its spec class, the keys its section takes besides
#: ``kind``, and the reader of the class's arguments from the section).
_FILTRATION_KINDS = {
    "qdivisorial": (QDivisorialSpec, {"divisor", "cluster", "delta"}, _qdivisorial_args),
    "example42": (Example42Spec, {"params"}, _example42_args),
    "explicit": (ExplicitSpec, {"entry"}, _explicit_args),
}


def _finish_filtration(sc: Scenario, reader: _SectionReader, name: str):
    _check_fresh(sc.filtrations, "filtration", name, reader.lineno)
    lineno, kind = reader.single("kind")
    if kind not in _FILTRATION_KINDS:
        raise ScenarioError(f"unknown filtration kind {kind!r}", lineno)
    spec, keys, read_args = _FILTRATION_KINDS[kind]
    reader.known_keys({"kind", *keys})
    args = read_args(sc, reader)
    try:
        sc.filtrations[name] = spec(**args)
    except ValueError as exc:
        raise ScenarioError(str(exc), lineno) from None


def _finish_task(sc: Scenario, reader: _SectionReader):
    lineno, kind = reader.single("kind")
    if kind not in TASK_KINDS:
        raise ScenarioError(f"unknown task kind {kind!r}", lineno)
    targets = TASK_KINDS[kind]
    reader.known_keys({"kind", "nmax", "labels", *targets})
    task = Task(kind)
    for target in targets:
        tl, tname = reader.single(target)
        setattr(task, target, _named(getattr(sc, target + "s"), target, tname, tl))
        setattr(task, f"{target}_name", tname)
    if "filtration" in targets:
        nl, text = reader.single("nmax")
        task.nmax = _nat(text, "nmax", nl)
        if task.nmax < 1:
            raise ScenarioError("nmax must be positive", nl)
        if task.nmax > MAX_NMAX:
            raise ScenarioError(f"nmax must be at most {MAX_NMAX}", nl)
    labels = reader.single("labels", required=False)
    if kind != "degree_limits":
        if labels is not None:
            raise ScenarioError("labels only apply to degree_limits tasks", labels[0])
    elif labels is None:
        task.labels = task.filtration.default_labels()  # None: v0..v(nmax) at run time
    else:
        try:
            task.labels = tuple(parse_label(tok) for tok in labels[1].split())
        except ValueError as exc:
            raise ScenarioError(str(exc), labels[0]) from None
    sc.tasks.append(task)


#: Section name -> (its header, with the names it binds in capitals, and the
#: function that builds the section's object from its lines and those names).
_SECTIONS = {
    "cluster": ("[cluster NAME]", _finish_cluster),
    "divisor": ("[divisor NAME on CLUSTER]", _finish_divisor),
    "element": ("[element NAME]", _finish_element),
    "filtration": ("[filtration NAME]", _finish_filtration),
    "task": ("[task]", _finish_task),
}


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text; errors carry line numbers.

    The ``poly =`` lines share one memo of parenthesized groups, kept for
    this call only: each distinct group text is parsed once per scenario.
    """
    sc = Scenario()
    reader: Optional[_SectionReader] = None
    finish, names, groups = None, (), {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError("unterminated section header", lineno)
            if reader is not None:
                finish(sc, reader, *names)
            header = line[1:-1].strip()
            fields = header.split()
            if not fields:
                raise ScenarioError("empty section header", lineno)
            if fields[0] not in _SECTIONS:
                raise ScenarioError(f"unknown section {fields[0]!r}", lineno)
            shape, finish = _SECTIONS[fields[0]]
            words = shape[1:-1].split()
            if len(fields) != len(words) or any(
                w.islower() and w != f for w, f in zip(words, fields)
            ):
                raise ScenarioError(f"expected {shape}", lineno)
            names = [f for w, f in zip(words, fields) if w.isupper()]
            reader = _SectionReader(header, lineno, groups)
            continue
        if reader is None:
            raise ScenarioError(f"content outside any section: {line!r}", lineno)
        reader.lines.append((lineno, *_split_kv(line, lineno)))
    if reader is not None:
        finish(sc, reader, *names)
    return sc
