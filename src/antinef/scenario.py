"""Line-based scenario files: clusters, divisors, elements, filtrations, tasks.

The grammar is deliberately small.  Sections open with a bracketed header
and hold ``key = value`` lines; ``#`` starts a comment; rationals are
written ``a/b``; whitespace separates list items.  Every name a task
references must be defined earlier in the file.  See
``docs/scenario-grammar.md`` for the EBNF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .cluster import Cluster, new_cluster
from .curves import PlaneElement, parse_poly
from .divisor import ExcDivisor, divisor
from .errors import PolynomialSyntaxError, ScenarioError
from .filtration import (
    Example42Spec,
    ExplicitSpec,
    FiltrationSpec,
    QDivisorialSpec,
    parse_label,
)
from .rationals import parse_param, parse_rational

__all__ = ["Scenario", "Task", "parse_scenario", "TASK_KINDS"]

TASK_KINDS = frozenset(
    {
        "intersection_matrix",
        "value_vector",
        "degree_function",
        "unload",
        "nef_envelope",
        "multiplicity",
        "degree_coefficients",
        "rees_valuations",
        "multiplicity_limit",
        "degree_limits",
        "commutation",
        "rees_union",
    }
)

_TASK_TARGETS = {
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

_NEEDS_NMAX = frozenset(
    {"multiplicity_limit", "degree_limits", "commutation", "rees_union"}
)


@dataclass
class Task:
    kind: str
    line: int
    cluster: Optional[Cluster] = None
    divisor: Optional[ExcDivisor] = None
    element: Optional[PlaneElement] = None
    element_name: Optional[str] = None
    filtration: Optional[FiltrationSpec] = None
    filtration_name: Optional[str] = None
    cluster_name: Optional[str] = None
    divisor_name: Optional[str] = None
    nmax: Optional[int] = None
    labels: Optional[tuple[int, ...]] = None


@dataclass
class Scenario:
    clusters: dict[str, Cluster] = field(default_factory=dict)
    divisors: dict[str, ExcDivisor] = field(default_factory=dict)
    elements: dict[str, PlaneElement] = field(default_factory=dict)
    filtrations: dict[str, FiltrationSpec] = field(default_factory=dict)
    tasks: list[Task] = field(default_factory=list)


def _split_kv(line: str, lineno: int) -> tuple[str, str]:
    if "=" not in line:
        raise ScenarioError(f"expected key = value, got {line!r}", lineno)
    key, _, value = line.partition("=")
    return key.strip(), value.strip()


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
    try:
        if kind == "free":
            parent = int(opts.pop("parent"))
            param = parse_param(opts["param"]) if "param" in opts else None
            opts.pop("param", None)
            if opts:
                raise ScenarioError(f"unknown point options {sorted(opts)}", lineno)
            scenario_cluster.add_free_point(parent, param)
        elif kind == "satellite":
            parent = int(opts.pop("parent"))
            other = int(opts.pop("other"))
            if opts:
                raise ScenarioError(f"unknown point options {sorted(opts)}", lineno)
            scenario_cluster.add_satellite_point(parent, other)
        else:
            raise ScenarioError(f"unknown point kind {kind!r}", lineno)
    except KeyError as exc:
        raise ScenarioError(f"point is missing option {exc}", lineno) from None
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(str(exc), lineno) from None


class _SectionReader:
    """Accumulates the key=value lines of one section, then builds the object."""

    def __init__(self, header: str, lineno: int):
        self.header = header
        self.lineno = lineno
        self.lines: list[tuple[int, str, str]] = []

    def add(self, lineno: int, key: str, value: str):
        self.lines.append((lineno, key, value))

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


def _coeff_list(text: str, lineno: int) -> list[Fraction]:
    try:
        return [parse_rational(tok) for tok in text.split()]
    except ValueError as exc:
        raise ScenarioError(str(exc), lineno) from None


def _check_fresh(pool: dict, kind: str, name: str, lineno: int):
    if name in pool:
        raise ScenarioError(f"duplicate {kind} name {name!r}", lineno)


def _finish_cluster(sc: Scenario, name: str, reader: _SectionReader):
    _check_fresh(sc.clusters, "cluster", name, reader.lineno)
    reader.known_keys({"point"})
    cluster = new_cluster()
    for lineno, key, value in reader.lines:
        _parse_point_line(cluster, value, lineno)
    sc.clusters[name] = cluster


def _finish_divisor(sc: Scenario, name: str, cluster_name: str, reader: _SectionReader):
    _check_fresh(sc.divisors, "divisor", name, reader.lineno)
    reader.known_keys({"coeffs"})
    if cluster_name not in sc.clusters:
        raise ScenarioError(f"undefined cluster {cluster_name!r}", reader.lineno)
    lineno, text = reader.single("coeffs")
    coeffs = _coeff_list(text, lineno)
    cluster = sc.clusters[cluster_name]
    if len(coeffs) != cluster.n_curves:
        raise ScenarioError(
            f"divisor has {len(coeffs)} coefficients but cluster "
            f"{cluster_name!r} has {cluster.n_curves} curves",
            lineno,
        )
    sc.divisors[name] = divisor(cluster, coeffs)


def _finish_element(sc: Scenario, name: str, reader: _SectionReader):
    _check_fresh(sc.elements, "element", name, reader.lineno)
    reader.known_keys({"poly"})
    lineno, text = reader.single("poly")
    try:
        sc.elements[name] = parse_poly(text)
    except (PolynomialSyntaxError, ValueError) as exc:
        raise ScenarioError(f"bad polynomial: {exc}", lineno) from None


def _finish_filtration(sc: Scenario, name: str, reader: _SectionReader):
    _check_fresh(sc.filtrations, "filtration", name, reader.lineno)
    lineno, kind = reader.single("kind")
    if kind == "qdivisorial":
        reader.known_keys({"kind", "divisor", "cluster", "delta"})
        div = reader.single("divisor", required=False)
        if div is not None:
            dl, dname = div
            if dname not in sc.divisors:
                raise ScenarioError(f"undefined divisor {dname!r}", dl)
            delta = sc.divisors[dname]
        else:
            cl, cname = reader.single("cluster")
            if cname not in sc.clusters:
                raise ScenarioError(f"undefined cluster {cname!r}", cl)
            dl, text = reader.single("delta")
            coeffs = _coeff_list(text, dl)
            cluster = sc.clusters[cname]
            if len(coeffs) != cluster.n_curves:
                raise ScenarioError(
                    f"delta has {len(coeffs)} coefficients but cluster "
                    f"{cname!r} has {cluster.n_curves} curves",
                    dl,
                )
            delta = divisor(cluster, coeffs)
        try:
            sc.filtrations[name] = QDivisorialSpec(delta=delta)
        except ValueError as exc:
            raise ScenarioError(str(exc), lineno) from None
    elif kind == "example42":
        reader.known_keys({"kind", "params"})
        params = reader.single("params", required=False)
        tup = None
        if params is not None:
            pl, text = params
            tup = tuple(_coeff_list(text, pl))
        try:
            sc.filtrations[name] = Example42Spec(params=tup)
        except ValueError as exc:
            raise ScenarioError(str(exc), lineno) from None
    elif kind == "explicit":
        reader.known_keys({"kind", "entry"})
        table = {}
        for el, key, value in reader.lines:
            if key != "entry":
                continue
            fields = value.split()
            if len(fields) < 2:
                raise ScenarioError("entry needs: n cluster-name coefficients", el)
            try:
                n = int(fields[0])
            except ValueError:
                raise ScenarioError(f"bad index {fields[0]!r}", el) from None
            cname = fields[1]
            if cname not in sc.clusters:
                raise ScenarioError(f"undefined cluster {cname!r}", el)
            cluster = sc.clusters[cname]
            coeffs = _coeff_list(" ".join(fields[2:]), el)
            if len(coeffs) != cluster.n_curves:
                raise ScenarioError(
                    f"entry has {len(coeffs)} coefficients but cluster "
                    f"{cname!r} has {cluster.n_curves} curves",
                    el,
                )
            table[n] = (cluster, divisor(cluster, coeffs))
        if not table:
            raise ScenarioError("explicit filtration needs at least one entry", lineno)
        sc.filtrations[name] = ExplicitSpec(table=table)
    else:
        raise ScenarioError(f"unknown filtration kind {kind!r}", lineno)


def _finish_task(sc: Scenario, reader: _SectionReader):
    lineno, kind = reader.single("kind")
    if kind not in TASK_KINDS:
        raise ScenarioError(f"unknown task kind {kind!r}", lineno)
    allowed = {"kind", "nmax", "labels"} | set(_TASK_TARGETS[kind])
    reader.known_keys(allowed)
    task = Task(kind=kind, line=reader.lineno)
    for target in _TASK_TARGETS[kind]:
        tl, tname = reader.single(target)
        pool = getattr(sc, target + "s")
        if tname not in pool:
            raise ScenarioError(f"undefined {target} {tname!r}", tl)
        setattr(task, target, pool[tname])
        setattr(task, f"{target}_name", tname)
    if kind in _NEEDS_NMAX:
        nl, text = reader.single("nmax")
        try:
            task.nmax = int(text)
        except ValueError:
            raise ScenarioError(f"bad nmax {text!r}", nl) from None
        if task.nmax < 1:
            raise ScenarioError("nmax must be positive", nl)
    labels = reader.single("labels", required=False)
    if labels is not None:
        if kind != "degree_limits":
            raise ScenarioError("labels only apply to degree_limits tasks", labels[0])
        try:
            task.labels = tuple(parse_label(tok) for tok in labels[1].split())
        except ValueError as exc:
            raise ScenarioError(str(exc), labels[0]) from None
    if kind == "degree_limits" and task.labels is None:
        task.labels = task.filtration.default_labels()  # None: v0..v(nmax) at run time
    sc.tasks.append(task)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text; errors carry line numbers."""
    sc = Scenario()
    reader: Optional[_SectionReader] = None
    finish = None

    def close_section():
        nonlocal reader, finish
        if reader is not None:
            finish(reader)
        reader, finish = None, None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError("unterminated section header", lineno)
            close_section()
            header = line[1:-1].strip()
            fields = header.split()
            if not fields:
                raise ScenarioError("empty section header", lineno)
            section = fields[0]
            if section == "cluster":
                if len(fields) != 2:
                    raise ScenarioError("expected [cluster NAME]", lineno)
                name = fields[1]
                reader = _SectionReader(header, lineno)
                finish = lambda r, n=name: _finish_cluster(sc, n, r)
            elif section == "divisor":
                if len(fields) != 4 or fields[2] != "on":
                    raise ScenarioError("expected [divisor NAME on CLUSTER]", lineno)
                name, cname = fields[1], fields[3]
                reader = _SectionReader(header, lineno)
                finish = lambda r, n=name, c=cname: _finish_divisor(sc, n, c, r)
            elif section == "element":
                if len(fields) != 2:
                    raise ScenarioError("expected [element NAME]", lineno)
                name = fields[1]
                reader = _SectionReader(header, lineno)
                finish = lambda r, n=name: _finish_element(sc, n, r)
            elif section == "filtration":
                if len(fields) != 2:
                    raise ScenarioError("expected [filtration NAME]", lineno)
                name = fields[1]
                reader = _SectionReader(header, lineno)
                finish = lambda r, n=name: _finish_filtration(sc, n, r)
            elif section == "task":
                if len(fields) != 1:
                    raise ScenarioError("expected [task]", lineno)
                reader = _SectionReader(header, lineno)
                finish = lambda r: _finish_task(sc, r)
            else:
                raise ScenarioError(f"unknown section {section!r}", lineno)
            continue
        if reader is None:
            raise ScenarioError(f"content outside any section: {line!r}", lineno)
        key, value = _split_kv(line, lineno)
        reader.add(lineno, key, value)
    close_section()
    return sc
