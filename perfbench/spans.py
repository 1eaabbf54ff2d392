"""Spans around the public functions of each fal_spectrum layer.

The wrappers live here, not in the package: ``install`` replaces each listed
function in every fal_spectrum namespace that holds it (``bounds`` and
``approx`` import calculus functions by name, ``cli`` calls through module
attributes).  Spans are kept in memory as parallel arrays with parent links
and written out when the run ends.  An untraced run never imports this.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from array import array
from time import perf_counter

# (module, attribute) -> span name; a span name's group is its metric family
# (the name itself, or without its last part under the prefixes in ``group``).
TARGETS = {
    ("numerics", "v_oct"): "numerics.constants",
    ("numerics", "v_tet"): "numerics.constants",
    ("numerics", "two_v_oct"): "numerics.constants",
    ("numerics", "ten_v_tet"): "numerics.constants",
    ("numerics", "pi"): "numerics.constants",
    ("numerics", "lobachevsky"): "numerics.constants",
    ("numerics", "combination"): "numerics.combination",
    ("numerics", "fraction_to_decimal"): "numerics.fraction_to_decimal",
    ("numerics", "exact_decimal_string"): "numerics.exact_decimal_string",
    ("catalog", "load_catalog"): "catalog.load",
    ("catalog", "load_catalog_file"): "catalog.load",
    ("catalog", "validate_entry"): "catalog.validate",
    ("catalog", "ExactVolume.__init__"): "catalog.exactvolume.new",
    ("catalog", "ExactVolume.__add__"): "catalog.exactvolume",
    ("catalog", "ExactVolume.__mul__"): "catalog.exactvolume",
    ("catalog", "ExactVolume.evaluate"): "catalog.exactvolume",
    ("catalog", "Catalog.__getitem__"): "catalog.lookup",
    ("catalog", "Catalog.__contains__"): "catalog.lookup",
    ("calculus", "composition"): "calculus.composition",
    ("calculus", "belted_sum"): "calculus.composition.belted_sum",
    ("calculus", "self_sum"): "calculus.composition.self_sum",
    ("calculus", "replicate"): "calculus.composition.replicate",
    ("calculus", "volume"): "calculus.volume",
    ("calculus", "vd"): "calculus.density",
    ("calculus", "vd_mod"): "calculus.density",
    ("calculus", "DensityValue.exact_string"): "calculus.exact_string",
    ("calculus", "exact_combo_string"): "calculus.exact_string",
    ("calculus", "parse_recipe"): "calculus.recipe",
    ("calculus", "format_recipe"): "calculus.recipe",
    ("calculus", "replication_error"): "calculus.replication_error",
    ("approx", "approximate_vd"): "approx.search.vd",
    ("approx", "approximate_vd_mod"): "approx.search.vd_mod",
    ("approx", "best_rational_approximations"): "approx.convergents",
    ("bounds", "spectrum_scan"): "bounds.scan",
    ("bounds", "classify"): "bounds.query",
    ("bounds", "max_augmentations_below"): "bounds.query",
    ("bounds", "miyamoto_volume_lower_bound"): "bounds.query",
    ("bounds", "vd_lower_bound"): "bounds.query",
    ("bounds", "euler_characteristic"): "bounds.query",
    ("cli", "main"): "cli.main",
}

LAYERS = ("numerics", "catalog", "calculus", "approx", "bounds", "cli")


def _size(result) -> int:
    """Span value: rows of a scan, convergents listed, m of a vd recipe."""
    if isinstance(result, list):
        return len(result)
    return min(getattr(result, "m", 0) if getattr(result, "mode", "") == "vd" else 0, 2**62)


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.errors: dict[int, str] = {}
        self.stack = [-1]
        self.current_op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.value.append(0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int, value: int = 0, error: str | None = None) -> None:
        self.end[i] = perf_counter()
        while self.stack.pop() != i:
            pass
        if value:
            self.value[i] = value
        if error:
            self.errors[i] = error

    def wrap(self, fn, span: str):
        name_id = self.name_id(span)
        measure = span in ("bounds.scan", "approx.convergents", "approx.search.vd")
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(i, 0, type(exc).__name__)
                raise
            close(i, _size(result) if measure else 0)
            return result

        return traced

    def dump(self, path: str, **extra) -> None:
        """Write the spans as JSON (used by traced CLI children)."""
        doc = {key: getattr(self, key).tolist() for key in ("name", "parent", "start", "end", "value")}
        doc.update(names=self.names, errors=self.errors, **extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

    def merge_child(self, path: str, spawned: float) -> dict:
        """Append a child's spans under the current op; return its start-up times."""
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        offset = len(self.name)
        ids = [self.name_id(name) for name in doc["names"]]
        self.name.extend(ids[n] for n in doc["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in doc["parent"])
        self.op.extend([self.current_op] * len(doc["name"]))
        for key in ("start", "end", "value"):
            getattr(self, key).extend(doc[key])
        self.errors.update({int(i) + offset: e for i, e in doc["errors"].items()})
        return {"interpreter_s": doc["started"] - spawned, "import_s": doc["imported"] - doc["started"]}

    def write_tsv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\top\tname\tstart\tend\tvalue\terror\n")
            for i in range(len(self.name)):
                handle.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.value[i]}\t{self.errors.get(i, '')}\n"
                )


class Patch:
    """The wrapped functions and where they were installed; switchable."""

    def __init__(self) -> None:
        self.sites: list[tuple[object, str, object, object]] = []

    def enable(self, on: bool) -> None:
        for owner, key, original, wrapped in self.sites:
            setattr(owner, key, wrapped if on else original)


def install(recorder: Recorder) -> Patch:
    """Wrap every target in every fal_spectrum namespace that holds it."""
    for module_name in LAYERS:
        importlib.import_module(f"fal_spectrum.{module_name}")
    modules = [m for name, m in sys.modules.items() if name == "fal_spectrum" or name.startswith("fal_spectrum.")]
    patch = Patch()
    for (module_name, attr), span in TARGETS.items():
        owner = sys.modules[f"fal_spectrum.{module_name}"]
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            namespaces = [getattr(owner, cls_name)]  # aliases such as __rmul__ share the function
            original = vars(namespaces[0])[method]
        else:
            namespaces = modules
            original = getattr(owner, attr)
        wrapped = recorder.wrap(original, span)
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    patch.sites.append((namespace, key, original, wrapped))
    patch.enable(True)
    return patch


def layer_metrics(rec: Recorder, traced: list, plain: list, startup: list[dict], via_cli: bool) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced pass, as name -> (value, unit)."""
    n = len(rec.name)
    names = rec.names
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    kids: dict[int, list[int]] = {}
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += dur[i]
            kids.setdefault(p, []).append(i)
    span_name = [names[rec.name[i]] for i in range(n)]

    def group(span: str) -> str:
        return span.rsplit(".", 1)[0] if span.startswith(("approx.search.", "catalog.exactvolume.", "calculus.composition.")) else span

    self_s: dict[str, float] = {}
    outer: dict[str, list[int]] = {}  # outermost spans of each group
    for i in range(n):
        g = group(span_name[i])
        self_s[g] = self_s.get(g, 0.0) + dur[i] - child[i]
        p = rec.parent[i]
        if p < 0 or group(span_name[p]) != g:
            outer.setdefault(g, []).append(i)
    calls = {g: len(spans) for g, spans in outer.items()}

    def spans_named(name: str):
        return [i for i in range(n) if span_name[i] == name]

    wall = sum(o.seconds for o in traced)
    units = sum(o.units for o in traced)
    m: dict[str, tuple[float, str]] = {}

    def put(name: str, value, unit: str) -> None:
        m[name] = (value, unit)

    def family(name: str) -> None:
        put(f"{name}.calls", calls.get(name, 0), "count")
        put(f"{name}.self_s", self_s.get(name, 0.0), "s")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    family("numerics.constants")
    family("numerics.combination")
    put("numerics.fraction_to_decimal.calls", sum(1 for s in span_name if s == "numerics.fraction_to_decimal"), "count")
    family("numerics.exact_decimal_string")

    family("catalog.load")
    new = sum(1 for s in span_name if s == "catalog.exactvolume.new")
    put("catalog.exactvolume.new", new, "count")
    put("catalog.exactvolume.self_s", self_s.get("catalog.exactvolume", 0.0), "s")
    put("catalog.exactvolume.per_row", ratio(new, units), "ratio")
    put("catalog.lookup.calls", calls.get("catalog.lookup", 0), "count")

    family("calculus.composition")
    family("calculus.volume")
    family("calculus.density")
    put("calculus.rows_per_volume", ratio(units, sum(1 for s in span_name if s == "calculus.volume")), "ratio")
    family("calculus.exact_string")

    family("approx.search")
    listed = sum(rec.value[i] for i in spans_named("approx.convergents"))
    tried = sum(
        1 for i in spans_named("approx.search.vd_mod") for c in kids.get(i, ()) if span_name[c] == "calculus.composition"
    )
    found = sum(1 for i in outer.get("approx.search", ()) if i not in rec.errors)
    extra = sum(
        max(0, sum(1 for c in kids.get(i, ()) if span_name[c] == "calculus.replication_error") - 1)
        for i in spans_named("approx.search.vd")
    )
    put("approx.convergents.listed", listed, "count")
    put("approx.convergents.tried", tried, "count")
    put("approx.hit_ratio", ratio(found, tried), "ratio")
    put("approx.replication.m_max", max((rec.value[i] for i in spans_named("approx.search.vd")), default=0), "count")
    put("approx.replication.extra_steps", extra, "count")

    scans = spans_named("bounds.scan")
    refused = [i for i in scans if rec.errors.get(i) == "CapExceededError"]
    rows = sum(rec.value[i] for i in scans)
    family("bounds.scan")
    put("bounds.scan.rows", rows, "count")
    put("bounds.scan.rows_per_s", ratio(rows, sum(dur[i] for i in scans)), "1/s")
    put("bounds.scan.refusals", len(refused), "count")
    put("bounds.scan.refusal_s", sum(dur[i] for i in refused), "s")
    family("bounds.query")

    family("cli.main")
    put("cli.output_bytes", sum(o.out_bytes for o in traced) if via_cli else 0, "bytes")
    put("cli.import_s", statistics.median(s["import_s"] for s in startup), "s")
    put("cli.interpreter_s", statistics.median(s["interpreter_s"] for s in startup), "s")
    put("cli.error_exits", sum(1 for o in traced if o.exit_code != 0) if via_cli else 0, "count")
    put("cli.tracebacks", sum(1 for o in traced if o.exception) if via_cli else 0, "count")

    for layer in LAYERS:
        layer_self = sum(v for g, v in self_s.items() if g.split(".")[0] == layer)
        put(f"{layer}.share", ratio(layer_self, wall), "ratio")
    put("trace.overhead", ratio(wall, sum(o.seconds for o in plain)), "ratio")
    return m
