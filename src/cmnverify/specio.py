"""Network spec files and certificate documents (UTF-8 JSON, version "1").

Spec files may write any real as a JSON number, a decimal string, or an
exact rational "p/q"; rationals are converted to the nearest double on
input.  Serialization is canonical (sorted keys, repr-shortest floats,
"inf" for infinities) so certificates are byte-reproducible for a given
tool version.  The builders of documents write an infinite float as the
string "inf" or "-inf" where they emit it, so ``canonical_json`` writes
their values with the stdlib C encoder alone; its recursive clean-up walk
is only the fallback for documents a caller built with raw infinities.
A certificate's entry list, one object per Kronecker entry, is written
straight from the report's columns (``EntryTable``) as JSON text, each
distinct value of a column formatted once; ``canonical_json`` puts that
text between the document's sorted keys as it is.

Top-level spec keys::

    format_version  "1"
    graph           {"d": int, "edges": [[m, l], ...]}
    nodes           [{"u", "s", "map", "hsets", "transition", "unified"?,
                      "chart_forms"?}, ...]
    coupling        {"kind": "type1"|"type2", "matrix", "ambient"?,
                     "per_entry"?}

A map is either {"breakpoints": [...], "pieces": [[slope, intercept],...]}
on the line, or {"dim_in", "dim_out", "pieces": [{"matrix", "offset",
"normals", "bounds"}, ...]} in general.  A chart is {"linear", "offset"};
node entries carry the (u, s) split.  ``chart_forms`` maps each source
symbol, written as an integer key such as "1", to {"U", "V"?}, for both
coupling kinds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from .covering import ProductFormMap
from .geometry import (AffineChart, AffinePiece, CenterScale, GeometryError, HSet,
                       PiecewiseAffineMap, UnifiedSet)
from .network import (CouplingSpec, EntryTable, Graph, NetworkSpec, NodeSystem, SpecError,
                      TheoremReport, TYPE_I, TYPE_II, entry_failures)
from .symbolic import TransitionMatrix

FORMAT_VERSION = "1"
TOOL_NAME = "cmnverify"


class SpecFormatError(ValueError):
    """Malformed spec document; the message carries the JSON path."""


def _num(value, path: str) -> float:
    if isinstance(value, bool):
        raise SpecFormatError(f"{path}: booleans are not numbers")
    if isinstance(value, (int, float)):
        x = float(value)
    elif isinstance(value, str):
        try:
            x = float(Fraction(value)) if "/" in value else float(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFormatError(f"{path}: cannot read number {value!r}") from exc
    else:
        raise SpecFormatError(f"{path}: expected a number, got {type(value).__name__}")
    if not math.isfinite(x):
        raise SpecFormatError(f"{path}: number must be finite, got {value!r}")
    return x


def _int(value, path: str) -> int:
    """An integer written as a JSON integer, an integral float, or a string."""
    if isinstance(value, bool):
        raise SpecFormatError(f"{path}: booleans are not integers")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise SpecFormatError(f"{path}: expected an integer, got {value!r}")


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SpecFormatError(f"{path}: expected a list, got {type(value).__name__}")
    return value


def _pair(value, path: str) -> tuple[int, int]:
    if len(_list(value, path)) != 2:
        raise SpecFormatError(f"{path}: expected a pair [a, b], got {len(value)} entries")
    return _int(value[0], f"{path}[0]"), _int(value[1], f"{path}[1]")


def _ints(value, path: str) -> tuple[int, ...]:
    return tuple(_int(v, f"{path}[{i}]") for i, v in enumerate(_list(value, path)))


def _vector(value, path: str) -> np.ndarray:
    return np.array([_num(v, f"{path}[{i}]") for i, v in enumerate(_list(value, path))])


def _matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise SpecFormatError(f"{path}: expected a list of rows")
    rows = [_vector(r, f"{path}[{i}]") for i, r in enumerate(value)]
    if len({len(r) for r in rows}) > 1:
        raise SpecFormatError(f"{path}: ragged matrix")
    return np.array(rows)


def _shaped(a: np.ndarray, shape: tuple[int, ...], path: str) -> np.ndarray:
    if a.shape != shape:
        raise SpecFormatError(f"{path}: expected shape {shape}, got {a.shape}")
    return a


def _get(obj, key: str, path: str):
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{path}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SpecFormatError(f"{path}: missing key {key!r}")
    return obj[key]


def _chart(obj, u: int, s: int, path: str) -> AffineChart:
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{path}: expected an object")
    try:
        return AffineChart(u, s, _matrix(_get(obj, "linear", path), f"{path}.linear"),
                           _vector(_get(obj, "offset", path), f"{path}.offset"))
    except GeometryError as exc:
        raise SpecFormatError(f"{path}: {exc}") from exc


def _map(obj, path: str) -> PiecewiseAffineMap:
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{path}: expected an object")
    if "breakpoints" in obj:
        bps = [_num(b, f"{path}.breakpoints[{i}]")
               for i, b in enumerate(_list(_get(obj, "breakpoints", path),
                                           f"{path}.breakpoints"))]
        pieces = []
        for i, pc in enumerate(_list(_get(obj, "pieces", path), f"{path}.pieces")):
            if not isinstance(pc, list) or len(pc) != 2:
                raise SpecFormatError(f"{path}.pieces[{i}]: expected [slope, intercept]")
            pieces.append((_num(pc[0], f"{path}.pieces[{i}][0]"),
                           _num(pc[1], f"{path}.pieces[{i}][1]")))
        return PiecewiseAffineMap.from_breakpoints(bps, pieces)
    dim_in, dim_out = (_int(_get(obj, key, path), f"{path}.{key}")
                       for key in ("dim_in", "dim_out"))
    for key, dim in (("dim_in", dim_in), ("dim_out", dim_out)):
        if dim < 1:
            raise SpecFormatError(f"{path}.{key}: dimension must be positive, got {dim}")
    pieces = []
    for i, pc in enumerate(_list(_get(obj, "pieces", path), f"{path}.pieces")):
        ppath = f"{path}.pieces[{i}]"
        matrix = _shaped(_matrix(_get(pc, "matrix", ppath), f"{ppath}.matrix"),
                         (dim_out, dim_in), f"{ppath}.matrix")
        offset = _shaped(_vector(_get(pc, "offset", ppath), f"{ppath}.offset"),
                         (dim_out,), f"{ppath}.offset")
        normals = (_matrix(pc["normals"], f"{ppath}.normals")
                   if pc.get("normals") else np.zeros((0, dim_in)))
        if normals.shape[-1] != dim_in:
            raise SpecFormatError(f"{ppath}.normals: expected {dim_in} columns, "
                                  f"got shape {normals.shape}")
        bounds = (_vector(pc["bounds"], f"{ppath}.bounds")
                  if pc.get("bounds") else np.zeros(0))
        if normals.shape[0] != bounds.shape[0]:
            raise SpecFormatError(f"{ppath}: {normals.shape[0]} normals for "
                                  f"{bounds.shape[0]} bounds")
        pieces.append(AffinePiece(matrix, offset, normals, bounds))
    return PiecewiseAffineMap(dim_in, dim_out, tuple(pieces))


def _node(obj, path: str) -> NodeSystem:
    u = _int(_get(obj, "u", path), f"{path}.u")
    s = _int(_get(obj, "s", path), f"{path}.s")
    local = _map(_get(obj, "map", path), f"{path}.map")
    hsets = []
    for i, h in enumerate(_list(_get(obj, "hsets", path), f"{path}.hsets")):
        hpath = f"{path}.hsets[{i}]"
        hsets.append(HSet(str(_get(h, "id", hpath)),
                          _chart(_get(h, "chart", hpath), u, s, f"{hpath}.chart")))
    bits = _matrix(_get(obj, "transition", path), f"{path}.transition")
    bad = np.argwhere((bits != 0) & (bits != 1))
    if bad.size:
        i, j = bad[0]
        raise SpecFormatError(f"{path}.transition[{i}][{j}]: entries must be 0 or 1, "
                              f"got {bits[i, j]:g}")
    unified = None
    if obj.get("unified") is not None:
        upath = f"{path}.unified"
        uobj = obj["unified"]
        chart = _chart(_get(uobj, "chart", upath), u, s, f"{upath}.chart")
        members = []
        for i, mem in enumerate(_list(_get(uobj, "members", upath), f"{upath}.members")):
            mpath = f"{upath}.members[{i}]"
            mid = str(_get(mem, "id", mpath))
            p_u = _shaped(_vector(_get(mem, "p_u", mpath), f"{mpath}.p_u"), (u,), f"{mpath}.p_u")
            p_s = _shaped(_vector(mem.get("p_s", []), f"{mpath}.p_s"), (s,), f"{mpath}.p_s")
            try:
                members.append((mid, CenterScale(p_u, p_s, _num(mem.get("r", 1), f"{mpath}.r"))))
            except GeometryError as exc:
                raise SpecFormatError(f"{mpath}.r: {exc}") from exc
        unified = UnifiedSet(chart, tuple(members))
    forms = None
    if obj.get("chart_forms") is not None:
        forms = {}
        if not isinstance(obj["chart_forms"], dict):
            raise SpecFormatError(f"{path}.chart_forms: expected an object")
        for key, fobj in obj["chart_forms"].items():
            fpath = f"{path}.chart_forms[{key}]"
            symbol = _int(key, fpath)
            U = _map(_get(fobj, "U", fpath), f"{fpath}.U")
            V = _map(fobj["V"], f"{fpath}.V") if fobj.get("V") else None
            try:
                forms[symbol] = ProductFormMap(U, V)
            except GeometryError as exc:    # a factor that is not square
                raise SpecFormatError(f"{fpath}: {exc}") from exc
    try:
        return NodeSystem(local, tuple(hsets), TransitionMatrix(bits.astype(int)),
                          unified=unified, chart_forms=forms)
    except ValueError as exc:
        raise SpecFormatError(f"{path}: {exc}") from exc


def parse_spec(doc: dict) -> NetworkSpec:
    """Build a network from a parsed JSON document."""
    path = "$"
    if not isinstance(doc, dict):
        raise SpecFormatError(f"{path}: spec document must be an object")
    version = str(_get(doc, "format_version", path))
    if version != FORMAT_VERSION:
        raise SpecFormatError(f"{path}.format_version: unsupported version {version!r}")
    gobj = _get(doc, "graph", path)
    gpath = f"{path}.graph"
    edges = frozenset(_pair(e, f"{gpath}.edges[{i}]")
                      for i, e in enumerate(_list(_get(gobj, "edges", gpath), f"{gpath}.edges")))
    d = _int(_get(gobj, "d", gpath), f"{gpath}.d")
    try:
        graph = Graph(d, edges)
    except SpecError as exc:
        raise SpecFormatError(f"{gpath}.{'d' if d < 1 else 'edges'}: {exc}") from exc
    nodes = tuple(_node(n, f"{path}.nodes[{i}]")
                  for i, n in enumerate(_list(_get(doc, "nodes", path), f"{path}.nodes")))
    if len(nodes) != d:
        raise SpecFormatError(f"{path}.nodes: {len(nodes)} nodes for a {d}-node graph")
    cobj = _get(doc, "coupling", path)
    cpath = f"{path}.coupling"
    kind = str(_get(cobj, "kind", cpath))
    if kind not in (TYPE_I, TYPE_II):
        raise SpecFormatError(f"{cpath}.kind: expected 'type1' or 'type2', got {kind!r}")
    matrix = _shaped(_matrix(_get(cobj, "matrix", cpath), f"{cpath}.matrix"), (d, d),
                     f"{cpath}.matrix")
    ambient = _map(cobj["ambient"], f"{cpath}.ambient") if cobj.get("ambient") else None
    per_entry = None
    if cobj.get("per_entry"):
        per_entry = []
        for i, pe in enumerate(_list(cobj["per_entry"], f"{cpath}.per_entry")):
            epath = f"{cpath}.per_entry[{i}]"
            per_entry.append((_ints(_get(pe, "i", epath), f"{epath}.i"),
                              _ints(_get(pe, "j", epath), f"{epath}.j"),
                              _matrix(_get(pe, "matrix", epath), f"{epath}.matrix")))
        per_entry = tuple(per_entry)
    try:
        return NetworkSpec(graph, nodes, CouplingSpec(kind, matrix, ambient, per_entry))
    except ValueError as exc:
        raise SpecFormatError(f"{path}: {exc}") from exc


def load_spec(path_or_file) -> NetworkSpec:
    """Parse a spec file; JSON syntax errors keep their line/column info."""
    if hasattr(path_or_file, "read"):
        raw = path_or_file.read()
    else:
        with open(path_or_file, "rb") as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
    return parse_spec(doc)


# ---------------------------------------------------------------------------
# serialization


def _emit_num(x: float):
    return int(x) if float(x).is_integer() and abs(x) < 1e15 else float(x)


def _emit_vector(v: np.ndarray) -> list:
    return [_emit_num(x) for x in np.asarray(v).tolist()]


def _emit_matrix(m: np.ndarray) -> list:
    return [_emit_vector(r) for r in np.asarray(m)]


def _emit_chart(chart: AffineChart) -> dict:
    return {"linear": _emit_matrix(chart.linear), "offset": _emit_vector(chart.offset)}


def _emit_map(pwa: PiecewiseAffineMap) -> dict:
    return {"dim_in": pwa.dim_in, "dim_out": pwa.dim_out,
            "pieces": [{"matrix": _emit_matrix(p.matrix),
                        "offset": _emit_vector(p.offset),
                        "normals": _emit_matrix(p.normals),
                        "bounds": _emit_vector(p.bounds)} for p in pwa.pieces]}


def serialize_spec(spec: NetworkSpec) -> dict:
    """Network back to its document form; parse_spec inverts it exactly."""
    doc = {
        "format_version": FORMAT_VERSION,
        "graph": {"d": spec.graph.d,
                  "edges": sorted([list(e) for e in spec.graph.edges])},
        "nodes": [],
        "coupling": {"kind": spec.coupling.kind,
                     "matrix": _emit_matrix(spec.coupling.matrix)},
    }
    if spec.coupling.ambient is not None:
        doc["coupling"]["ambient"] = _emit_map(spec.coupling.ambient)
    if spec.coupling.per_entry:
        doc["coupling"]["per_entry"] = [
            {"i": list(pi), "j": list(pj), "matrix": _emit_matrix(m)}
            for pi, pj, m in spec.coupling.per_entry]
    for node in spec.nodes:
        nobj = {
            "u": node.dim_u, "s": node.dim_s,
            "map": _emit_map(node.local_map),
            "hsets": [{"id": h.id, "chart": _emit_chart(h.chart)} for h in node.hsets],
            "transition": [[int(b) for b in row] for row in node.transition.bits],
        }
        if node.unified is not None:
            nobj["unified"] = {
                "chart": _emit_chart(node.unified.chart),
                "members": [{"id": mid, "p_u": _emit_vector(cs.p_u),
                             "p_s": _emit_vector(cs.p_s), "r": _emit_num(cs.r)}
                            for mid, cs in node.unified.members]}
        if node.chart_forms is not None:
            nobj["chart_forms"] = {
                str(symbol): {"U": _emit_map(form.U),
                              "V": _emit_map(form.V) if form.V is not None else None}
                for symbol, form in node.chart_forms.items()}
        doc["nodes"].append(nobj)
    return doc


def _scalar(obj):
    """``default`` of the encoder: numpy scalars as Python numbers."""
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _clean(obj):
    """Copy of ``obj`` with infinities tagged and numpy scalars converted."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _dumps(obj) -> str:
    """One stdlib ``json.dumps`` call, and the ``_clean`` fallback when it
    meets a raw infinity (NaN raises ``ValueError`` either way)."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                          default=_scalar)
    except ValueError:
        return json.dumps(_clean(obj), sort_keys=True, separators=(",", ":"),
                          allow_nan=False)


class _Encoded:
    """JSON text that ``canonical_json`` writes as it is.  Not a ``str``:
    anywhere but a top-level value of the document the encoder refuses it
    (``TypeError``) rather than quote it."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def canonical_json(doc) -> str:
    """Deterministic serialization: sorted keys, fixed separators, "inf".

    Numpy scalars are written as Python numbers.  The package's document
    builders tag infinities themselves (``_tag``), so each of their values
    takes one ``json.dumps`` call.  A caller's document with a raw infinity
    makes that call raise; it is then written again through ``_clean``,
    which tags every infinity, and NaN still raises ``ValueError``.  A
    top-level value of a document with string keys that is pre-encoded
    JSON text (``_Encoded``, as ``certificate_document`` writes its entry
    list) goes between the sorted keys as it is; each run of other keys
    between such values is written by one call, as a dict.
    """
    if not (isinstance(doc, dict) and any(isinstance(v, _Encoded) for v in doc.values())):
        return _dumps(doc)
    parts = []
    for encoded, items in itertools.groupby(sorted(doc.items()),
                                            key=lambda item: isinstance(item[1], _Encoded)):
        if encoded:
            parts += [f"{_dumps(key)}:{value.text}" for key, value in items]
        else:
            parts.append(_dumps(dict(items))[1:-1])
    return "{" + ",".join(parts) + "}"


def spec_digest(raw: bytes) -> str:
    """Content hash of the spec file bytes, embedded in certificates."""
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _tag(x):
    """``x``, or "inf" / "-inf" when it is an infinity."""
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return x


class _Texts(dict):
    """The JSON text of each distinct value of one column, written on first
    use by ``encode``.  A zero is kept under its sign, not its value, since
    0.0 == -0.0 while their texts differ."""

    def __init__(self, encode):
        super().__init__()
        self.encode = encode

    def __missing__(self, value):
        key = (math.copysign(1.0, value),) if value == 0 else value
        text = self.get(key)
        if text is None:
            text = self[key] = self.encode(value)
        return text


def _number(x) -> str:
    """The JSON text of a number: an int or a finite float as the encoder
    writes it (``repr``), anything else through ``_tag`` and ``_dumps``."""
    if type(x) is int or type(x) is float and math.isfinite(x):
        return repr(x)
    return _dumps(_tag(x))


def _row(row: tuple) -> str:
    """The JSON text of a row of symbols (integers)."""
    return "[" + ",".join(map(_number, row)) + "]"


def _notes(verdict: str) -> _Texts:
    """The failure notes of an entry of ``verdict``, by slack."""
    return _Texts(lambda slack: _dumps(list(entry_failures(verdict, slack))))


def _entry_list(table: EntryTable) -> str:
    """The JSON text of the certificate's entry list, one object per row of
    ``table`` with its keys in sorted order; an entry's degree, margins and
    radius only when it passes.  Each column formats each of its distinct
    values once (``_Texts``), the failure notes by verdict and slack."""
    source, target, tau = (_Texts(_row) for _ in range(3))
    slack, unstable, stable, eps, degree = (_Texts(_number) for _ in range(5))
    verdicts, notes = _Texts(_dumps), _Texts(_notes)
    rows = []
    for i, j, v, s, t, deg, um, sm, e in zip(
            map(tuple, table.source.tolist()), map(tuple, table.target.tolist()),
            table.verdict.tolist(), table.slack.tolist(), map(tuple, table.tau.tolist()),
            table.degree.tolist(), table.unstable_margin.tolist(),
            table.stable_margin.tolist(), table.admissible_eps.tolist()):
        ijs = f'"i":{source[i]},"j":{target[j]},"slack":{slack[s]}'
        if v == "pass":
            rows.append(f'{{"admissible_eps":{eps[e]},"degree":{degree[deg]},"failures":[],'
                        f'{ijs},"stable_margin":{stable[sm]},"tau":{tau[t]},'
                        f'"unstable_margin":{unstable[um]},"verdict":"pass"}}')
        else:
            rows.append(f'{{"failures":{notes[v][s]},{ijs},"tau":null,'
                        f'"verdict":{verdicts[v]}}}')
    return "[" + ",".join(rows) + "]"


def certificate_document(report: TheoremReport, digest: str,
                         tool_version: str, extras: dict | None = None) -> dict:
    """Assemble the certificate payload for a theorem report; its entry
    list, one object per row of ``report.entries``, is pre-encoded JSON
    text (``_entry_list``) that ``canonical_json`` writes as it is."""
    table, binding = report.entries, report.binding_entry()
    doc = {
        "format_version": FORMAT_VERSION,
        "tool": {"name": TOOL_NAME, "version": tool_version},
        "spec_digest": digest,
        "theorem": report.theorem,
        "verdict": report.verdict,
        "global_eps": _tag(report.global_eps),
        "entropy_bound": _tag(report.entropy_bound),
        "period": report.period,
        "binding_entry": {"i": table.source[binding].tolist(),
                          "j": table.target[binding].tolist(),
                          "slack": _tag(table.slack[binding].item())},
        "entries": _Encoded(_entry_list(table)),
    }
    if extras:
        doc.update(extras)
    return doc


def specs_equal(a: NetworkSpec, b: NetworkSpec) -> bool:
    """Field-wise equality via the canonical serialization."""
    return canonical_json(serialize_spec(a)) == canonical_json(serialize_spec(b))
