"""Network spec files and certificate documents (UTF-8 JSON, version "1").

Spec files may write any real as a JSON number, a decimal string, or an
exact rational "p/q"; rationals are converted to the nearest double on
input.  Serialization is canonical (sorted keys, repr-shortest floats,
"inf" for infinities) so certificates are byte-reproducible for a given
tool version.  The builders of certificate documents write an infinite
float as the string "inf" or "-inf" where they emit it, so
``canonical_json`` writes their documents in one pass of the stdlib C
encoder; its recursive clean-up walk is only the fallback for documents a
caller built with raw infinities.

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
node entries carry the (u, s) split.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

from .covering import ProductFormMap
from .geometry import AffineChart, AffinePiece, CenterScale, HSet, PiecewiseAffineMap, UnifiedSet
from .network import (CouplingSpec, EntryResult, Graph, NetworkSpec, NodeSystem,
                      TheoremReport, TYPE_I, TYPE_II)
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
    return AffineChart(u, s, _matrix(_get(obj, "linear", path), f"{path}.linear"),
                       _vector(_get(obj, "offset", path), f"{path}.offset"))


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
            members.append((str(_get(mem, "id", mpath)),
                            CenterScale(_shaped(_vector(_get(mem, "p_u", mpath), f"{mpath}.p_u"),
                                                (u,), f"{mpath}.p_u"),
                                        _shaped(_vector(mem.get("p_s", []), f"{mpath}.p_s"),
                                                (s,), f"{mpath}.p_s"),
                                        _num(mem.get("r", 1), f"{mpath}.r"))))
        unified = UnifiedSet(chart, tuple(members))
    forms = None
    if obj.get("chart_forms") is not None:
        forms = {}
        if not isinstance(obj["chart_forms"], dict):
            raise SpecFormatError(f"{path}.chart_forms: expected an object")
        for key, fobj in obj["chart_forms"].items():
            fpath = f"{path}.chart_forms[{key}]"
            parts = [_int(t, fpath) for t in str(key).split(",")]
            U = _map(_get(fobj, "U", fpath), f"{fpath}.U")
            V = _map(fobj["V"], f"{fpath}.V") if fobj.get("V") else None
            forms[parts[0] if len(parts) == 1 else tuple(parts)] = ProductFormMap(U, V)
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
    graph = Graph(_int(_get(gobj, "d", gpath), f"{gpath}.d"), edges)
    nodes = tuple(_node(n, f"{path}.nodes[{i}]")
                  for i, n in enumerate(_list(_get(doc, "nodes", path), f"{path}.nodes")))
    cobj = _get(doc, "coupling", path)
    cpath = f"{path}.coupling"
    kind = str(_get(cobj, "kind", cpath))
    if kind not in (TYPE_I, TYPE_II):
        raise SpecFormatError(f"{cpath}.kind: expected 'type1' or 'type2', got {kind!r}")
    matrix = _matrix(_get(cobj, "matrix", cpath), f"{cpath}.matrix")
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
            forms = {}
            for key, form in node.chart_forms.items():
                name = ",".join(str(t) for t in key) if isinstance(key, tuple) else str(key)
                forms[name] = {"U": _emit_map(form.U),
                               "V": _emit_map(form.V) if form.V is not None else None}
            nobj["chart_forms"] = forms
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


def canonical_json(doc) -> str:
    """Deterministic serialization: sorted keys, fixed separators, "inf".

    Numpy scalars are written as Python numbers.  The package's document
    builders tag infinities themselves (``_tag``), so their documents take
    one ``json.dumps`` call.  A caller's document with a raw infinity makes
    that call raise; it is then written again through ``_clean``, which
    tags every infinity, and NaN still raises ``ValueError``.
    """
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False,
                          default=_scalar)
    except ValueError:
        return json.dumps(_clean(doc), sort_keys=True, separators=(",", ":"),
                          allow_nan=False)


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


def _emit_entry(entry: EntryResult) -> dict:
    out = {
        "i": list(entry.source_index),
        "j": list(entry.target_index),
        "verdict": entry.verdict,
        "tau": list(entry.tau) if entry.tau else None,
        "slack": _tag(entry.slack),
        "failures": list(entry.failures),
    }
    if entry.certificate is not None:
        cert = entry.certificate
        out.update({
            "degree": cert.degree.value,
            "unstable_margin": _tag(cert.unstable_margin),
            "stable_margin": _tag(cert.stable_margin),
            "admissible_eps": _tag(cert.admissible_eps),
        })
    return out


def certificate_document(report: TheoremReport, digest: str,
                         tool_version: str, extras: dict | None = None) -> dict:
    """Assemble the certificate payload for a theorem report."""
    binding = report.binding_entry()
    doc = {
        "format_version": FORMAT_VERSION,
        "tool": {"name": TOOL_NAME, "version": tool_version},
        "spec_digest": digest,
        "theorem": report.theorem,
        "verdict": report.verdict,
        "global_eps": _tag(report.global_eps),
        "entropy_bound": _tag(report.entropy_bound),
        "period": report.period,
        "binding_entry": {"i": list(binding.source_index),
                          "j": list(binding.target_index),
                          "slack": _tag(binding.slack)},
        "entries": [_emit_entry(e) for e in report.entries],
    }
    if extras:
        doc.update(extras)
    return doc


def specs_equal(a: NetworkSpec, b: NetworkSpec) -> bool:
    """Field-wise equality via the canonical serialization."""
    return canonical_json(serialize_spec(a)) == canonical_json(serialize_spec(b))
