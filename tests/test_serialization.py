"""Canonical JSON: the one-pass writer against the recursive reference.

``reference_canonical_json`` is the writer as it was before the document
builders tagged their own infinities: a recursive walk that tags every
infinity and converts numpy scalars, then one ``json.dumps``.
``canonical_json`` must return the same string for any document, or raise
the same exception type.  The package's own documents must not need the
walk at all: a plain ``json.dumps`` with ``allow_nan=False`` and no
``default`` takes them as they are.
"""

import json
import math

import numpy as np
import pytest

from cmnverify import canonical_json, cli, serialize_spec
from test_checker_equivalence import _golden_ring
from test_cli import FIXDIR

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def reference_canonical_json(doc) -> str:
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        if isinstance(obj, float) and math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        return obj

    return json.dumps(clean(doc), sort_keys=True, separators=(",", ":"), allow_nan=False)


def _outcome(write, doc):
    try:
        return write(doc)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)


_INFINITIES = st.sampled_from([math.inf, -math.inf, np.float64(math.inf),
                               np.float64(-math.inf)])
_VALID = st.one_of(
    st.none(), st.booleans(), st.text(max_size=8), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    _INFINITIES,
)
# NaN must raise ValueError and np.bool_ TypeError, on both writers
_POISON = st.sampled_from([math.nan, np.float64(math.nan), np.bool_(True), np.bool_(False)])
_LEAVES = st.integers(0, 19).flatmap(lambda n: _POISON if n == 0 else _VALID)


def _documents(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(st.lists(inner, max_size=4),
                                st.lists(inner, max_size=4).map(tuple),
                                st.dictionaries(st.text(max_size=4), inner, max_size=4)),
        max_leaves=16)


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(_documents(_LEAVES))
def test_matches_reference(doc):
    assert _outcome(canonical_json, doc) == _outcome(reference_canonical_json, doc)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_documents(_VALID), st.sampled_from([(math.nan, ValueError),
                                            (np.float64(math.nan), ValueError),
                                            (np.bool_(True), TypeError)]))
def test_poison_raises_on_both_writers(doc, poison):
    value, error = poison
    for write in (canonical_json, reference_canonical_json):
        with pytest.raises(error):
            write({"doc": doc, "poison": [value]})


@pytest.fixture
def emitted(monkeypatch):
    """Every document the CLI hands to ``canonical_json``."""
    docs = []

    def record(doc):
        docs.append(doc)
        return canonical_json(doc)
    monkeypatch.setattr(cli, "canonical_json", record)
    return docs


def _plain(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXDIR.glob("*.json")))
def test_fixture_certificates_need_no_fallback(name, emitted, tmp_path):
    cli.main(["verify", str(FIXDIR / name), "--out", str(tmp_path / "cert.json")])
    assert len(emitted) == 1
    assert _plain(emitted[0]) + "\n" == (tmp_path / "cert.json").read_text()


@pytest.mark.parametrize("alpha, verdict", [(0.02, "pass"), (0.03, "fail")])
def test_ring_certificates_need_no_fallback(alpha, verdict, emitted, tmp_path):
    spec = tmp_path / "ring.json"
    spec.write_text(json.dumps(serialize_spec(_golden_ring(6, alpha, unified=True))))
    cli.main(["verify", str(spec), "--out", str(tmp_path / "cert.json")])
    (doc,) = emitted
    assert doc["verdict"] == verdict and len(doc["entries"]) == 729
    assert any(e["verdict"] == "pass" for e in doc["entries"])
    assert _plain(doc) + "\n" == (tmp_path / "cert.json").read_text()


def test_orbit_and_trajectory_documents_need_no_fallback(emitted, tmp_path):
    assert cli.main(["periodic", str(FIXDIR / "theorem1_perm23.json"), "--auto",
                     "--out", str(tmp_path / "orbit.json")]) == 0
    assert cli.main(["simulate", str(FIXDIR / "example1.json"), "--steps", "5",
                     "--out", str(tmp_path / "traj.jsonl")]) == 0
    orbit, *lines = emitted
    assert _plain(orbit) + "\n" == (tmp_path / "orbit.json").read_text()
    assert "\n".join(map(_plain, lines)) + "\n" == (tmp_path / "traj.jsonl").read_text()
    assert len(lines) == 6
