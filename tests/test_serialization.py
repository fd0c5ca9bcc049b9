"""Canonical JSON and certificates against the writers they replaced
(``certificate_reference``).

``canonical_json`` must return the same string as
``reference_canonical_json`` for any document, or raise the same exception
type.  A certificate, whose entry list ``certificate_document`` writes from
the report's columns as pre-encoded text, must have the bytes of the old
per-entry dict builder's document under the old writer, on the fixtures,
the checker-equivalence networks, the benchmark's generated specs and
hypothesis-built entry tables.  The package's documents must not need the
writer's clean-up walk: a plain ``json.dumps`` with ``allow_nan=False`` and
no ``default`` takes every value but the pre-encoded entry list as it is.
"""

import json
import math

import numpy as np
import pytest

from certificate_reference import reference_canonical_json, reference_certificate
from cmnverify import canonical_json, certificate_document, cli, serialize_spec
from cmnverify.network import EntryTable, TheoremReport
from test_bench_outputs import bench  # noqa: F401  (the fixture)
from test_checker_equivalence import CASES, _check, _golden_ring
from test_cli import FIXDIR

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


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


@pytest.fixture
def certified(monkeypatch):
    """The arguments of every ``certificate_document`` call the CLI makes."""
    calls = []

    def record(*args):
        calls.append(args)
        return certificate_document(*args)
    monkeypatch.setattr(cli, "certificate_document", record)
    return calls


def _plain(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _written_as_the_reference(certified, emitted, path) -> str:
    """The certificate at ``path``, checked against the old writers' bytes
    for the one report the CLI certified; every value of the document but
    its pre-encoded entry list needs no clean-up walk."""
    (args,), (doc,) = certified, emitted
    text = path.read_text()
    assert text == reference_certificate(*args) + "\n"
    _plain({key: value for key, value in doc.items() if key != "entries"})
    return text


@pytest.mark.parametrize("name", sorted(p.name for p in FIXDIR.glob("*.json")))
def test_fixture_certificates_need_no_fallback(name, certified, emitted, tmp_path):
    cli.main(["verify", str(FIXDIR / name), "--out", str(tmp_path / "cert.json")])
    _written_as_the_reference(certified, emitted, tmp_path / "cert.json")


@pytest.mark.parametrize("alpha, verdict", [(0.02, "pass"), (0.03, "fail")])
def test_ring_certificates_need_no_fallback(alpha, verdict, certified, emitted, tmp_path):
    spec = tmp_path / "ring.json"
    spec.write_text(json.dumps(serialize_spec(_golden_ring(6, alpha, unified=True))))
    cli.main(["verify", str(spec), "--out", str(tmp_path / "cert.json")])
    doc = json.loads(_written_as_the_reference(certified, emitted, tmp_path / "cert.json"))
    assert doc["verdict"] == verdict and len(doc["entries"]) == 729
    assert any(e["verdict"] == "pass" for e in doc["entries"])


def test_orbit_and_trajectory_documents_need_no_fallback(emitted, tmp_path):
    assert cli.main(["periodic", str(FIXDIR / "theorem1_perm23.json"), "--auto",
                     "--out", str(tmp_path / "orbit.json")]) == 0
    assert cli.main(["simulate", str(FIXDIR / "example1.json"), "--steps", "5",
                     "--out", str(tmp_path / "traj.jsonl")]) == 0
    orbit, *lines = emitted
    assert _plain(orbit) + "\n" == (tmp_path / "orbit.json").read_text()
    assert "\n".join(map(_plain, lines)) + "\n" == (tmp_path / "traj.jsonl").read_text()
    assert len(lines) == 6


def _written(report):
    return canonical_json(certificate_document(report, "digest", "0"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_checker_case_certificates_match_the_reference(name):
    report = _check(CASES[name]())
    assert _written(report) == reference_certificate(report)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", ["ring_pass", "ring_fail", "box_u3"])
def test_bench_certificates_match_the_reference(workload, seed, bench,  # noqa: F811
                                                certified, emitted, tmp_path, monkeypatch):
    workloads, _ = bench
    plan = workloads.build(workload, seed, tmp_path)
    monkeypatch.chdir(tmp_path)
    verifies = [cmd for cmd in (plan["warmup"], *plan["commands"]) if cmd["verb"] == "verify"]
    assert len(verifies) >= 3
    for cmd in verifies:
        certified.clear()
        emitted.clear()
        cli.main(cmd["argv"])
        _written_as_the_reference(certified, emitted, tmp_path / cmd["out"])


# values of a float column: both zeros, both infinities, subnormals, values
# near the float range, slacks whose "{:.6g}" notes coincide, and any finite float
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -2.5e-310, 1e300, -1e300,
                     0.1234567, 0.12345671, 0.12345674, -0.1234567, 1.0, -1.0]),
    st.floats(allow_nan=False))


@st.composite
def _reports(draw):
    """A theorem report whose entry table mixes pass, fail and inconclusive
    rows; as in the checkers' tables, a row that does not pass holds NaN in
    its margins and radius, which no writer reads."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 3))

    def column(elements, dtype, width=None):
        shape = (n,) if width is None else (n, width)
        values = st.lists(elements, min_size=n, max_size=n)
        if width is not None:
            values = st.lists(st.lists(elements, min_size=width, max_size=width),
                              min_size=n, max_size=n)
        return np.array(draw(values), dtype=dtype).reshape(shape)

    symbols = st.integers(0, 3)
    verdict = column(st.sampled_from(["pass", "fail", "inconclusive"]), "<U12")
    unstable, stable, eps = (column(_FLOATS, float) for _ in range(3))
    for margin in (unstable, stable, eps):
        margin[verdict != "pass"] = math.nan
    table = EntryTable(column(symbols, int, d), column(symbols, int, d), verdict,
                       column(_FLOATS, float), column(symbols, int, d),
                       column(st.integers(-2, 2), int), unstable, stable, eps)
    return TheoremReport(draw(st.sampled_from([1, 2])),
                         draw(st.sampled_from(["pass", "fail", "inconclusive"])), table,
                         draw(_FLOATS), draw(st.none() | _FLOATS),
                         draw(st.none() | st.integers(1, 6)))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_reports())
def test_entry_tables_match_the_reference(report):
    assert _written(report) == reference_certificate(report)


@pytest.mark.parametrize("slacks", [[0.0, -0.0], [-0.0, 0.0]])
@pytest.mark.parametrize("verdict", ["pass", "fail"])
def test_both_zeros_keep_their_sign_in_either_order(slacks, verdict):
    n = len(slacks)
    zeros = np.array(slacks)
    table = EntryTable(np.ones((n, 1), dtype=int), np.ones((n, 1), dtype=int),
                       np.array([verdict] * n, dtype="<U12"), zeros, np.ones((n, 1), dtype=int),
                       np.ones(n, dtype=int), zeros.copy(), zeros.copy(), zeros.copy())
    report = TheoremReport(2, verdict, table, 0.0)
    text = _written(report)
    assert text == reference_certificate(report)
    # the -0.0 row's slack (and margins and radius when it passes), and the
    # binding entry's slack when the -0.0 row comes first
    negative_first = math.copysign(1.0, slacks[0]) < 0
    assert text.count("-0.0") == (4 if verdict == "pass" else 1) + negative_first


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_reports(), st.data())
def test_a_nan_in_a_written_column_raises_on_both_writers(report, data):
    table = report.entries
    passing = np.flatnonzero(table.verdict == "pass").tolist()
    columns = [("slack", range(len(table)))] + [
        (name, passing) for name in ("unstable_margin", "stable_margin", "admissible_eps")
        if passing]
    name, rows = data.draw(st.sampled_from(columns))
    getattr(table, name)[data.draw(st.sampled_from(list(rows)))] = math.nan
    for write in (_written, reference_certificate):
        with pytest.raises(ValueError):
            write(report)


def test_pre_encoded_text_is_written_only_as_a_top_level_value():
    from cmnverify.specio import _Encoded
    assert canonical_json({"b": [1.5, math.inf], "a": _Encoded("[1,2]")}) == \
        '{"a":[1,2],"b":[1.5,"inf"]}'
    for doc in ({"a": [_Encoded("1")]}, {"a": {"b": _Encoded("1")}}, [_Encoded("1")],
                _Encoded("1")):
        with pytest.raises(TypeError):
            canonical_json(doc)
