"""Seeded mutation fuzzing of the shipped spec fixtures through ``verify``.

Each example replaces one leaf or subtree of one fixture with a value from
a fixed set of hostile values and runs ``cli.main(["verify", ...])``
in-process.  Besides the fixtures, the corpus holds a box document: the
benchmark's golden ring at d = 1 with u = 3, s = 1 and declared chart
forms, so that mutations reach declared forms and forms of dimension 2 and
more, which no fixture has.  The exit-code contract must hold: no exception escapes, the
code is 0, 1 or 2, and exit 1 comes only with a verdict, never with an
``error:`` line.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cmnverify import fixtures, serialize_spec  # noqa: E402
from cmnverify.cli import main  # noqa: E402
from test_cli import FIXDIR, _bench_gen, _mutated  # noqa: E402

HOSTILE = (None, "x", -1, 0, 2, [], {}, [[1]], 1e308, "nan", "1/0", True, 3.5, [0, 0])


def _documents() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        fixdir = FIXDIR
        if not (fixdir / "example1.json").exists():
            fixdir = Path(tmp)
            fixtures.write_fixture_files(fixdir)
        docs = {p.name: json.loads(p.read_text()) for p in sorted(fixdir.glob("*.json"))}
    box = _bench_gen().golden_ring(np.random.default_rng(1), 1, 0.0, u=3, s=1, declared=True)
    return {**docs, "box_declared.json": json.loads(json.dumps(serialize_spec(box)))}


def _paths(node, prefix=()) -> list[tuple]:
    """Path of every leaf and subtree below the document root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_paths(child, prefix + (key,)))
    return out


DOCS = _documents()
PATHS = {name: _paths(doc) for name, doc in DOCS.items()}


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(st.sampled_from(sorted(DOCS)), st.data())
def test_mutated_fixture_keeps_exit_code_contract(name, data):
    path = data.draw(st.sampled_from(PATHS[name]), label="path")
    value = data.draw(st.sampled_from(HOSTILE), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "mutated.json"
        spec.write_text(json.dumps(_mutated(DOCS[name], path, value)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(spec), "--out", str(Path(tmp) / "cert.json")])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 2:
        assert any(line.startswith("error: ") for line in lines)
    else:
        assert not any(line.startswith("error: ") for line in lines)
        assert any(line.startswith("verdict ") for line in lines)
