import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cmnverify import (AffineChart, CouplingSpec, Graph, HSet, NetworkSpec, NodeSystem,
                       PiecewiseAffineMap, TransitionMatrix, canonical_json, fixtures, load_spec,
                       parse_spec, serialize_spec, specs_equal)
from cmnverify.cli import main
from cmnverify.geometry import AffinePiece
from cmnverify.network import SpecError, _resolve_forms, set_up, validate_spec
from cmnverify.specio import SpecFormatError

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"
BENCH_GEN = Path(__file__).resolve().parent.parent / "bench" / "gen.py"


def _bench_gen():
    """The benchmark's network generator, loaded without writing bytecode
    next to it."""
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


@pytest.fixture(scope="module")
def fixdir(tmp_path_factory):
    if (FIXDIR / "example1.json").exists():
        return FIXDIR
    out = tmp_path_factory.mktemp("fixtures")
    fixtures.write_fixture_files(out)
    return out


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self, fixdir):
        for name in ("example1.json", "example2.json", "theorem1_perm23.json"):
            spec = load_spec(fixdir / name)
            again = parse_spec(json.loads(canonical_json(serialize_spec(spec))))
            assert specs_equal(spec, again)

    def test_rational_and_string_numbers(self, tmp_path):
        doc = json.loads(canonical_json(serialize_spec(fixtures.example1())))
        # rewrite one slope as an exact rational and one offset as a string
        doc["nodes"][0]["map"]["pieces"][0]["matrix"][0][0] = "7/2"
        doc["nodes"][0]["map"]["pieces"][0]["offset"][0] = "1.5"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert specs_equal(load_spec(path), fixtures.example1())

    def test_bad_rational_reports_path(self, tmp_path):
        doc = json.loads(canonical_json(serialize_spec(fixtures.example1())))
        doc["coupling"]["matrix"][0][0] = "1/0"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecFormatError, match=r"coupling\.matrix"):
            load_spec(path)

    def test_json_syntax_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format_version": "1",')
        with pytest.raises(SpecFormatError, match="line"):
            load_spec(path)

    def test_canonical_json_takes_numpy_scalars(self):
        doc = {"b": np.float64(0.5), "a": [np.int64(3), np.float32(0.25)],
               "c": math.inf, "d": (np.float64(-math.inf),)}
        assert canonical_json(doc) == '{"a":[3,0.25],"b":0.5,"c":"inf","d":["-inf"]}'

    def test_declared_chart_forms_round_trip(self, tmp_path):
        from cmnverify import NetworkSpec, NodeSystem
        from cmnverify.network import _resolve_forms
        spec = fixtures.example1()
        nodes = tuple(NodeSystem(n.local_map, n.hsets, n.transition, n.unified,
                                 chart_forms=_resolve_forms(n, "type2"))
                      for n in spec.nodes)
        declared = NetworkSpec(spec.graph, nodes, spec.coupling)
        path = tmp_path / "declared.json"
        path.write_text(json.dumps(serialize_spec(declared)))
        again = load_spec(path)
        assert specs_equal(declared, again)
        assert again.nodes[0].chart_forms is not None


class TestVerifyCommand:
    def test_pass_exit_zero(self, fixdir, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["verify", str(fixdir / "example1.json"), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"
        assert doc["entropy_bound"] == pytest.approx(2 * math.log((1 + 5 ** 0.5) / 2))
        assert doc["spec_digest"].startswith("sha256:")

    def test_fail_exit_one(self, fixdir, tmp_path):
        code = main(["verify", str(fixdir / "example1_alpha_0.2.json"),
                     "--out", str(tmp_path / "c.json")])
        assert code == 1
        doc = json.loads((tmp_path / "c.json").read_text())
        assert doc["verdict"] == "fail"
        assert doc["binding_entry"]["slack"] < 0

    def test_malformed_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["verify", str(bad)]) == 2

    def test_missing_file_exit_two(self):
        assert main(["verify", "/nonexistent/spec.json"]) == 2

    # SHA-256 of each shipped fixture's certificate at the default grid;
    # certificates may change only with a deliberate format or version bump
    GOLDEN = {
        "example1.json":
            "bf3f5ae42ea0840307c143b58687a76604d3d6b8165fa9d085a532149e60817b",
        "example1_alpha_0.2.json":
            "c4d8df294f596f0a0c0624fefdf3685c21e371978043030ccfeb56bf7bb5fd06",
        "example1_node1.json":
            "fc899b6de1215f04864b7749dcfd4531c863ca5ab9d31f785ca401a3dc874a89",
        "example2.json":
            "e798f690eed48cde8fadc9965bd2cbb291ebc07a3b9d222d6257be6ff6a20833",
        "theorem1_perm23.json":
            "7ecf30545e0139ea8879c9fff7cec65cc04f180bf41486f98df700bbcf5f2296",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_certificate_digest(self, name, tmp_path):
        out = tmp_path / "cert.json"
        main(["verify", str(FIXDIR / name), "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN[name]

    def test_certificates_are_byte_reproducible(self, fixdir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", str(fixdir / "example1.json"), "--out", str(a)])
        main(["verify", str(fixdir / "example1.json"), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_digest_detects_tampering(self, fixdir, tmp_path):
        cert = tmp_path / "cert.json"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text((fixdir / "example1.json").read_text())
        main(["verify", str(spec_path), "--out", str(cert)])
        digest = json.loads(cert.read_text())["spec_digest"]
        spec_path.write_text(spec_path.read_text().replace("3.5", "3.4", 1))
        from cmnverify import spec_digest as compute
        assert compute(spec_path.read_bytes()) != digest


def _leaves(node, prefix=()):
    """Path (keys and indices) of every leaf of a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from _leaves(child, prefix + (key,))
        else:
            yield prefix + (key,)


def _mutated(doc, path, value):
    """Copy of ``doc`` with the entry at ``path`` (keys and indices) set to ``value``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


class TestHostileSpec:
    """Malformed spec files exit 2 with the JSON path, never a traceback."""

    @pytest.mark.parametrize("name, path, value, where", [
        ("example1.json", ("graph", "edges"), 5, "$.graph.edges"),
        ("example1.json", ("graph", "edges"), [[1]], "$.graph.edges[0]"),
        ("example1.json", ("nodes", 0, "map", "pieces"), None, "$.nodes[0].map.pieces"),
        ("example1.json", ("graph", "d"), "abc", "$.graph.d"),
        ("example1.json", ("nodes", 0, "u"), "x", "$.nodes[0].u"),
        ("example1.json", ("coupling", "matrix", 0, 0), "nan", "$.coupling.matrix[0][0]"),
        ("example1.json", ("nodes", 0, "map", "dim_in"), 0, "$.nodes[0].map.dim_in"),
        ("example1.json", ("nodes", 0, "map", "dim_in"), -1, "$.nodes[0].map.dim_in"),
        ("example1.json", ("nodes", 0, "map", "dim_out"), 0, "$.nodes[0].map.dim_out"),
        ("example1.json", ("nodes", 0, "map", "dim_in"), 2,
         "$.nodes[0].map.pieces[0].matrix"),
        ("example1.json", ("nodes", 0, "map", "dim_out"), 2,
         "$.nodes[0].map.pieces[0].matrix"),
        ("theorem1_perm23.json", ("nodes", 0, "map", "pieces", 1, "offset"), [],
         "$.nodes[0].map.pieces[1].offset"),
        ("example1_alpha_0.2.json", ("nodes", 1, "map", "pieces", 0, "offset"), [],
         "$.nodes[1].map.pieces[0].offset"),
        ("example2.json", ("nodes", 0, "unified", "members", 1, "p_u"), [],
         "$.nodes[0].unified.members[1].p_u"),
        ("example1.json", ("nodes", 0, "map", "pieces", 0, "normals"), [[1, 0]],
         "$.nodes[0].map.pieces[0].normals"),
        ("example1.json", ("nodes", 0, "transition", 0, 0), 1e308,
         "$.nodes[0].transition[0][0]"),
        ("example1.json", ("nodes", 1, "transition", 1, 0), 2,
         "$.nodes[1].transition[1][0]"),
        ("example1.json", ("nodes", 0, "hsets", 1, "chart", "linear"), [[0]],
         "$.nodes[0].hsets[1].chart"),
        ("example2.json", ("nodes", 0, "unified", "chart", "linear"), [[0]],
         "$.nodes[0].unified.chart"),
        ("example2.json", ("nodes", 0, "unified", "members", 1, "r"), 0,
         "$.nodes[0].unified.members[1].r"),
        ("example2.json", ("nodes", 1, "unified", "members", 0, "r"), 1.5,
         "$.nodes[1].unified.members[0].r"),
    ], ids=["edges-int", "edge-short", "pieces-null", "d-text", "u-text", "matrix-nan",
            "dim-in-zero", "dim-in-negative", "dim-out-zero", "dim-in-two", "dim-out-two",
            "offset-empty-perm23", "offset-empty-alpha", "p-u-empty", "normals-wide",
            "transition-huge", "transition-two", "hset-chart-singular",
            "unified-chart-singular", "member-r-zero", "member-r-above-one"])
    def test_exit_two_with_path(self, name, path, value, where, fixdir, tmp_path, capsys):
        doc = json.loads((fixdir / name).read_text())
        spec = tmp_path / "hostile.json"
        spec.write_text(json.dumps(_mutated(doc, path, value)))
        with pytest.raises(SpecFormatError, match=re.escape(where + ":")):
            load_spec(spec)
        assert main(["verify", str(spec)]) == 2
        err = capsys.readouterr().err
        assert f"error: {where}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXDIR.glob("*.json")))
    def test_every_refusal_of_a_one_leaf_mutation_names_its_path(self, name):
        # every leaf of the fixture set to each of a few hostile values: what
        # parsing or validation refuses (the refusals before any check) names
        # a JSON path first
        doc = json.loads((FIXDIR / name).read_text())
        unnamed = []
        for path in _leaves(doc):
            for value in (None, "x", -1, 0, 2, 3.5, 1e308):
                try:
                    refusals = validate_spec(parse_spec(_mutated(doc, path, value))).errors
                except (SpecFormatError, SpecError) as exc:
                    refusals = (str(exc),)
                unnamed += [(path, value, r) for r in refusals if not r.startswith("$.")]
        assert unnamed == []

    @pytest.mark.parametrize("name", ["example1.json", "theorem1_perm23.json"])
    def test_every_verb_refuses_a_one_leaf_mutation_alike(self, name, tmp_path, capsys):
        # every leaf set to each of a few hostile values, through the five
        # verbs at their cheapest options (which keep each verb's option
        # limits out of reach): a spec that parsing, validation or the
        # set-up refuses gets the same first error line, with its JSON
        # path, from every verb; on a spec they accept, no verb exits 2
        # without a path, and an operation that fails (exit 1) names its
        # node or the coupling.  A traceback that escapes ``main`` fails here
        doc = json.loads((FIXDIR / name).read_text())
        spec = tmp_path / "mutant.json"
        for path in _leaves(doc):
            for value in (0, -1, 3.5, 1e308):
                mutant = _mutated(doc, path, value)
                spec.write_text(json.dumps(mutant))
                try:
                    parsed = parse_spec(mutant)
                    refused = "; ".join(validate_spec(parsed).errors) or None
                    if refused is None:
                        set_up(parsed)
                except (SpecFormatError, SpecError) as exc:
                    refused = str(exc)
                for verb, *options in (["verify"], ["margin"], ["periodic", "--auto"],
                                       ["simulate", "--steps", "1"],
                                       ["entropy", "--empirical", "2", "8", "0"]):
                    code = main([verb, str(spec), *options])
                    err = capsys.readouterr().err
                    first = next((line for line in err.splitlines()
                                  if line.startswith("error: ")), "")
                    where = (path, value, verb)
                    assert "Traceback" not in err, where
                    if refused is not None:
                        assert refused.startswith("$."), where
                        assert (code, first) == (2, f"error: {refused}"), where
                    elif code == 2:
                        assert first.startswith("error: $."), where
                    elif code == 1 and first:
                        assert re.search(r"node \d|\$\.coupling", first), where

    def test_local_covering_failure_names_its_node(self, fixdir, tmp_path, capsys):
        # h-set P11 of node 1 halved through its chart: its branch no longer
        # stretches across P12, a failed hypothesis of theorem 1 on a valid
        # spec, so verify and margin read "fail" (exit 1) and name it
        doc = json.loads((fixdir / "theorem1_perm23.json").read_text())
        spec = tmp_path / "halved.json"
        spec.write_text(json.dumps(
            _mutated(doc, ("nodes", 0, "hsets", 0, "chart", "linear", 0, 0), 2)))
        reason = ("$.nodes[0].map: local covering structure fails: transition 1->2: "
                  "min stretch 0.75 <= 1")
        assert main(["verify", str(spec)]) == 1
        out = capsys.readouterr()
        assert out.err.startswith(reason) and out.err.endswith("\nverdict fail\n")
        assert json.loads(out.out)["verdict"] == "fail" and "Traceback" not in out.err
        assert main(["margin", str(spec)]) == 1
        out = capsys.readouterr()
        assert out.out.startswith(f"certification fails: verdict fail, {reason}")
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("overrides, message", [
        ([{"i": [1], "j": [2]}],
         "$.coupling.per_entry[0]: i and j must name one symbol for each of the 2 nodes"),
        ([{"i": [1, 1, 1], "j": [2, 2, 2]}],
         "$.coupling.per_entry[0]: i and j must name one symbol for each of the 2 nodes"),
        ([{"i": [9, 9], "j": [9, 9]}], "$.coupling.per_entry[0]: node 1 has no transition 9->9"),
        ([{"i": [1, 1], "j": [1, 1]}], "$.coupling.per_entry[0]: node 1 has no transition 1->1"),
        ([{"i": [1, 1], "j": [2, 2]}, {"i": [1, 1], "j": [2, 2]}],
         "$.coupling.per_entry[1]: repeats the entry of per_entry[0]"),
        ([{"i": [1, 1], "j": [2, 2], "matrix": [[1, 0], [0, 0]]}],
         "$.coupling.per_entry[0].matrix: numerically singular"),
        ([{"i": [1, 1], "j": [2, 2], "matrix": [[1]]}], "$.coupling.per_entry[0].matrix: not 2x2"),
    ], ids=["short", "long", "no-symbol", "no-transition", "repeat", "singular", "shape"])
    def test_bad_override_exit_two(self, overrides, message, fixdir, tmp_path, capsys):
        # node 1 of theorem1_perm23 swaps its two h-sets, so it has no
        # transition 1->1; an override naming no entry was once dropped
        # silently and the spec passed
        doc = json.loads((fixdir / "theorem1_perm23.json").read_text())
        doc["coupling"]["per_entry"] = [{"matrix": [[0.4, 0], [0, 0.4]], **o}
                                        for o in overrides]
        spec = tmp_path / "overrides.json"
        spec.write_text(json.dumps(doc))
        assert main(["verify", str(spec)]) == 2
        err = capsys.readouterr().err
        assert f"invalid spec: {message}\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_singular_coupling_exit_two_at_its_path(self, scale, fixdir, tmp_path, capsys):
        doc = json.loads((fixdir / "example1.json").read_text())
        doc["coupling"]["matrix"] = [[scale, scale], [scale, scale]]
        spec = tmp_path / "singular.json"
        spec.write_text(json.dumps(doc))
        assert main(["verify", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "invalid spec: $.coupling.matrix: numerically singular\n" in err
        assert "Traceback" not in err

    def test_overflowing_coupling_is_refused(self, fixdir, tmp_path, capsys):
        # every verb, the ones that check the theorems and the ones that
        # iterate the network map, refuses before any work or output, and
        # the singularity test on the way does not overflow
        doc = json.loads((fixdir / "example1_alpha_0.2.json").read_text())
        spec = tmp_path / "hostile.json"
        spec.write_text(json.dumps(_mutated(doc, ("coupling", "matrix", 1, 0), 1e308)))
        for verb, *options in (["verify"], ["margin"], ["periodic", "--auto"],
                               ["simulate", "--steps", "5"],
                               ["entropy", "--empirical", "4", "200", "1"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([verb, str(spec), *options])
            assert code == 2, verb
            out = capsys.readouterr()
            assert "error: $.coupling.matrix:" in out.err, verb
            assert "verdict" not in out.err and out.out == "", verb

    def test_overflowing_local_map_is_refused_where_iterated(self, fixdir, tmp_path, capsys):
        doc = json.loads((fixdir / "example1_alpha_0.2.json").read_text())
        spec = tmp_path / "hostile.json"
        spec.write_text(json.dumps(_mutated(doc, ("nodes", 1, "map", "pieces", 0, "matrix"),
                                            [[1e308]])))
        assert main(["simulate", str(spec), "--steps", "5"]) == 2
        out = capsys.readouterr()
        assert "error: $.nodes[1].map:" in out.err and out.out == ""

    def test_state_where_a_local_map_is_undefined_exits_one(self, fixdir, tmp_path, capsys):
        # node 2's piece 1 of theorem1_perm23 (1 <= x <= 2) made empty: the
        # map is undefined between its h-sets P21 = [-1, 1] and P22 = [2, 4],
        # a valid spec that verify passes; a step from there is an
        # operation that cannot run, named by its step and node
        doc = json.loads((fixdir / "theorem1_perm23.json").read_text())
        spec = tmp_path / "hole.json"
        spec.write_text(json.dumps(_mutated(doc, ("nodes", 1, "map", "pieces", 1, "bounds", 1),
                                            -1)))
        assert main(["verify", str(spec)]) == 0
        capsys.readouterr()
        assert main(["simulate", str(spec), "--steps", "3", "--x0=0,1.5"]) == 1
        out = capsys.readouterr()
        assert out.err == "error: step 1 of 3: node 2: map undefined at 1 of 1 points\n"
        assert out.out == ""

    def test_overflowing_local_map_is_blamed_on_its_node(self, fixdir, tmp_path, capsys):
        # node 1's chart form is infinite before any coupling scales it, so
        # the checks name the node, not the coupling, and numpy stays quiet
        doc = json.loads((fixdir / "example1_alpha_0.2.json").read_text())
        spec = tmp_path / "hostile.json"
        spec.write_text(json.dumps(_mutated(doc, ("nodes", 1, "map", "pieces", 0, "matrix"),
                                            [[1e308]])))
        for verb in ("verify", "margin"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([verb, str(spec)])
            assert code == 2, verb
            out = capsys.readouterr()
            assert "error: $.nodes[1].map:" in out.err, verb
            assert "$.coupling.matrix" not in out.err and out.out == "", verb

    @pytest.mark.parametrize("case", ["normals", "stable-slope"])
    def test_unevaluable_local_map_is_refused_at_its_node(self, case, fixdir, tmp_path,
                                                          capsys):
        # a huge cell normal, or a huge stable slope, cannot be evaluated
        # on the node's h-sets: every verb names the node's map before any
        # geometry runs, and numpy stays quiet
        if case == "normals":
            doc = _mutated(json.loads((fixdir / "example1.json").read_text()),
                           ("nodes", 0, "map", "pieces", 0, "normals"), [[1e308]])
            where = "$.nodes[0].map:"
        else:
            from test_network import _planar_golden_pair
            doc = _mutated(serialize_spec(_planar_golden_pair(0.3)),
                           ("nodes", 1, "map", "pieces", 0, "matrix", 1, 1), 1e308)
            where = "$.nodes[1].map:"
        spec = tmp_path / "hostile.json"
        spec.write_text(json.dumps(doc))
        for verb, *options in (["verify"], ["margin"], ["simulate", "--steps", "5"],
                               ["entropy", "--empirical", "4", "200", "1"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([verb, str(spec), *options])
            assert code == 2, verb
            out = capsys.readouterr()
            assert f"error: {where}" in out.err, verb
            assert "Traceback" not in out.err and out.out == "", verb

    @pytest.mark.parametrize("radius", [1e-320, 5e-324])
    def test_subnormal_member_radius_is_refused_at_its_path(self, radius, tmp_path, capsys):
        # 1/r overflows, so the member chart would scale its stable rows by inf
        from test_network import _planar_golden_pair
        doc = _mutated(serialize_spec(_planar_golden_pair(0.3)),
                       ("nodes", 0, "unified", "members", 1, "r"), radius)
        spec = tmp_path / "hostile.json"
        spec.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "error: $.nodes[0].unified.members[1].r:" in err
        assert "Traceback" not in err

    def test_high_dimensional_hset_overlap_is_refused_before_any_solve(self, tmp_path, capsys,
                                                                       monkeypatch):
        # two 8-dimensional h-sets whose box hulls meet: deciding whether
        # the sets meet would solve up to C(32, 8) = 10,518,300 systems
        dim = 8
        turn = np.eye(dim)
        turn[:2, :2] = [[1.0, -1.0], [1.0, 1.0]]
        center = np.zeros(dim)
        center[0] = 1.5
        hsets = (HSet("A", AffineChart.identity(dim)),
                 HSet("B", AffineChart(dim, 0, turn, -turn @ center)))
        node = NodeSystem(PiecewiseAffineMap.affine(3.0 * np.eye(dim), np.zeros(dim)), hsets,
                          TransitionMatrix(np.ones((2, 2), dtype=int)))
        spec = tmp_path / "hostile.json"
        spec.write_text(canonical_json(serialize_spec(
            NetworkSpec(Graph(1, frozenset()), (node,), CouplingSpec("type1", np.eye(1))))))

        # the exact image box of each source h-set solves at most its own
        # C(16, 8) = 12,870 candidates; none of the meet's may be solved
        solve, solved = np.linalg.solve, []

        def counted_solve(a, b):
            solved.append(a.shape[0])
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        start = time.perf_counter()
        assert main(["verify", str(spec)]) == 2
        assert time.perf_counter() - start < 1.0
        assert sum(solved) <= 2 * math.comb(16, 8)
        err = capsys.readouterr().err
        assert "invalid spec: $.nodes[0].hsets[1]: cannot decide whether it meets A: " \
               "10518300 candidate cell vertices" in err
        assert "Traceback" not in err

    def test_chart_form_with_too_many_cell_vertices_is_refused_at_its_node(self, tmp_path,
                                                                          capsys):
        # one cell of a 3-dimensional chart form with 110 (redundant)
        # constraints: C(116, 3) = 253,460 vertex candidates
        dim = 3
        normals = np.tile(np.eye(dim), (37, 1))[:110]
        local = PiecewiseAffineMap(dim, dim, (AffinePiece(3.0 * np.eye(dim), np.zeros(dim),
                                                          normals, np.full(110, 50.0)),))
        node = NodeSystem(local, (HSet("A", AffineChart.identity(dim)),),
                          TransitionMatrix(np.ones((1, 1), dtype=int)))
        spec = tmp_path / "hostile.json"
        spec.write_text(canonical_json(serialize_spec(
            NetworkSpec(Graph(1, frozenset()), (node,), CouplingSpec("type1", np.eye(1))))))
        assert main(["verify", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "error: $.nodes[0].map: a chart-form cell has 253460 candidate vertices" in err
        assert "Traceback" not in err

    def test_too_fine_grid_is_refused_before_any_entry(self, tmp_path, capsys, monkeypatch):
        # u = 4 with non-affine chart forms: at 256 points per axis the face
        # grid would have 8 * 256^3 = 134,217,728 rows
        from cmnverify import network
        from test_cell_geometry import _box_spec
        box = _box_spec(11, d=2, u=4)
        spec = tmp_path / "box.json"
        spec.write_text(canonical_json(serialize_spec(box)))

        def no_entries(*args, **kwargs):
            raise AssertionError("an entry was checked")
        monkeypatch.setattr(network, "_check_entries", no_entries)
        for verb in ("verify", "margin"):
            assert main([verb, str(spec), "--grid", "256"]) == 2
            err = capsys.readouterr().err
            assert ("error: $.nodes[0]: grid resolution 256 gives a face grid of 134217728 "
                    "points on this node's non-affine chart forms (u = 4), above the limit "
                    "of 4194304; the largest resolution allowed is 80") in err
            assert "Traceback" not in err
        network._prepare(box, network.TYPE_II, 80)
        with pytest.raises(SpecError, match="largest resolution allowed is 80"):
            network._prepare(box, network.TYPE_II, 81)

    def test_high_dimensional_image_separation_is_refused_at_its_node(self, tmp_path, capsys):
        # two disjoint 12-dimensional h-sets, each mapped to itself: the
        # exact box of their images would solve C(24, 12) = 2,704,156 vertex
        # candidates, so validation only warns, and theorem 1's set-up
        # refuses the table of the local map in the h-sets' charts
        dim = 12
        offset = np.zeros(dim)
        offset[0] = -10.0
        hsets = (HSet("A", AffineChart.identity(dim)),
                 HSet("B", AffineChart(dim, 0, np.eye(dim), offset)))
        node = NodeSystem(PiecewiseAffineMap.affine(3.0 * np.eye(dim), np.zeros(dim)), hsets,
                          TransitionMatrix(np.eye(2, dtype=int)))
        spec = tmp_path / "hostile.json"
        spec.write_text(canonical_json(serialize_spec(
            NetworkSpec(Graph(1, frozenset()), (node,), CouplingSpec("type1", np.eye(1))))))
        start = time.perf_counter()
        assert main(["verify", str(spec)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert ("warning: $.nodes[0].map: cannot bound the h-set images: 2704156 candidate "
                "cell vertices to enumerate, above the limit of 200000") in err
        assert ("error: $.nodes[0].map: a chart-form cell has 2704156 candidate vertices to "
                "enumerate, above the limit of 200000") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("limit, declared, where", [
        (15, False, "invalid spec: $.nodes[0].hsets: a grid of 2^4 = 16 points"),
        (624, True, "error: $.nodes[0].map: a grid of 5^4 = 625 points"),
        (624, False, "error: $.nodes[0].map: a grid of 5^4 = 625 points"),
    ], ids=["hset-corners", "declared-audit", "product-split"])
    def test_every_sample_grid_is_refused_at_its_node(self, limit, declared, where, tmp_path,
                                                      capsys, monkeypatch):
        # a lowered limit stands in for a high dimension: the corners of
        # the h-sets, and the totality probe of the local map composed into
        # each form's charts, declared or derived (s = 1), build a sample
        # grid of the 4-dimensional node
        from cmnverify import geometry
        from test_cell_geometry import _box_spec
        spec = tmp_path / "box.json"
        spec.write_text(canonical_json(serialize_spec(_box_spec(11, d=1, declared=declared))))
        monkeypatch.setattr(geometry, "MAX_GRID_POINTS", limit)
        assert main(["verify", str(spec)]) == 2
        err = capsys.readouterr().err
        assert f"{where} is above the limit of {limit} grid points" in err
        assert "Traceback" not in err

    def test_oversized_empirical_request_is_refused_before_drawing(self, capsys,
                                                                  monkeypatch):
        # example1 at depth 12 draws 2 + 2 + 2 * 11 = 26 values per sample,
        # and each block of samples builds the scramble permutations of the
        # first 26 prime bases, 10,561 values (digits(b) x b, b = 2 .. 101);
        # nothing large is allocated here: the draw fails if it is reached
        from cmnverify import dynamics
        limit = dynamics.MAX_SAMPLE_DRAWS
        assert 26 * 100_000 + 7 * 10_561 < limit

        def no_draw(n_cols, lo, hi, seed):
            raise AssertionError(f"drew {n_cols} x rows [{lo}, {hi})")
        monkeypatch.setattr(dynamics, "_halton", no_draw)
        spec = str(FIXDIR / "example1.json")
        # 629,436 samples are 39 blocks: 26 x 629,436 + 39 x 10,561 = 2^24 - 1
        most = 629_436
        assert 26 * most + 39 * 10_561 == limit - 1 < 26 * (most + 1) + 39 * 10_561
        assert main(["entropy", spec, "--empirical", "12", str(most + 1), "1"]) == 2
        err = capsys.readouterr().err
        assert (f"error: {most + 1} samples at depth 12 draw 26 x {most + 1} = "
                f"{26 * (most + 1)} quasi-random values and build at least {39 * 10_561} "
                f"permutation values, above the limit of {limit}") in err
        assert "Traceback" not in err
        # a huge depth with a single sample
        assert main(["entropy", spec, "--empirical", "1000000000", "1", "1"]) == 2
        assert "draw 2000000002 x 1 = 2000000002 quasi-random values" in capsys.readouterr().err
        # the largest request under the limit goes on to draw its first block
        with pytest.raises(AssertionError,
                           match=re.escape(f"drew 26 x rows [0, {dynamics.SAMPLE_BLOCK})")):
            main(["entropy", spec, "--empirical", "12", str(most), "1"])

    def test_halton_set_up_is_bounded_before_any_draw(self, capsys, monkeypatch):
        # one sample at depth 10^6 draws 2,000,002 values, inside the limit,
        # but would scramble 2,000,002 columns in prime bases up to 3.3e7;
        # the permutations of the first 5,793 columns alone pass the limit,
        # so no larger prime is sought and no row is drawn
        from cmnverify import dynamics

        def no_draw(n_cols, lo, hi, seed):
            raise AssertionError(f"drew {n_cols} x rows [{lo}, {hi})")
        monkeypatch.setattr(dynamics, "_halton", no_draw)
        start = time.perf_counter()
        code = main(["entropy", str(FIXDIR / "example1.json"), "--empirical", "1000000", "1",
                     "1"])
        seconds = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and seconds < 1.0
        assert err.startswith("error: 1 samples at depth 1000000 draw 2000002 x 1 = 2000002 "
                              "quasi-random values and build at least ")
        assert err.endswith(f" permutation values, above the limit of "
                            f"{dynamics.MAX_SAMPLE_DRAWS}\n")

    @pytest.mark.parametrize("matrix", [np.eye(3).tolist(), [[1, 0, 0], [0, 1, 0]],
                                        [[1, 0], [0, 1], [0, 0]]],
                             ids=["3-to-3", "3-to-2", "2-to-3"])
    def test_ambient_of_another_dimension_is_refused(self, matrix, fixdir, tmp_path, capsys):
        # example2's state lives in R^2; an interaction map of another
        # domain or range is refused on load by every verb, at its path
        doc = json.loads((fixdir / "example2.json").read_text())
        rows, cols = len(matrix), len(matrix[0])
        doc["coupling"]["ambient"] = {"dim_in": cols, "dim_out": rows, "pieces": [
            {"matrix": matrix, "offset": [0] * rows, "normals": [], "bounds": []}]}
        spec = tmp_path / "ambient.json"
        spec.write_text(json.dumps(doc))
        for verb, *options in (["verify"], ["margin"], ["periodic", "--auto"],
                               ["simulate", "--steps", "2"],
                               ["entropy", "--empirical", "4", "200", "1"]):
            assert main([verb, str(spec), *options]) == 2, verb
            out = capsys.readouterr()
            assert (f"error: $.coupling.ambient: the interaction map acts from R^{cols} to "
                    f"R^{rows}, the network state lives in R^2\n") in out.err, verb
            assert out.out == "" and "Traceback" not in out.err, verb

    def test_undefined_ambient_fails_the_conjugacy_audit(self, fixdir, tmp_path, capsys):
        # example2's interaction defined only where x0 >= 100: verify still
        # gives its verdict, and the audit reports the undefined samples
        doc = json.loads((fixdir / "example2.json").read_text())
        doc["coupling"]["ambient"]["pieces"][0].update(normals=[[-1, 0]], bounds=[-100])
        spec = tmp_path / "half.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "cert.json"
        assert main(["verify", str(spec), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "conjugacy audit failed (worst residual inf)\n" in err
        assert "verdict pass" in err and "error:" not in err
        assert json.loads(out.read_text())["conjugacy_residual"] == "inf"

    def test_unconfirmed_orbit_is_inconclusive(self, fixdir, tmp_path, capsys):
        # theorem 1 holds for the chart-coordinate model, but under the
        # default coupling the network map's orbit leaves the h-set product
        doc = json.loads((fixdir / "theorem1_perm23.json").read_text())
        spec = tmp_path / "flipped.json"
        spec.write_text(json.dumps(_mutated(doc, ("coupling", "matrix", 0, 0), -1)))
        out = tmp_path / "cert.json"
        assert main(["verify", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "periodic orbit not confirmed: orbit leaves h-set product" in err
        assert "verdict inconclusive" in err and "error:" not in err
        cert = json.loads(out.read_text())
        assert cert["verdict"] == "inconclusive"
        assert cert["global_eps"] == 0.0 and cert["period"] is None
        assert "periodic_orbits" not in cert
        # margin runs the same check and confirms the same orbit; every
        # entry passed, so it names the orbit, not a binding entry
        assert main(["margin", str(spec)]) == 1
        captured = capsys.readouterr()
        assert "periodic orbit not confirmed: orbit leaves h-set product" in captured.err
        assert captured.out.startswith("certification fails: verdict inconclusive, "
                                       "periodic orbit not confirmed: orbit leaves h-set "
                                       "product at step ")
        assert captured.out.count("\n") == 1 and "binding entry" not in captured.out
        assert "eps*" not in captured.out and "error:" not in captured.err

    def test_discontinuous_local_map_is_refused(self, tmp_path, capsys):
        # the benchmark's golden ring at d = 3, u = 1, s = 1, with node 1's
        # piece 0 (x0 <= 1) split at x0 = 0 into its two endpoint values,
        # constant in x0: the endpoint signs still read a crossing, yet no
        # point of the h-set maps into either target
        spec = _bench_gen().golden_ring(np.random.default_rng(1), 3, 0.01, u=1, s=1)
        node = spec.nodes[0]
        piece = node.local_map.pieces[0]
        assert piece.normals.tolist() == [[1.0, 0.0]] and piece.bounds.tolist() == [1.0]

        def constant(x0, normals, bounds):
            matrix, offset = piece.matrix.copy(), piece.offset.copy()
            matrix[0] = 0.0
            offset[0] = piece.evaluate_batch(np.array([[x0], [0.0]]))[0, 0]
            return AffinePiece(matrix, offset, np.array(normals, float), np.array(bounds, float))
        pieces = (constant(-1.0, [[1, 0]], [0]), constant(1.0, [[-1, 0], [1, 0]], [0, 1]),
                  *node.local_map.pieces[1:])
        split = NodeSystem(PiecewiseAffineMap(2, 2, pieces), node.hsets, node.transition,
                           node.unified)
        path = tmp_path / "split.json"
        path.write_text(canonical_json(serialize_spec(
            NetworkSpec(spec.graph, (split, *spec.nodes[1:]), spec.coupling))))
        for verb in ("verify", "margin"):
            assert main([verb, str(path)]) == 2
            err = capsys.readouterr().err
            assert ("error: $.nodes[0].map: a chart form jumps by 6.760e+00 where two of its "
                    "pieces meet; it must be continuous") in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("declared, where", [
        (False, "$.nodes[0].map"), (True, "$.nodes[0].map")])
    def test_map_with_a_gap_in_an_hset_is_refused(self, declared, where, tmp_path, capsys):
        # example 1 with every node's piece 0 (x <= 1) split into x <= 0.1
        # and 0.2 <= x <= 1 under the same affine map: no cell holds
        # (0.1, 0.2), inside h-set 1, though no sample point of the old
        # 5-point probe falls there; declared, the forms are those of the
        # original map, and the audit finds the gap in the composed one,
        # which is the map's
        base = fixtures.example1()
        nodes = []
        for node in base.nodes:
            piece = node.local_map.pieces[0]
            assert piece.normals.tolist() == [[1.0]] and piece.bounds.tolist() == [1.0]
            split = (AffinePiece(piece.matrix, piece.offset, np.array([[1.0]]), np.array([0.1])),
                     AffinePiece(piece.matrix, piece.offset, np.array([[-1.0], [1.0]]),
                                 np.array([-0.2, 1.0])))
            nodes.append(NodeSystem(PiecewiseAffineMap(1, 1, (*split, *node.local_map.pieces[1:])),
                                    node.hsets, node.transition, node.unified,
                                    chart_forms=_resolve_forms(node, "type2") if declared else None))
        path = tmp_path / "gap.json"
        path.write_text(canonical_json(serialize_spec(
            NetworkSpec(base.graph, tuple(nodes), base.coupling))))
        for verb in ("verify", "margin"):
            assert main([verb, str(path)]) == 2
            captured = capsys.readouterr()
            assert (f"error: {where}: map undefined between 0.1 and 0.2, inside "
                    "[-1, 1]") in captured.err
            assert "Traceback" not in captured.err and "eps*" not in captured.out

    def test_declared_forms_hiding_a_tent_are_refused(self, tmp_path, capsys):
        # example 1's node 1 with a tent up to 30 on [0.1, 0.4], between the
        # sample points 0 and 0.5 of a 5-point audit, and declared forms
        # composed from the original map
        base = fixtures.example1(alpha=0.05)
        node = base.nodes[0]
        up, down = (30.0 - 1.85) / 0.15, (2.9 - 30.0) / 0.15
        tent = PiecewiseAffineMap.from_breakpoints(
            [0.1, 0.25, 0.4, 1.0, 2.0],
            [(3.5, 1.5), (up, 1.85 - 0.1 * up), (down, 30.0 - 0.25 * down), (3.5, 1.5),
             (-7.0, 12.0), (2.0, -6.0)])
        declared = NodeSystem(tent, node.hsets, node.transition, node.unified,
                              chart_forms=_resolve_forms(node, "type2"))
        path = tmp_path / "tent.json"
        path.write_text(canonical_json(serialize_spec(
            NetworkSpec(base.graph, (declared, base.nodes[1]), base.coupling))))
        for verb in ("verify", "margin"):
            assert main([verb, str(path)]) == 2
            err = capsys.readouterr().err
            assert ("error: $.nodes[0].chart_forms: declared chart form 1 disagrees with the "
                    "composed map (gap 2.762e+01)") in err
            assert "Traceback" not in err

    @staticmethod
    def _first_piece_in_bands(spec, axis, out, bands):
        """``spec`` with node 1's local piece 0 cut into ``bands`` along
        x_axis: for each (lo, hi, slope, shift), the piece on lo <= x_axis <=
        hi (None: no bound) with slope * x_axis + shift added to output
        ``out``.  Declared forms are kept."""
        node = spec.nodes[0]
        piece = node.local_map.pieces[0]
        e = np.eye(node.dim)[axis:axis + 1]
        pieces = []
        for lo, hi, slope, shift in bands:
            cuts = [(r, b) for r, b in ((-e, None if lo is None else [-lo]),
                                        (e, None if hi is None else [hi])) if b is not None]
            matrix, offset = piece.matrix.copy(), piece.offset.copy()
            matrix[out, axis] += slope
            offset[out] += shift
            pieces.append(AffinePiece(matrix, offset,
                                      np.vstack([piece.normals, *(r for r, _ in cuts)]),
                                      np.concatenate([piece.bounds, *(b for _, b in cuts)])))
        local = PiecewiseAffineMap(node.dim, node.dim, (*pieces, *node.local_map.pieces[1:]))
        return NetworkSpec(spec.graph, (NodeSystem(local, node.hsets, node.transition,
                                                   node.unified, node.chart_forms),
                                        *spec.nodes[1:]), spec.coupling)

    # a continuous tent of height 30 on [0.1, 0.4], between the points -0.5,
    # 0, 0.5 of a 5-point grid
    TENT = ((None, 0.1, 0.0, 0.0), (0.1, 0.25, 200.0, -20.0), (0.25, 0.4, -200.0, 80.0),
            (0.4, None, 0.0, 0.0))

    @pytest.mark.parametrize("u, s, axis, out", [(2, 1, 1, 1), (1, 1, 0, 0)],
                             ids=["tent-spec", "plane"])
    def test_declared_forms_missing_a_tent_between_grid_points(self, u, s, axis, out,
                                                               tmp_path, capsys):
        # the bench golden ring at d = 3, alpha 0.01 with declared forms, and
        # node 1's piece 0 (x0 <= 1) carrying a tent along x_axis in output
        # ``out``: with u = 2, s = 1 this is the tent spec, which a 5-point
        # audit passed at eps* 0.039996; the forms are not the map
        spec = _bench_gen().golden_ring(np.random.default_rng(1), 3, 0.01, u=u, s=s,
                                        declared=True)
        path = tmp_path / "tent.json"
        path.write_text(canonical_json(serialize_spec(
            self._first_piece_in_bands(spec, axis, out, self.TENT))))
        for verb in ("verify", "margin"):
            assert main([verb, str(path)]) == 2
            captured = capsys.readouterr()
            assert ("error: $.nodes[0].chart_forms: declared chart form 1 disagrees with the "
                    "composed map (gap 3.000e+01)") in captured.err
            assert "Traceback" not in captured.err and captured.out == ""

    def test_derived_form_jumping_between_grid_points_is_refused(self, tmp_path, capsys):
        # the bench golden ring at d = 3, u = 2, s = 0, with node 1's piece 0
        # lifted by 5 in output 1 where x1 >= 0.3, between the grid points 0
        # and 0.5: the derived form of source 1 jumps there
        spec = _bench_gen().golden_ring(np.random.default_rng(1), 3, 0.01, u=2, s=0)
        path = tmp_path / "jump.json"
        path.write_text(canonical_json(serialize_spec(self._first_piece_in_bands(
            spec, 1, 1, ((None, 0.3, 0.0, 0.0), (0.3, None, 0.0, 5.0))))))
        for verb in ("verify", "margin"):
            assert main([verb, str(path)]) == 2
            err = capsys.readouterr().err
            assert ("error: $.nodes[0].map: a chart form jumps by 5.000e+00 where two of its "
                    "pieces meet; it must be continuous") in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("edit, where", [
        (lambda d: d["hsets"][1]["chart"].update(linear=[[0.5]]),
         "$.nodes[0].unified.members[1]: unified member 2 and h-set M12 describe different "
         "sets"),
        (lambda d: d["unified"]["members"][1].update(p_u=[3.5]),
         "$.nodes[0].unified.members[1]: member 2 (M12): unstable center [3.5] != "
         "(3(2-1), 0, ...) = [3.0]"),
        (lambda d: d["hsets"][1]["chart"].update(offset=[-1.5]),
         "$.nodes[0].hsets[1]: h-sets M11 and M12 are not disjoint"),
    ], ids=["member-and-hset", "member-center", "hsets-meet"])
    def test_validation_refusal_names_its_path(self, edit, where, fixdir, tmp_path, capsys):
        doc = json.loads((fixdir / "example1.json").read_text())
        edit(doc["nodes"][0])
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"invalid spec: {where}" in err
        assert all(line.startswith("invalid spec: $.") for line in err.splitlines()
                   if line.startswith("invalid spec"))
        assert "Traceback" not in err

    def test_unwritable_output_is_one_error_line(self, fixdir, tmp_path, capsys):
        # --out names an existing directory: the write fails after the check
        assert main(["verify", str(fixdir / "example1.json"), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err and "Traceback" not in err

    def test_declared_forms_of_a_map_on_another_space(self, tmp_path, capsys):
        # the audit evaluates the map on the node's space, in a check's
        # set-up, which validation stops first for a map on another space
        base = fixtures.example1(alpha=0.05)
        node = base.nodes[0]
        wide = NodeSystem(PiecewiseAffineMap.affine([[2.0, 0.0]], [0.0]), node.hsets,
                          node.transition, node.unified,
                          chart_forms=_resolve_forms(node, "type2"))
        path = tmp_path / "wide.json"
        path.write_text(canonical_json(serialize_spec(
            NetworkSpec(base.graph, (wide, base.nodes[1]), base.coupling))))
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error: $.nodes[0].map: local map acts on R^2, h-sets live in R^1" in err
        assert "Traceback" not in err

    @staticmethod
    def _declared_box(edit) -> dict:
        """The benchmark's golden ring at d = 1, u = 3, s = 1, with one
        declared affine form per source symbol, after ``edit`` of its forms."""
        spec = _bench_gen().golden_ring(np.random.default_rng(1), 1, 0.0, u=3, s=1,
                                        declared=True)
        doc = serialize_spec(spec)
        edit(doc["nodes"][0]["chart_forms"])
        return doc

    @staticmethod
    def _affine(rows: int, cols: int) -> dict:
        return {"dim_in": cols, "dim_out": rows,
                "pieces": [{"matrix": (2.0 * np.eye(rows, cols)).tolist(), "offset": [0] * rows}]}

    @pytest.mark.parametrize("edit, where", [
        (lambda f: f.pop("2"),
         "$.nodes[0].chart_forms: declared forms keyed [1], not by the node's source symbols "
         "[1, 2]"),
        (lambda f: f["1"].update(U=TestHostileSpec._affine(2, 2)),
         "$.nodes[0].chart_forms: declared chart form 1 splits as (u, s) = (2, 1), not (3, 1)"),
        (lambda f: f["1"].update(V=TestHostileSpec._affine(2, 2)),
         "$.nodes[0].chart_forms: declared chart form 1 splits as (u, s) = (3, 2), not (3, 1)"),
        (lambda f: f["1"].pop("V"),
         "$.nodes[0].chart_forms: declared chart form 1 splits as (u, s) = (3, 0), not (3, 1)"),
        (lambda f: f["1"].update(U=TestHostileSpec._affine(2, 3)),
         "$.nodes[0].chart_forms[1]: unstable factor must map R^u to R^u"),
        (lambda f: f.update({"0": f.pop("1")}),
         "$.nodes[0].chart_forms: declared forms keyed [2, 0], not by the node's source "
         "symbols [1, 2]"),
        (lambda f: f.update({"1,2": f.pop("1")}),
         "$.nodes[0].chart_forms: declared forms keyed [2, (1, 2)], not by the node's source "
         "symbols [1, 2]"),
        # U's one piece split into x0 <= 0.1 and x0 >= 0.6: 25 of the 125
        # points of the totality probe lie at x0 = 0.5
        (lambda f: f["1"]["U"].update(pieces=[
            dict(f["1"]["U"]["pieces"][0], normals=[[1, 0, 0]], bounds=[0.1]),
            dict(f["1"]["U"]["pieces"][0], normals=[[-1, 0, 0]], bounds=[-0.6])]),
         "$.nodes[0].chart_forms: map undefined at 25 of 125 points"),
    ], ids=["missing-key", "2d-U", "2d-V", "no-V", "non-square-U", "key-0", "key-1,2",
            "3d-U-with-a-gap"])
    def test_malformed_declared_form_is_refused_at_its_path(self, edit, where, tmp_path,
                                                            capsys):
        path = tmp_path / "box.json"
        path.write_text(json.dumps(self._declared_box(lambda f: None)))
        assert main(["verify", str(path)]) == 0
        capsys.readouterr()
        path.write_text(json.dumps(self._declared_box(edit)))
        for verb in ("verify", "margin"):
            assert main([verb, str(path)]) == 2
            err = capsys.readouterr().err
            assert f"error: {where}" in err
            assert "Traceback" not in err

    def test_every_command_refuses_them_as_verify_does(self, tmp_path, capsys):
        # the declared forms are audited in the set-up every command builds
        # on load, so the commands that never read them refuse them too
        path = tmp_path / "box.json"
        path.write_text(json.dumps(self._declared_box(lambda f: f.pop("2"))))
        errors = set()
        for argv in (["verify"], ["margin"], ["entropy"], ["periodic", "--loop", "1"],
                     ["simulate", "--steps", "2"]):
            assert main([argv[0], str(path), *argv[1:]]) == 2, argv
            out = capsys.readouterr()
            assert out.out == "", argv
            errors.add(out.err)
        assert errors == {"error: $.nodes[0].chart_forms: declared forms keyed [1], not by the "
                          "node's source symbols [1, 2]\n"}

    @pytest.mark.parametrize("verb", ["verify", "margin"])
    def test_non_permutation_transition_exits_two_with_path(self, verb, tmp_path, capsys):
        # a planar type-I spec validates with warnings only (its image
        # separation rests on bounding boxes), so theorem 1 itself refuses
        # node 1's golden-mean transition matrix
        from test_network import _planar_golden_pair
        doc = serialize_spec(_planar_golden_pair(s_slope=0.3))
        doc["coupling"]["kind"] = "type1"
        spec = tmp_path / "golden_type1.json"
        spec.write_text(canonical_json(doc))
        assert main([verb, str(spec)]) == 2
        err = capsys.readouterr().err
        assert "error: $.nodes[0].transition: theorem 1 needs a permutation matrix" in err
        assert "Traceback" not in err

    def test_period_is_the_confirmed_orbit_period(self, tmp_path):
        # W = identity: the loop through the first symbols closes after one
        # step, although lcm(dim W) = 2
        doc = {"format_version": "1", "graph": {"d": 1, "edges": []},
               "coupling": {"kind": "type1", "matrix": [[1]]},
               "nodes": [{"u": 1, "s": 0, "transition": [[1, 0], [0, 1]],
                          "map": {"breakpoints": [1, 2],
                                  "pieces": [[1.4, 0], [0.2, 1.2], [1.4, -1.2]]},
                          "hsets": [{"id": "A", "chart": {"linear": [[1]], "offset": [0]}},
                                    {"id": "B", "chart": {"linear": [[1]], "offset": [-3]}}]}]}
        spec, out = tmp_path / "identity.json", tmp_path / "cert.json"
        spec.write_text(json.dumps(doc))
        assert main(["verify", str(spec), "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert cert["periodic_orbits"][0]["loop"] == [[1]]
        assert cert["period"] == cert["periodic_orbits"][0]["period"] == 1

    def test_valid_specs_parse_unchanged(self, fixdir):
        for name in ("example1.json", "example2.json", "theorem1_perm23.json"):
            doc = json.loads((fixdir / name).read_text())
            # integers written as integral floats or strings read the same
            loose = _mutated(_mutated(doc, ("graph", "d"), float(doc["graph"]["d"])),
                             ("nodes", 0, "u"), str(doc["nodes"][0]["u"]))
            assert specs_equal(parse_spec(loose), parse_spec(doc))
            assert canonical_json(serialize_spec(parse_spec(doc))) == canonical_json(doc)

    def test_type2_node_without_unified_family(self, tmp_path):
        # node 1 declares its chart forms but drops the unified family they map into
        from cmnverify import NetworkSpec, NodeSystem
        from cmnverify.network import _resolve_forms
        spec = fixtures.example1()
        nodes = (NodeSystem(spec.nodes[0].local_map, spec.nodes[0].hsets,
                            spec.nodes[0].transition, spec.nodes[0].unified,
                            chart_forms=_resolve_forms(spec.nodes[0], "type2")),
                 spec.nodes[1])
        doc = serialize_spec(NetworkSpec(spec.graph, nodes, spec.coupling))
        del doc["nodes"][0]["unified"]
        path = tmp_path / "no_unified.json"
        path.write_text(json.dumps(doc))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(FIXDIR.parent / "src"),
                                                           env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "cmnverify", "verify", str(path)],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 2
        assert ("$.nodes[0].unified: unified family required for this coupling kind"
                in result.stderr)
        assert "Traceback" not in result.stderr


class TestEntropyCommand:
    def test_prints_bound(self, fixdir, capsys):
        assert main(["entropy", str(fixdir / "example1.json")]) == 0
        out = capsys.readouterr().out
        assert "bound 0.962424" in out

    def test_permutation_spec_gives_zero(self, fixdir, capsys):
        assert main(["entropy", str(fixdir / "theorem1_perm23.json")]) == 0
        assert "bound 0.000000" in capsys.readouterr().out

    def test_empirical_estimate(self, fixdir, capsys):
        code = main(["entropy", str(fixdir / "example1.json"),
                     "--empirical", "8", "5000", "7"])
        assert code == 0
        out = capsys.readouterr().out
        est = float([l for l in out.splitlines() if l.startswith("empirical")][0].split()[1])
        assert abs(est - 0.9624) < 0.25

    @pytest.mark.parametrize("values, message", [
        (["3", "64", "x"], "invalid int value: 'x'"),
        (["3.5", "64", "0"], "invalid int value: '3.5'"),
        (["3", "6e1", "0"], "invalid int value: '6e1'"),
        (["3", "64", "-1"], "SEED must be a nonnegative integer"),
    ])
    def test_empirical_arguments_are_usage_errors(self, values, message, fixdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", str(fixdir / "example1.json"), "--empirical", *values])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --empirical: {message}" in err
        assert "Traceback" not in err


class TestPeriodicCommand:
    def test_auto_loop(self, fixdir, tmp_path):
        out = tmp_path / "orbit.json"
        code = main(["periodic", str(fixdir / "theorem1_perm23.json"), "--auto",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["period"] == 6
        assert doc["residual"] < 1e-10
        assert all(m > 0 for m in doc["interior_margins"])

    def test_explicit_single_node_loop(self, fixdir, tmp_path, capsys):
        code = main(["periodic", str(fixdir / "example1_node1.json"),
                     "--loop", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["point"][0] == pytest.approx(-0.6)

    def test_inadmissible_loop_exit_one(self, fixdir):
        code = main(["periodic", str(fixdir / "example1_node1.json"),
                     "--loop", "2,2"])
        assert code == 1

    @pytest.mark.parametrize("loop, step, width", [
        ("1,2", "0 (1)", 1),
        ("1.1.5,2.2.5,1.3.5,2.1.5,1.2.5,2.3.5", "0 (1.1.5)", 3),
        ("1.1,2.2,1", "2 (1)", 1),
    ])
    def test_loop_step_width_exit_one(self, loop, step, width, fixdir, tmp_path, capsys):
        out = tmp_path / "orbit.json"
        code = main(["periodic", str(fixdir / "theorem1_perm23.json"), "--loop", loop,
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == (f"error: loop step {step} has {width} symbols, "
                                           f"expected 2, one per node\n")


class TestMarginCommand:
    def test_reports_radius_and_binding_entry(self, fixdir, capsys):
        assert main(["margin", str(fixdir / "example1.json")]) == 0
        out = capsys.readouterr().out
        assert "eps* 0.5" in out
        assert "binding entry" in out

    def test_failing_spec_exit_one(self, fixdir, capsys):
        assert main(["margin", str(fixdir / "example1_alpha_0.2.json")]) == 1
        assert "fails" in capsys.readouterr().out

    @pytest.mark.parametrize("name, code, i, j", [
        ("theorem1_perm23", 0, [1, 2], [2, 3]),
        ("example1_alpha_0.2", 1, [1, 1], [1, 2]),
    ])
    def test_binding_entry_is_the_first_of_least_slack(self, name, code, i, j, fixdir,
                                                        tmp_path, capsys):
        # entries 2, 4, 5 and 6 of theorem1_perm23 tie at slack 0.25, and
        # entries 1 and 3-6 of example1_alpha_0.2 at -1; the certificate and
        # margin both name the first of them in product order
        out = tmp_path / "cert.json"
        assert main(["verify", str(fixdir / f"{name}.json"), "--out", str(out)]) == code
        doc = json.loads(out.read_text())
        slack = [e["slack"] for e in doc["entries"]]
        first = slack.index(min(slack))
        assert slack.count(min(slack)) > 1
        assert [doc["entries"][first]["i"], doc["entries"][first]["j"]] == [i, j]
        assert doc["binding_entry"] == {"i": i, "j": j, "slack": min(slack)}
        capsys.readouterr()
        assert main(["margin", str(fixdir / f"{name}.json")]) == code
        assert (f"binding entry {tuple(i)}->{tuple(j)} (slack {min(slack):.6g})"
                in capsys.readouterr().out)

    def test_near_threshold_radius_is_small(self, tmp_path, capsys):
        # binding slack 2 - 10a - 1 = 0.01 at a = 0.099, divided by 2
        path = tmp_path / "near.json"
        path.write_text(json.dumps(serialize_spec(fixtures.example1(alpha=0.099))))
        assert main(["margin", str(path)]) == 0
        out = capsys.readouterr().out
        eps = float(out.splitlines()[0].split()[1])
        assert eps == pytest.approx(0.005, abs=1e-12)


class TestSimulateCommand:
    def test_trajectory_lines(self, fixdir, capsys):
        code = main(["simulate", str(fixdir / "example1.json"), "--steps", "5",
                     "--x0=-0.6,3.6"])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 6
        assert lines[0]["symbols"] == [1, 2]
        assert lines[-1]["state"][0] == pytest.approx(-0.6, abs=1e-9)

    @pytest.mark.parametrize("x0, steps", [("1", "5"), ("1,2,3", "5"), ("1", "0"), ("1,2,3", "0")])
    def test_state_of_wrong_length_exit_two(self, x0, steps, fixdir, capsys):
        code = main(["simulate", str(fixdir / "example1.json"), f"--x0={x0}",
                     "--steps", steps])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: state has dimension {x0.count(',') + 1}, expected 2\n"

    @pytest.mark.parametrize("x0, steps", [("50,0", 1019), ("1e307,0", 5)])
    def test_escaping_orbit_stops_at_its_step(self, x0, steps, fixdir, capsys):
        # a valid spec whose orbit leaves floating-point range at ``steps``:
        # exit 1 naming the step, and nothing from numpy (warnings are
        # errors in this suite); one step fewer is a finite orbit
        spec = str(fixdir / "example1.json")
        assert main(["simulate", spec, f"--x0={x0}", "--steps", str(steps + 3)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: step {steps} of {steps + 3}: the state leaves "
                       f"floating-point range\n")
        assert main(["simulate", spec, f"--x0={x0}", "--steps", str(steps - 1)]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == steps
        assert all(math.isfinite(v) for line in lines for v in line["state"])

    def test_long_orbit_is_refused_before_the_first_step(self, fixdir, capsys, monkeypatch):
        # cli calls dynamics.step by the name it imports; the stub fails if a
        # step is reached, so nothing is iterated here
        from cmnverify import cli, dynamics
        limit = dynamics.MAX_ORBIT_VALUES

        def no_step(*args):
            raise AssertionError("stepped")
        monkeypatch.setattr(cli, "step", no_step)
        # one node of dimension 1: STEPS keep STEPS + 1 values
        spec = str(fixdir / "example1_node1.json")
        assert main(["simulate", spec, "--steps", str(limit)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {limit} steps keep {limit + 1} x 1 = {limit + 1} state "
                       f"values, above the limit of {limit}\n")
        with pytest.raises(AssertionError, match="stepped"):
            main(["simulate", spec, "--steps", str(limit - 1)])
        # an orbit that stays bounded would otherwise run until killed
        spec = str(fixdir / "theorem1_perm23.json")
        assert main(["simulate", spec, "--steps", "1000000000000"]) == 2
        assert ("error: 1000000000000 steps keep 1000000000001 x 2 = 2000000000002 state "
                "values") in capsys.readouterr().err

    def test_output_lines_are_not_kept(self, fixdir, tmp_path):
        # 3,000 steps of a 2-d state: 47 KB of states, while the 3,001 output
        # lines as dicts and JSON strings would take about 3 MB of Python
        # objects; a first call warms the caches of spec loading
        import tracemalloc
        spec, out = str(fixdir / "theorem1_perm23.json"), str(tmp_path / "orbit.jsonl")
        assert main(["simulate", spec, "--steps", "1", "--out", out]) == 0
        tracemalloc.start()
        try:
            assert main(["simulate", spec, "--steps", "3000", "--out", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert len((tmp_path / "orbit.jsonl").read_text().splitlines()) == 3001

    def test_perturbed_trajectory(self, fixdir, capsys):
        code = main(["simulate", str(fixdir / "example1.json"), "--steps", "3",
                     "--x0=-0.6,3.6", "--pert", "0.01", "4"])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 4
        assert lines[1]["state"][0] != pytest.approx(-0.6, abs=1e-6)


class TestOptions:
    # options that no command reads; each verb rejects them
    REMOVED = [("verify", "--tol"), ("entropy", "--grid"), ("entropy", "--seed"),
               ("entropy", "--out"), ("periodic", "--tol"), ("periodic", "--grid"),
               ("periodic", "--seed"), ("margin", "--tol"), ("margin", "--seed"),
               ("margin", "--out"), ("simulate", "--tol"), ("simulate", "--grid"),
               ("verify", "--theorem"), ("margin", "--theorem"), ("entropy", "--tol")]

    @pytest.mark.parametrize("verb, option", REMOVED)
    def test_removed_option_is_a_usage_error(self, verb, option, fixdir, capsys):
        argv = [verb, str(fixdir / "example1.json"), option, "1"]
        if verb == "periodic":
            argv.append("--auto")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # every option a verb keeps, in each form the benchmark passes
    ACCEPTED = [
        ("verify", "example1.json", ["--grid", "256", "--seed", "1", "--out", "F"]),
        ("verify", "example1.json", ["--out", "F"]),
        ("margin", "example1.json", ["--grid", "64"]),
        ("periodic", "theorem1_perm23.json", ["--auto", "--out", "F"]),
        ("periodic", "example1_node1.json", ["--loop", "1"]),
        ("entropy", "example1_node1.json", ["--empirical", "3", "64", "1"]),
        ("simulate", "example1.json", ["--steps", "5", "--seed", "1", "--out", "F"]),
        ("simulate", "example1.json", ["--steps", "3", "--x0=-0.6,3.6",
                                       "--pert", "0.01", "4"]),
    ]

    @pytest.mark.parametrize("verb, name, options", ACCEPTED)
    def test_kept_options_run(self, verb, name, options, fixdir, tmp_path):
        argv = [verb, str(fixdir / name)] + [str(tmp_path / "out") if o == "F" else o
                                              for o in options]
        assert main(argv) == 0


    # option values that no command can use; argparse refuses each (exit 2)
    REJECTED = [
        ("simulate", "example1.json", ["--seed", "-1"], "--seed"),
        ("simulate", "example1.json", ["--pert", "0.01", "-1"], "--pert"),
        ("verify", "example2.json", ["--seed", "-1"], "--seed"),
        ("simulate", "example1.json", ["--pert", "-0.01", "1"], "--pert"),
        ("simulate", "example1.json", ["--pert", "0.01", "1.7"], "--pert"),
        ("simulate", "example1.json", ["--pert", "inf", "1"], "--pert"),
        ("simulate", "example1.json", ["--steps", "-1"], "--steps"),
        ("simulate", "example1.json", ["--x0=1,nan"], "--x0"),
        ("verify", "example1_node1.json", ["--grid", "0"], "--grid"),
        ("verify", "example1_node1.json", ["--grid", "-3"], "--grid"),
        ("margin", "example1_node1.json", ["--grid", "0"], "--grid"),
        ("margin", "example1_node1.json", ["--grid", "-3"], "--grid"),
        ("periodic", "example1_node1.json", ["--loop", "1.x"], "--loop"),
        ("periodic", "example1_node1.json", ["--loop", "0"], "--loop"),
        ("entropy", "example1.json", ["--empirical", "1", "10", "0"], "--empirical"),
        ("entropy", "example1.json", ["--empirical", "3", "0", "0"], "--empirical"),
    ]

    @pytest.mark.parametrize("verb, name, options, option", REJECTED)
    def test_bad_value_is_a_usage_error(self, verb, name, options, option, fixdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, str(fixdir / name), *options])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert f"argument {option}:" in out.err and out.out == ""
        assert "Traceback" not in out.err


class TestValidation:
    @pytest.mark.parametrize("verb", ["verify", "margin"])
    @pytest.mark.parametrize("name", ["example1.json", "theorem1_perm23.json"])
    def test_spec_is_audited_once(self, verb, name, fixdir, monkeypatch):
        """The CLI validates on load and the theorem check asks again; the
        second call reads the report kept on the spec."""
        from cmnverify import Graph, cli, network
        calls = {"cli": 0, "network": 0, "audit": 0}

        def counted(owner, attr, key):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, attr, wrapper)

        counted(cli, "validate_spec", "cli")
        counted(network, "validate_spec", "network")
        counted(Graph, "weakly_connected", "audit")
        main([verb, str(fixdir / name)])
        assert calls == {"cli": 1, "network": 1, "audit": 1}


class TestSpecRead:
    def test_digest_describes_the_parsed_bytes(self, fixdir, tmp_path, monkeypatch):
        # the file is replaced after its bytes are read; the certificate
        # must still describe, and be computed from, those bytes
        import cmnverify.cli as cli
        path = tmp_path / "spec.json"
        original = (fixdir / "example1.json").read_bytes()
        path.write_bytes(original)
        real = cli.load_spec

        def replacing_load(source):
            path.write_bytes((fixdir / "example1_alpha_0.2.json").read_bytes())
            return real(source)

        monkeypatch.setattr(cli, "load_spec", replacing_load)
        out = tmp_path / "cert.json"
        assert main(["verify", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["spec_digest"] == "sha256:" + hashlib.sha256(original).hexdigest()
        assert doc["verdict"] == "pass"


class TestImports:
    def test_paper_commands_import_no_scipy(self, tmp_path):
        # the package never imports scipy: with it blocked, every verb on
        # every shipped fixture, and verify on the benchmark's box4 network
        # (seed 1: declared affine forms with u = 3), exit as before and
        # write the same certificate bytes
        from test_cell_geometry import _bench_gen
        gen = _bench_gen()
        rng = np.random.default_rng(1)
        gen.golden_ring(rng, 3, 0.01, u=3, s=1)
        gen.write_spec(gen.golden_ring(rng, 4, 0.01, u=3, s=1, declared=True),
                       tmp_path / "box4.json")
        golden = TestVerifyCommand.GOLDEN
        runs = [[verb, str(FIXDIR / name), *options]
                for name in sorted(golden)
                for verb, *options in (["verify", "--out", str(tmp_path / f"{name}.cert")],
                                       ["margin"], ["simulate", "--steps", "5"],
                                       ["periodic", "--auto"],
                                       ["entropy", "--empirical", "4", "200", "1"])]
        runs.append(["verify", "box4.json", "--out", "box4.cert.json"])
        script = ("import contextlib, io, json, sys\n"
                  "sys.modules['scipy'] = None\n"
                  "from cmnverify.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    codes = [main(argv) for argv in {runs!r}]\n"
                  "print(json.dumps(codes))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(FIXDIR.parent / "src"),
                                                           env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        codes = json.loads(result.stdout.splitlines()[-1])
        # per fixture: verify, margin, simulate, periodic --auto (a loop
        # only under theorem 1), entropy; example1_alpha_0.2 fails theorem 2
        assert codes == [0, 0, 0, 1, 0,  1, 1, 0, 1, 0,  0, 0, 0, 1, 0,  0, 0, 0, 1, 0,
                         0, 0, 0, 0, 0,  0]
        for name, digest in golden.items():
            assert hashlib.sha256((tmp_path / f"{name}.cert").read_bytes()).hexdigest() == digest
        recorded = json.loads((FIXDIR.parent / "bench" / "expected" / "seed1.json")
                              .read_text(encoding="utf-8"))["box_u3"]["verify box4"]["sha256"]
        assert hashlib.sha256((tmp_path / "box4.cert.json").read_bytes()).hexdigest() == recorded


class TestConsoleEntryPoint:
    def test_module_invocation(self, fixdir):
        # the child finds the package in a plain checkout, not installed
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(FIXDIR.parent / "src"),
                                                           env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "cmnverify", "entropy",
             str(fixdir / "example1.json")],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0
        assert "bound 0.962424" in result.stdout
