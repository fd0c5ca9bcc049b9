import hashlib
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
from cmnverify.network import SpecError
from cmnverify.specio import SpecFormatError

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


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

        def no_solve(*args, **kwargs):
            raise AssertionError("a vertex candidate was solved")
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        start = time.perf_counter()
        assert main(["verify", str(spec)]) == 2
        assert time.perf_counter() - start < 1.0
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
        forms = network._node_forms(box, network.TYPE_II)
        network._require_face_grid(box, forms, 80)
        with pytest.raises(SpecError, match="largest resolution allowed is 80"):
            network._require_face_grid(box, forms, 81)

    def test_high_dimensional_image_separation_is_refused_at_its_node(self, tmp_path, capsys):
        # two disjoint 12-dimensional h-sets: bounding their images would
        # evaluate the local map on 4^12 = 16,777,216 sample points
        dim = 12
        offset = np.zeros(dim)
        offset[0] = -10.0
        hsets = (HSet("A", AffineChart.identity(dim)),
                 HSet("B", AffineChart(dim, 0, np.eye(dim), offset)))
        node = NodeSystem(PiecewiseAffineMap.affine(3.0 * np.eye(dim), np.zeros(dim)), hsets,
                          TransitionMatrix(np.ones((2, 2), dtype=int)))
        spec = tmp_path / "hostile.json"
        spec.write_text(canonical_json(serialize_spec(
            NetworkSpec(Graph(1, frozenset()), (node,), CouplingSpec("type1", np.eye(1))))))
        start = time.perf_counter()
        assert main(["verify", str(spec)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert ("invalid spec: $.nodes[0].map: cannot bound the h-set images: a grid of "
                "4^12 = 16777216 points is above the limit of 4194304 grid points") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("limit, declared, where", [
        (15, False, "invalid spec: $.nodes[0].hsets: a grid of 2^4 = 16 points"),
        (624, True, "invalid spec: $.nodes[0].chart_forms: cannot audit the declared forms: "
                    "a grid of 5^4 = 625 points"),
        (624, False, "error: $.nodes[0].map: a grid of 5^4 = 625 points"),
    ], ids=["hset-corners", "declared-audit", "product-split"])
    def test_every_sample_grid_is_refused_at_its_node(self, limit, declared, where, tmp_path,
                                                      capsys, monkeypatch):
        # a lowered limit stands in for a high dimension: the corners of
        # the h-sets, the audit of declared forms and the product split of
        # derived ones each build a sample grid of the 4-dimensional node
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
        # example1 at depth 12 draws 2 + 2 + 2 * 11 = 26 values per sample;
        # nothing large is allocated here: the draw fails if it is reached
        from cmnverify import dynamics
        limit = dynamics.MAX_SAMPLE_DRAWS
        assert 26 * 100_000 < limit

        def no_draw(n_cols, samples, seed):
            raise AssertionError(f"drew {n_cols} x {samples}")
        monkeypatch.setattr(dynamics, "_halton", no_draw)
        spec = str(FIXDIR / "example1.json")
        most = limit // 26
        assert main(["entropy", spec, "--empirical", "12", str(most + 1), "1"]) == 2
        err = capsys.readouterr().err
        assert (f"error: {most + 1} samples at depth 12 draw 26 x {most + 1} = "
                f"{26 * (most + 1)} quasi-random values, above the limit of {limit}") in err
        assert "Traceback" not in err
        # a huge depth with a single sample
        assert main(["entropy", spec, "--empirical", "1000000000", "1", "1"]) == 2
        assert "draw 2000000002 x 1 = 2000000002 quasi-random values" in capsys.readouterr().err
        # the largest request under the limit goes on to the draw
        with pytest.raises(AssertionError, match=f"drew 26 x {most}"):
            main(["entropy", spec, "--empirical", "12", str(most), "1"])

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
        assert "node 1: unified family required for this coupling kind" in result.stderr
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
    def test_paper_commands_import_no_scipy(self, fixdir):
        # scipy is imported only on the LP path (affine min_stretch with
        # u >= 2); the paper's fixtures are 1-d, so every verb on them runs
        # without it, and an eager import would cost each command its load
        runs = [[verb, str(fixdir / name), *options]
                for name in ("example1.json", "example1_alpha_0.2.json",
                             "example1_node1.json", "example2.json",
                             "theorem1_perm23.json")
                for verb, *options in (["verify"], ["margin"], ["simulate", "--steps", "5"])]
        runs += [["periodic", str(fixdir / "theorem1_perm23.json"), "--auto"],
                 ["entropy", str(fixdir / "example1.json"), "--empirical", "4", "200", "1"]]
        script = ("import contextlib, io, json, sys\n"
                  "from cmnverify.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    codes = [main(argv) for argv in {runs!r}]\n"
                  "print(json.dumps([codes, sorted(m for m in sys.modules\n"
                  "                                if m.partition('.')[0] == 'scipy')]))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(FIXDIR.parent / "src"),
                                                           env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        codes, scipy_modules = json.loads(result.stdout.splitlines()[-1])
        # example1_alpha_0.2 fails theorem 2 under verify and margin
        assert codes == [0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        assert scipy_modules == []


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
