"""One branch rule and one loop rule for periodic orbits and the sampler.

A node's affine branch on an h-set is the piece that holds the h-set's
centre, accepted when ``form_gap`` finds the local map equal to it on the
whole h-set.  So a breakpoint that does not change the map changes no
output; a real kink inside an h-set is a failed operation (exit 1), and
a map undefined on part of an h-set a spec error at its JSON path
(exit 2), which every verb's set-up refuses on load.  The set-up owns the
rule: it composes each local map into each source h-set's chart once, for
the checks and the branches alike, and looks up the piece at every h-set's
centre.  Theorem 1's loop through (1, ..., 1) is
``symbolic.permutation_loop``: its length is the period a pass reports.
Its two hypotheses are one contract for every verb: a transition matrix
that is not a permutation is a malformed type-I spec (exit 2 from all
five verbs), and a transition that is no single covering a failed
hypothesis, which ``verify`` and ``margin`` read as "fail" (exit 1).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cmnverify import (PiecewiseAffineMap, TransitionError, TransitionMatrix, canonical_json,
                       load_spec, permutation_loop, serialize_spec, theorem1_check)
from cmnverify import cli
from cmnverify.cli import main
from cmnverify.specio import spec_digest
from test_cli import _mutated
from test_network import _planar_fixed_pair

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"

# every verb that reads a branch, and simulate, with the loop each spec admits
VERBS = {
    "theorem1_perm23.json": [["verify"], ["margin"], ["periodic", "--auto"],
                             ["entropy", "--empirical", "8", "20000", "1"],
                             ["simulate", "--steps", "50"]],
    "example1.json": [["verify"], ["margin"], ["periodic", "--loop", "1.2,2.1"],
                      ["entropy", "--empirical", "8", "20000", "1"],
                      ["simulate", "--steps", "50"]],
}


def _split(doc: dict, node: int, piece: int, at: float) -> dict:
    """``doc`` with piece ``piece`` of node ``node``'s map on the line cut in
    two at ``at``, each half with the same matrix and offset: the same map."""
    pieces = doc["nodes"][node]["map"]["pieces"]
    p = pieces[piece]
    left = dict(p, normals=[*p["normals"], [1]], bounds=[*p["bounds"], at])
    right = dict(p, normals=[*p["normals"], [-1]], bounds=[*p["bounds"], -at])
    pieces[piece:piece + 1] = [left, right]
    return doc


def _kinked(doc: dict, node: int, piece: int, at: float, slope: float) -> dict:
    """``doc`` cut as ``_split`` does, with the left half's slope set to
    ``slope`` and its offset chosen so the map stays continuous at ``at``."""
    doc = _split(doc, node, piece, at)
    left = doc["nodes"][node]["map"]["pieces"][piece]
    value = left["matrix"][0][0] * at + left["offset"][0]
    left["matrix"], left["offset"] = [[slope]], [value - slope * at]
    return doc


def _fixture(name: str) -> dict:
    return json.loads((FIXDIR / name).read_text())


def _run(path: Path, argv: list[str], capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command on ``path``, with the
    spec's digest replaced, so two specs' outputs compare byte for byte."""
    code = main([argv[0], str(path), *argv[1:]])
    out, digest = capsys.readouterr(), spec_digest(path.read_bytes())
    return code, out.out.replace(digest, "DIGEST"), out.err.replace(digest, "DIGEST")


class TestRedundantBreakpoint:
    # P22 = [2, 4] of theorem1_perm23 lies in node 2's piece 2; M11 = [-1, 1]
    # of example1 in node 1's piece 0
    CASES = [("theorem1_perm23.json", 1, 2, 3.0), ("example1.json", 0, 0, 0.0)]

    @pytest.mark.parametrize("name, node, piece, at", CASES)
    def test_changes_no_output_byte(self, name, node, piece, at, tmp_path, capsys):
        plain, split = tmp_path / "plain.json", tmp_path / "split.json"
        plain.write_text(json.dumps(_fixture(name)))
        split.write_text(json.dumps(_split(_fixture(name), node, piece, at)))
        for argv in VERBS[name]:
            want = _run(plain, argv, capsys)
            got = _run(split, argv, capsys)
            assert want[0] == 0, argv
            assert got == want, argv


class TestKink:
    # a continuous map with two slopes inside one h-set: a valid spec, and
    # theorem 1 still holds on it, but no single affine branch exists there
    def _spec(self, tmp_path, name, node, piece, at, slope) -> Path:
        path = tmp_path / "kinked.json"
        path.write_text(json.dumps(_kinked(_fixture(name), node, piece, at, slope)))
        return path

    @pytest.mark.parametrize("name, node, piece, at, slope, loop", [
        ("example1.json", 0, 0, 0.0, 3.0, ["--loop", "1.2,2.1"]),
        ("theorem1_perm23.json", 0, 0, 0.0, 1.2, ["--auto"]),
    ])
    def test_periodic_and_entropy_exit_one(self, name, node, piece, at, slope, loop,
                                           tmp_path, capsys):
        spec = self._spec(tmp_path, name, node, piece, at, slope)
        for argv in (["periodic", str(spec), *loop],
                     ["entropy", str(spec), "--empirical", "6", "2000", "1"]):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert f"error: node {node + 1}, h-set 1: the local map is not one affine map" in err
            assert "Traceback" not in err

    def test_theorem1_reads_inconclusive(self, tmp_path, capsys):
        spec = self._spec(tmp_path, "theorem1_perm23.json", 0, 0, 0.0, 1.2)
        assert theorem1_check(load_spec(spec)).verdict == "pass"
        reason = "periodic orbit not confirmed: node 1, h-set 1: the local map is not one"
        assert main(["verify", str(spec)]) == 1
        out = capsys.readouterr()
        assert json.loads(out.out)["verdict"] == "inconclusive"
        assert reason in out.err and "verdict inconclusive" in out.err
        assert main(["margin", str(spec)]) == 1
        assert f"certification fails: verdict inconclusive, {reason}" in capsys.readouterr().out

    def test_valid_specs_never_exit_two(self, tmp_path, capsys):
        spec = self._spec(tmp_path, "example1.json", 0, 0, 0.0, 3.0)
        for argv in VERBS["example1.json"]:
            assert main([argv[0], str(spec), *argv[1:]]) != 2, argv
            capsys.readouterr()


class TestGap:
    # node 2's piece 0 of example1 ends at 0.5 instead of 1, so the map is
    # undefined on (0.5, 1), inside h-set M21 = [-1, 1]
    def test_exits_two_at_the_map(self, tmp_path, capsys):
        # every verb's set-up refuses it on load, with the same line
        doc = _fixture("example1.json")
        doc["nodes"][1]["map"]["pieces"][0]["bounds"] = [0.5]
        spec = tmp_path / "gap.json"
        spec.write_text(json.dumps(doc))
        for argv in (["verify"], ["margin"], ["periodic", "--loop", "1.2,2.1"],
                     ["entropy", "--empirical", "6", "2000", "1"], ["simulate", "--steps", "3"]):
            assert main([argv[0], str(spec), *argv[1:]]) == 2, argv
            out = capsys.readouterr()
            assert out.err == ("error: $.nodes[1].map: map undefined between 0.5 and 1, "
                               "inside [-1, 1]\n"), argv
            assert out.out == "", argv


class TestOperationFailure:
    # valid specs on which the sampler or a loop cannot run: each exits 1,
    # with nothing on stdout, naming the node and the h-set or the coupling
    def test_singular_branch(self, tmp_path, capsys):
        # node 2's piece 0 of example1 (x <= 1) set to the constant 5: the
        # map stays continuous, and verify reads "fail"
        doc = _fixture("example1.json")
        doc["nodes"][1]["map"]["pieces"][0].update(matrix=[[0]], offset=[5])
        spec = tmp_path / "constant.json"
        spec.write_text(json.dumps(doc))
        assert main(["verify", str(spec)]) == 1
        capsys.readouterr()
        assert main(["entropy", str(spec), "--empirical", "6", "2000", "1"]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: node 2, h-set 1: branch not invertible\n")

    def test_interaction_of_two_pieces(self, tmp_path, capsys):
        # example2's interaction map cut at x0 = 0 into two pieces of the
        # same affine map, which verify passes
        doc = _fixture("example2.json")
        piece = doc["coupling"]["ambient"]["pieces"][0]
        doc["coupling"]["ambient"]["pieces"] = [dict(piece, normals=[[1, 0]], bounds=[0]),
                                                dict(piece, normals=[[-1, 0]], bounds=[0])]
        spec = tmp_path / "cut.json"
        spec.write_text(json.dumps(doc))
        assert main(["verify", str(spec)]) == 0
        capsys.readouterr()
        for argv, purpose in ((["entropy", "--empirical", "6", "2000", "1"], "entropy sampling"),
                              (["periodic", "--loop", "1.2,2.1"], "loop composition")):
            assert main([argv[0], str(spec), *argv[1:]]) == 1, argv
            out = capsys.readouterr()
            assert (out.out, out.err) == ("", f"error: $.coupling.ambient: {purpose} needs an "
                                              "interaction map of one affine piece on all of "
                                              "space\n"), argv


def _permutation(rng, n: int) -> TransitionMatrix:
    bits = np.zeros((n, n), dtype=int)
    bits[np.arange(n), rng.permutation(n)] = 1
    return TransitionMatrix(bits)


def _cycle_length(W: TransitionMatrix) -> int:
    """Length of W's cycle through symbol 1, walked on the matrix rows."""
    length, at = 1, int(np.flatnonzero(W.bits[0])[0])
    while at != 0:
        length, at = length + 1, int(np.flatnonzero(W.bits[at])[0])
    return length


class TestPermutationLoop:
    def test_length_is_the_lcm_of_the_cycle_lengths(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            Ws = [_permutation(rng, int(rng.integers(1, 8)))
                  for _ in range(int(rng.integers(1, 5)))]
            loop = permutation_loop(Ws)
            assert len(loop) == math.lcm(*[_cycle_length(W) for W in Ws])
            assert loop[0] == (1,) * len(Ws)
            assert len(set(loop)) == len(loop)
            # each step, and the closing one, follows every node's matrix
            for now, nxt in zip(loop, loop[1:] + loop[:1]):
                assert all(W.allows(a, b) for W, a, b in zip(Ws, now, nxt))

    def test_names_the_first_node_that_is_not_a_permutation(self):
        Ws = [TransitionMatrix(np.eye(2, dtype=int)), TransitionMatrix([[1, 1], [1, 0]])]
        with pytest.raises(TransitionError, match="node 2: transition matrix is not a "
                                                  "permutation"):
            permutation_loop(Ws)

    def test_theorem1_period_is_its_length(self):
        spec = load_spec(FIXDIR / "theorem1_perm23.json")
        loop = permutation_loop([node.transition for node in spec.nodes])
        assert theorem1_check(spec).period == len(loop) == 6

    def test_auto_loop_on_a_non_permutation_node_exits_one(self, capsys):
        assert main(["periodic", str(FIXDIR / "example1.json"), "--auto"]) == 1
        assert "error: node 1: transition matrix is not a permutation" in capsys.readouterr().err


class TestSetUpOwnsTheBranches:
    # each (node, source h-set chart) composition of the local map, counted
    # over one command; the spec is caught as the command loads it.  The
    # planar type-I pair's h-set images are bounded in validation, whose
    # compositions the set-up reads
    @pytest.mark.parametrize("name, argv", [
        ("theorem1_perm23.json", ["verify"]),
        ("theorem1_perm23.json", ["periodic", "--auto"]),
        ("example1.json", ["entropy", "--empirical", "8", "2000", "1"]),
        ("planar_fixed_pair", ["verify"]),
        ("planar_fixed_pair", ["periodic", "--auto"]),
    ])
    def test_each_local_map_is_composed_into_each_chart_once(self, name, argv, monkeypatch,
                                                             capsys, tmp_path):
        path = FIXDIR / name
        if name == "planar_fixed_pair":
            path = tmp_path / "planar.json"
            path.write_text(canonical_json(serialize_spec(_planar_fixed_pair(np.eye(2)))))
        loaded, calls = [], []
        load, in_chart = cli.load_spec, PiecewiseAffineMap.in_chart

        def catch(*args, **kwargs):
            loaded.append(load(*args, **kwargs))
            return loaded[-1]

        def counted(self, chart):
            calls.append((self, chart))
            return in_chart(self, chart)
        monkeypatch.setattr(cli, "load_spec", catch)
        monkeypatch.setattr(PiecewiseAffineMap, "in_chart", counted)
        assert main([argv[0], str(path), *argv[1:]]) == 0
        capsys.readouterr()
        (spec,) = loaded
        for node in spec.nodes:
            charts = [chart for F, chart in calls if F is node.local_map]
            sources = [node.member_chart(i) for i in range(1, node.count + 1)]
            assert len(charts) == len(sources)
            assert all(any(c is chart for c in charts) for chart in sources)


def _hole5() -> dict:
    """One type-I node in R^5 mapping the unit box by 3x on the cells
    x0 <= -0.5 and x0 >= 0.5: undefined at the h-set's centre.  Above four
    dimensions the set-up samples no totality grid, so only the centre
    lookup finds the hole."""
    eye = np.eye(5)
    pieces = [{"matrix": (3 * eye).tolist(), "offset": [0] * 5,
               "normals": [(sign * eye[0]).tolist()], "bounds": [-0.5]} for sign in (-1, 1)]
    return {"format_version": "1", "graph": {"d": 1, "edges": []},
            "coupling": {"kind": "type1", "matrix": [[1]]},
            "nodes": [{"u": 5, "s": 0, "transition": [[1]],
                       "map": {"dim_in": 5, "dim_out": 5, "pieces": pieces},
                       "hsets": [{"id": "Q", "chart": {"linear": eye.tolist(),
                                                       "offset": [0] * 5}}]}]}


FIVE_VERBS = (["verify"], ["margin"], ["periodic", "--auto"], ["simulate", "--steps", "3"],
              ["entropy", "--empirical", "6", "2000", "1"])


def test_a_type1_unified_family_is_audited_by_every_verb(tmp_path, capsys):
    # members shifted off the h-sets [-1, 1] and [2, 4]: the checks would
    # read the h-set charts, the branches and located states the members'
    doc = json.loads((FIXDIR / "theorem1_perm23.json").read_text())
    doc["nodes"][0]["unified"] = {"chart": {"linear": [[1]], "offset": [0]},
                                  "members": [{"id": "P11", "p_u": [0.5], "r": 1},
                                              {"id": "P12", "p_u": [3.5], "r": 1}]}
    spec = tmp_path / "shifted.json"
    spec.write_text(json.dumps(doc))
    for argv in FIVE_VERBS:
        assert main([argv[0], str(spec), *argv[1:]]) == 2, argv
        out = capsys.readouterr()
        error = out.err.splitlines()[-1]
        assert error.startswith("error: $.nodes[0].unified.members[0]: "), argv
        assert "unified member 1 and h-set P11 describe different sets" in error, argv
        assert out.out == "", argv


def test_map_undefined_at_a_centre_exits_two_from_every_verb(tmp_path, capsys):
    spec = tmp_path / "hole5.json"
    spec.write_text(json.dumps(_hole5()))
    for argv in FIVE_VERBS:
        assert main([argv[0], str(spec), *argv[1:]]) == 2, argv
        out = capsys.readouterr()
        assert out.err == "error: $.nodes[0].map: h-set 1: map undefined at 1 of 1 points\n", argv
        assert out.out == "", argv


class TestTheorem1Hypotheses:
    def _mutant(self, tmp_path, path, value) -> Path:
        spec = tmp_path / "mutant.json"
        spec.write_text(json.dumps(_mutated(_fixture("theorem1_perm23.json"), path, value)))
        return spec

    def test_a_failed_local_covering_fails_verify_and_margin(self, tmp_path, capsys):
        # node 1's first h-set shrunk 3.5 times through its chart: its branch
        # no longer covers the second one; the spec is well formed
        spec = self._mutant(tmp_path, ("nodes", 0, "hsets", 0, "chart", "linear", 0, 0), 3.5)
        reason = "$.nodes[0].map: local covering structure fails: transition 1->2: min stretch"
        for argv in FIVE_VERBS:
            code = main([argv[0], str(spec), *argv[1:]])
            out = capsys.readouterr()
            assert "Traceback" not in out.err, argv
            if argv[0] in ("verify", "margin"):
                assert code == 1 and out.err.startswith(reason), argv
                if argv[0] == "verify":
                    assert json.loads(out.out)["verdict"] == "fail"
                    assert out.err.endswith("\nverdict fail\n")
                else:
                    assert out.out.startswith(f"certification fails: verdict fail, {reason}")
            else:
                assert code == 0 and out.err.count("error") == 0, argv

    def test_a_non_permutation_is_refused_by_every_verb(self, tmp_path, capsys):
        spec = self._mutant(tmp_path, ("nodes", 0, "transition"), [[1, 1], [1, 0]])
        lines = set()
        for argv in FIVE_VERBS:
            assert main([argv[0], str(spec), *argv[1:]]) == 2, argv
            out = capsys.readouterr()
            assert out.out == "", argv
            lines.add(out.err.splitlines()[-1])
        (line,) = lines
        assert line.startswith("error: $.nodes[0].transition: theorem 1 needs a permutation "
                               "matrix")
