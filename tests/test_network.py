import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from cmnverify import (AffineChart, CenterScale, CouplingSpec, Graph, HSet,
                       NetworkSpec, NodeSystem, PiecewiseAffineMap, SpecError,
                       TransitionMatrix, UnifiedSet, check_covering, conjugacy_audit,
                       entry_failures, fixtures, kronecker, spectral_radius, tau_search,
                       theorem1_check, theorem2_check, validate_spec)
from cmnverify import network
from cmnverify.geometry import AffinePiece, GeometryError
from conftest import random_transition_matrix

PHI = (1.0 + math.sqrt(5.0)) / 2.0
FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


class TestKronecker:
    def test_two_golden_factors(self):
        prod = kronecker([TransitionMatrix([[1, 1], [1, 0]]),
                          TransitionMatrix([[0, 1], [1, 1]])])
        assert prod.n == 4
        assert int(prod.bits.sum()) == 9

    def test_singleton(self):
        W = TransitionMatrix([[1, 1], [1, 0]])
        assert np.array_equal(kronecker([W]).bits, W.bits)

    def test_identity_factors(self):
        prod = kronecker([TransitionMatrix(np.eye(2, dtype=int))] * 2)
        assert np.array_equal(prod.bits, np.eye(4, dtype=int))

    def test_nested_loop_oracle(self, rng):
        for _ in range(20):
            A = random_transition_matrix(rng, n=int(rng.integers(1, 4)))
            B = random_transition_matrix(rng, n=int(rng.integers(1, 4)))
            prod = kronecker([A, B])
            for ia, ja, ib, jb in itertools.product(range(A.n), range(A.n),
                                                    range(B.n), range(B.n)):
                want = A.bits[ia, ja] * B.bits[ib, jb]
                assert prod.bits[ia * B.n + ib, ja * B.n + jb] == want

    def test_spectral_identity(self, rng):
        for _ in range(25):
            A = random_transition_matrix(rng)
            B = random_transition_matrix(rng)
            lhs = spectral_radius(kronecker([A, B]))
            rhs = spectral_radius(A) * spectral_radius(B)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestTauSearch:
    def test_identity_only(self):
        assert tau_search(np.eye(3, dtype=bool)) == (1, 2, 3)

    def test_all_feasible_breaks_ties_lexicographically(self):
        assert tau_search(np.ones((3, 3), dtype=bool)) == (1, 2, 3)

    def test_zero_row_has_no_matching(self):
        feas = np.ones((3, 3), dtype=bool)
        feas[1] = False
        assert tau_search(feas) is None

    def test_forced_swap(self):
        feas = np.array([[False, True], [True, True]])
        assert tau_search(feas) == (2, 1)

    def test_against_permutation_oracle(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 7))
            feas = rng.random((d, d)) < 0.4
            got = tau_search(feas)
            feasible = [perm for perm in itertools.permutations(range(d))
                        if all(feas[k, perm[k]] for k in range(d))]
            if not feasible:
                assert got is None
            else:
                want = tuple(c + 1 for c in min(feasible))
                assert got == want

    def test_assignment_sign_is_the_permutation_matrix_determinant(self):
        from cmnverify.network import _perm_sign
        for d in range(1, 7):
            for perm in itertools.permutations(range(1, d + 1)):
                det = np.linalg.det(np.eye(d)[np.array(perm) - 1])
                assert _perm_sign(perm) == round(det), perm


class TestValidateSpec:
    def test_golden_pair_is_valid(self):
        report = validate_spec(fixtures.example1())
        assert report.ok and not report.warnings

    def test_shifted_variant_is_valid(self):
        assert validate_spec(fixtures.example2()).ok

    def test_a_type1_node_of_mismatched_symbol_counts_is_reported(self):
        # a transition matrix or a unified family that does not match the
        # node's two h-sets leaves symbols without a chart or a box; the
        # image separation skips the node, whose mismatch is the error
        spec = fixtures.theorem1_perm23()
        node = spec.nodes[0]
        chart = AffineChart.identity(1, 0)
        for mismatched, error in [
                (NodeSystem(node.local_map, node.hsets,
                            TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])),
                 "$.nodes[0].transition: transition matrix is 3x3 for 2 h-sets"),
                (NodeSystem(node.local_map, node.hsets, node.transition,
                            unified=UnifiedSet(chart, (("A", CenterScale([0.0], [], 1.0)),))),
                 "$.nodes[0].unified: unified family has 1 members for 2 h-sets")]:
            report = validate_spec(NetworkSpec(spec.graph, (mismatched, spec.nodes[1]),
                                               spec.coupling))
            assert report.errors == (error,)

    def test_coupling_pattern_must_follow_edges(self):
        spec = fixtures.example1(alpha=0.05)
        pruned = NetworkSpec(Graph(2, frozenset({(1, 2)})), spec.nodes, spec.coupling)
        report = validate_spec(pruned)
        assert not report.ok
        assert any("a[1,2]" in e for e in report.errors)

    def test_transposed_convention_warning(self):
        spec = fixtures.example1()
        matrix = np.array([[1.0, 0.3], [0.0, 1.0]])  # needs edge (2,1)
        coupling = CouplingSpec("type2", matrix)
        lopsided = NetworkSpec(Graph(2, frozenset({(1, 2)})), spec.nodes, coupling)
        report = validate_spec(lopsided)
        assert not report.ok
        assert any("transposed" in w for w in report.warnings)

    def test_type2_per_entry_warning_and_effect(self):
        # the warning says what theorem2_check does: the override replaces
        # the shared model at its entry and nowhere else
        base = fixtures.example1(alpha=0.05)
        entry = ((1, 2), (2, 1))
        coupling = CouplingSpec("type2", base.coupling.matrix,
                                per_entry=((*entry, 0.4 * np.eye(2)),))
        spec = NetworkSpec(base.graph, base.nodes, coupling)
        report = validate_spec(spec)
        assert report.ok
        assert report.warnings == ("per-entry coupling matrices are applied per entry "
                                   "by the unified-family checker: each replaces the "
                                   "shared model at its own entry only",)
        before, after = theorem2_check(base).entries, theorem2_check(spec).entries
        changed = {(tuple(after.source[n].tolist()), tuple(after.target[n].tolist()))
                   for n in np.flatnonzero(after.slack != before.slack)}
        assert changed == {entry}

    def test_disconnected_graph_rejected(self):
        spec = fixtures.example1()
        loose = NetworkSpec(Graph(2, frozenset()), spec.nodes,
                            CouplingSpec("type2", np.eye(2)))
        report = validate_spec(loose)
        assert any("connected" in e for e in report.errors)

    def test_singular_coupling_rejected(self):
        spec = fixtures.example1()
        bad = NetworkSpec(spec.graph, spec.nodes,
                          CouplingSpec("type2", np.ones((2, 2))))
        report = validate_spec(bad)
        assert any("singular" in e for e in report.errors)

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_singularity_does_not_depend_on_scale(self, c):
        # the same answer at every scale, for the shared coupling matrix
        # and for a per-entry one
        base = fixtures.example1(alpha=0.05)
        entry = ((1, 2), (2, 1))

        def errors(matrix, override):
            coupling = CouplingSpec("type2", matrix, per_entry=((*entry, override),))
            return validate_spec(NetworkSpec(base.graph, base.nodes, coupling)).errors

        good, rank_one = base.coupling.matrix, np.ones((2, 2))
        assert errors(c * good, c * 0.4 * np.eye(2)) == ()
        assert errors(c * rank_one, 0.4 * np.eye(2)) == (
            "$.coupling.matrix: numerically singular",)
        assert errors(good, c * rank_one) == (
            "$.coupling.per_entry[0].matrix: numerically singular",)

    def test_small_well_conditioned_coupling_is_accepted(self):
        # 0.01 times a 6-node diffusive ring: |det| 7.8e-13, as well
        # conditioned as the ring itself
        from test_checker_equivalence import _golden_ring
        ring = _golden_ring(6, 0.02, unified=True)
        assert abs(np.linalg.det(0.01 * ring.coupling.matrix)) < 1e-12
        small = NetworkSpec(ring.graph, ring.nodes,
                            CouplingSpec("type2", 0.01 * ring.coupling.matrix))
        assert validate_spec(small).ok, validate_spec(small).errors

    def test_missing_unified_family(self):
        spec = fixtures.example1()
        stripped = tuple(NodeSystem(n.local_map, n.hsets, n.transition)
                         for n in spec.nodes)
        report = validate_spec(NetworkSpec(spec.graph, stripped, spec.coupling))
        assert any("unified" in e for e in report.errors)

    def test_overlapping_hsets_rejected(self):
        t = PiecewiseAffineMap.affine([[2.0]], [0.0])
        hsets = (HSet("A", AffineChart.shift_1d(0.0)),
                 HSet("B", AffineChart.shift_1d(-0.5)))
        node = NodeSystem(t, hsets, TransitionMatrix([[1, 1], [1, 1]]))
        spec = NetworkSpec(Graph(1, frozenset()), (node,),
                           CouplingSpec("type1", np.eye(1)))
        report = validate_spec(spec)
        assert any("disjoint" in e for e in report.errors)

    def test_overlapping_planar_hsets_rejected(self):
        # the unit box and the same box shifted by 0.5: their box hulls
        # meet, and so do the sets
        spec = _planar_type1_node(AffineChart(2, 0, np.eye(2), np.array([-0.5, 0.0])))
        report = validate_spec(spec)
        assert report.errors == ("$.nodes[0].hsets[1]: h-sets A and B are not disjoint",)
        with pytest.raises(SpecError, match="not disjoint"):
            theorem1_check(spec)

    def test_planar_hsets_disjoint_inside_meeting_hulls(self):
        # the diamond |x| + |y| <= 1 and its copy centered at (1.2, 1.2):
        # their box hulls share [0.2, 1]^2, but x + y <= 1 on the first
        # and >= 1.4 on the second
        diamond = np.array([[1.0, 1.0], [1.0, -1.0]])
        first = AffineChart(2, 0, diamond, np.zeros(2))
        second = AffineChart(2, 0, diamond, -diamond @ np.array([1.2, 1.2]))
        report = validate_spec(_planar_type1_node(second, first))
        assert report.errors == ()
        # the images of the expansion are compared by their bounding boxes
        # alone in the plane, so what those find is a warning
        assert "node 1: images of A and B overlap" in report.warnings

    def test_type1_image_separation(self):
        # expander whose image of the first set re-enters it
        t = PiecewiseAffineMap.from_breakpoints(
            [1.0, 2.0], [(3.0, 3.0), (-8.0, 14.0), (3.0, -8.0)])
        hsets = (HSet("A", AffineChart.shift_1d(0.0)),
                 HSet("B", AffineChart.shift_1d(-3.0)))
        node = NodeSystem(t, hsets, TransitionMatrix([[0, 1], [1, 0]]))
        spec = NetworkSpec(Graph(1, frozenset()), (node,),
                           CouplingSpec("type1", np.eye(1)))
        report = validate_spec(spec)
        assert any("overlap" in e or "may not" in e for e in report.errors)

    @pytest.mark.parametrize("declared", [False, True], ids=["matrix", "ambient"])
    def test_interaction_past_floating_point_range(self, declared):
        # example2 with one interaction entry at 1e308, in the coupling
        # matrix or in a declared ambient map: the local images of the
        # h-sets are finite, their coupled image is not
        base = fixtures.example2()
        huge = base.coupling.matrix.copy()
        huge[1, 0] = 1e308
        coupling = (CouplingSpec(base.coupling.kind, base.coupling.matrix,
                                 PiecewiseAffineMap.affine(huge, np.zeros(2))) if declared
                    else CouplingSpec(base.coupling.kind, huge))
        errors = validate_spec(NetworkSpec(base.graph, base.nodes, coupling)).errors
        where = "ambient" if declared else "matrix"
        assert len(errors) == 1 and re.fullmatch(
            rf"\$\.coupling\.{where}: the interaction map carries h-set states of local image "
            r"size [0-9.]+ past floating-point range", errors[0])

    def test_each_hset_box_is_read_once(self, monkeypatch, capsys):
        # the image separation reads the boxes validation built, not its
        # own, and so does every command: its set-up, the finite-step rule
        # and simulate's random start
        from cmnverify.cli import main
        calls, box = [], HSet.bounding_box
        monkeypatch.setattr(HSet, "bounding_box", lambda h: calls.append(h.id) or box(h))
        spec = fixtures.theorem1_perm23()
        assert validate_spec(spec).ok
        ids = sorted(h.id for node in spec.nodes for h in node.hsets)
        assert sorted(calls) == ids
        path = FIXDIR / "theorem1_perm23.json"
        for argv in (["verify"], ["margin"], ["periodic", "--auto"], ["simulate", "--steps", "3"],
                     ["entropy", "--empirical", "4", "200", "1"]):
            calls.clear()
            assert main([argv[0], str(path), *argv[1:]]) == 0, argv
            assert sorted(calls) == ids, argv
        capsys.readouterr()

    def test_declared_forms_audited(self):
        # validation does not read chart forms; the check's set-up audits them
        spec = fixtures.example1()
        from cmnverify import ProductFormMap
        wrong = {1: ProductFormMap(PiecewiseAffineMap.affine([[1.0]], [0.0])),
                 2: ProductFormMap(PiecewiseAffineMap.affine([[1.0]], [0.0]))}
        node = spec.nodes[0]
        tampered = NodeSystem(node.local_map, node.hsets, node.transition,
                              node.unified, chart_forms=wrong)
        spec = NetworkSpec(spec.graph, (tampered, spec.nodes[1]), spec.coupling)
        assert validate_spec(spec).ok
        with pytest.raises(SpecError, match=r"^\$\.nodes\[0\]\.chart_forms: declared chart "
                                            r"form 1 disagrees with the composed map"):
            theorem2_check(spec)


class TestTheorem2:
    def test_uncoupled_pair_certifies(self):
        report = theorem2_check(fixtures.example1())
        assert report.passed
        assert len(report.entries) == 9
        assert report.entropy_bound == pytest.approx(2 * math.log(PHI), abs=1e-9)
        assert report.global_eps == pytest.approx(0.5)
        entries = report.entries
        assert (entries.tau == (1, 2)).all()
        assert (entries.degree == 1).all()
        assert entries.unstable_margin == pytest.approx(np.ones(9))

    def test_diffusive_threshold_matches_derivation(self):
        # binding row pairs a shifted-target stretch 2 - 5a against a
        # foreign term 5a: pass exactly when 2 - 10a > 1
        for alpha in (0.02, 0.0999, 0.09, 0.05):
            assert theorem2_check(fixtures.example1(alpha=alpha)).passed
        for alpha in (0.1001, 0.12, 0.3):
            report = theorem2_check(fixtures.example1(alpha=alpha))
            assert report.verdict == "fail"

    def test_threshold_slack_is_analytic(self):
        for alpha in (0.05, 0.08, 0.0999):
            report = theorem2_check(fixtures.example1(alpha=alpha))
            binding = report.binding_entry()
            assert report.entries.slack[binding] == pytest.approx(1.0 - 10 * alpha, abs=1e-12)

    def test_failure_names_binding_entry(self):
        report = theorem2_check(fixtures.example1(alpha=0.1001))
        entries, binding = report.entries, report.binding_entry()
        assert entries.verdict[binding] == "fail"
        assert entries.slack[binding] == pytest.approx(-0.001, abs=1e-12)
        assert entry_failures(entries.verdict[binding], entries.slack[binding])

    def test_passing_entry_needs_a_nonzero_degree(self, monkeypatch):
        # every passing entry's composed degree is checked on the table
        from cmnverify import network
        monkeypatch.setattr(network, "_perm_sign", lambda tau: 0)
        with pytest.raises(ValueError, match=r"^certificate degree must be nonzero$"):
            theorem2_check(fixtures.example1())

    def test_shifted_variant_same_verdict_and_bound(self):
        for alpha in (0.05, 0.0999):
            a = theorem2_check(fixtures.example1(alpha=alpha))
            b = theorem2_check(fixtures.example2(alpha=alpha))
            assert a.verdict == b.verdict
            assert b.entropy_bound == pytest.approx(a.entropy_bound, abs=1e-12)
        assert theorem2_check(fixtures.example2(alpha=0.1001)).verdict == "fail"

    def test_node_relabelling_invariance(self):
        alpha = 0.07
        spec = fixtures.example1(alpha=alpha)
        swapped = NetworkSpec(spec.graph, (spec.nodes[1], spec.nodes[0]),
                              spec.coupling)  # symmetric diffusive matrix
        a = theorem2_check(spec)
        b = theorem2_check(swapped)
        assert a.verdict == b.verdict
        assert b.entropy_bound == pytest.approx(a.entropy_bound, abs=1e-12)
        assert b.global_eps == pytest.approx(a.global_eps, abs=1e-12)

    def test_scaling_can_overshoot_offcenter_targets(self):
        # expansion strength is *not* monotone here: scaling the coupling
        # moves the image past the shifted target center, e.g. at c = 2 the
        # endpoint distance |1.9 * U21(-1) - 3| = 1.1 undercuts the row
        base = fixtures.example1(alpha=0.05)
        assert theorem2_check(base).passed
        scaled = NetworkSpec(base.graph, base.nodes,
                             CouplingSpec("type2", 2.0 * base.coupling.matrix))
        assert theorem2_check(scaled).verdict == "fail"

    def test_single_node_reduces_to_covering_checks(self):
        spec = fixtures.example1_node1()
        report = theorem2_check(spec)
        node = spec.nodes[0]
        singles = []
        from cmnverify.network import _resolve_forms
        forms = _resolve_forms(node, "type2")
        for i, j in node.transitions():
            out = check_covering(node.hsets[i - 1],
                                 node.unified.members[j - 1][1],
                                 forms[i], target_id=node.hsets[j - 1].id)
            singles.append(out.passed)
        assert report.passed == all(singles)
        assert len(report.entries) == len(singles)

    def test_wrong_kind_rejected(self):
        with pytest.raises(SpecError):
            theorem2_check(fixtures.theorem1_perm23())

    def test_planar_unified_network(self):
        # one expanding and one contracting direction per node; the second
        # window has stable radius 0.8, physical set [2,4] x [-0.8, 0.8]
        spec = _planar_golden_pair(s_slope=0.3)
        report = validate_spec(spec)
        assert report.ok, report.errors
        result = theorem2_check(spec)
        assert result.passed
        assert result.entropy_bound == pytest.approx(2 * math.log(PHI), abs=1e-9)
        entries = result.entries
        for source, target, margin in zip(entries.source.tolist(), entries.target.tolist(),
                                          entries.stable_margin.tolist()):
            # stable row: |0.3 * r_source| against the target radius
            r_src = [0.3 * (1.0 if i == 1 else 0.8) for i in source]
            r_tgt = [1.0 if j == 1 else 0.8 for j in target]
            want = min(rt - rs for rs, rt in zip(r_src, r_tgt))
            assert margin == pytest.approx(want, abs=1e-12)

    def test_infinite_declared_form_is_blamed_on_its_node(self):
        # a declared form whose own size overflows is refused at the node's
        # chart_forms, not at the coupling that would scale it; the piece
        # lies off [-1, 1], so the form still equals the composed map there
        # and passes validation
        from cmnverify.covering import ProductFormMap
        from cmnverify.network import _prepare, _resolve_forms
        spec = fixtures.example1()
        node = spec.nodes[1]
        forms = dict(_resolve_forms(node, "type2"))
        huge = AffinePiece(np.array([[1e308]]), np.array([1e308]), np.array([[1.0]]),
                           np.array([-2.0]))
        forms[2] = ProductFormMap(PiecewiseAffineMap(1, 1, forms[2].U.pieces + (huge,)))
        declared = NodeSystem(node.local_map, node.hsets, node.transition, node.unified,
                              chart_forms=forms)
        spec = NetworkSpec(spec.graph, (spec.nodes[0], declared), spec.coupling)
        assert validate_spec(spec).ok
        with pytest.raises(SpecError, match=r"^\$\.nodes\[1\]\.chart_forms: chart-form size inf"):
            _prepare(spec, "type2", 64)

    def test_planar_stable_overflow_fails(self):
        report = theorem2_check(_planar_golden_pair(s_slope=1.1))
        assert report.verdict == "fail"

    def test_coarse_grid_gives_inconclusive_verdict(self):
        # planar sawtooth with boundary minimum 1.05 and Lipschitz 20: the
        # default face grid cannot separate the bound from the threshold,
        # and the crossing degree of a genuinely piecewise plane map is not
        # computable, so the verdict must stay inconclusive, never fail
        report = theorem2_check(_sawtooth_spec(), resolution=65)
        assert report.verdict == "inconclusive"
        assert not report.entries.tau[0].any()

    def test_tables_are_freed_with_the_check(self, monkeypatch):
        # a cell keeps the error of its undefined degree without the
        # traceback, whose frames would hold the check's tables (and their
        # face grids) in a reference cycle until the cyclic collector ran
        import gc

        from cmnverify import network
        raised = []
        original = network.degree_for_map

        def degree(*args):
            try:
                return original(*args)
            except GeometryError:     # no degree of a piecewise plane map
                raised.append(True)
                raise
        monkeypatch.setattr(network, "degree_for_map", degree)
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            report = theorem2_check(_sawtooth_spec(), resolution=65)
            gc.collect()
            left = [obj for obj in gc.garbage if isinstance(obj, network._Tables)]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert raised and report.verdict == "inconclusive"
        assert left == []


class TestTheorem1:
    def test_swap_cycle_pair_certifies(self):
        report = theorem1_check(fixtures.theorem1_perm23())
        assert report.passed
        assert report.period == 6
        assert len(report.entries) == 6
        assert report.global_eps == pytest.approx(0.125)

    def test_weak_coupling_fails(self):
        report = theorem1_check(fixtures.theorem1_perm23(scale=0.4))
        assert report.verdict == "fail"
        assert report.period is None

    def test_non_permutation_rejected(self):
        spec = fixtures.example1()
        retagged = NetworkSpec(spec.graph, spec.nodes,
                               CouplingSpec("type1", np.eye(2)))
        with pytest.raises(SpecError, match="permutation"):
            theorem1_check(retagged)

    def test_scaling_coupling_preserves_pass(self):
        # with centered targets the row margins are monotone in expansion
        base = fixtures.theorem1_perm23()
        assert theorem1_check(base).passed
        for c in (1.1, 2.0, 5.0):
            scaled = NetworkSpec(base.graph, base.nodes,
                                 CouplingSpec("type1", c * base.coupling.matrix))
            assert theorem1_check(scaled).passed

    def test_certificates_survive_inside_radius(self):
        spec = fixtures.theorem1_perm23()
        eps = theorem1_check(spec).global_eps
        assert theorem1_check(spec, pert_amplitude=0.9 * eps).passed
        assert not theorem1_check(spec, pert_amplitude=10 * eps).passed

    def test_two_swap_nodes_have_period_two(self):
        # both nodes swap their two h-sets, so the loop closes after 2 steps
        base = fixtures.theorem1_perm23()
        node = base.nodes[0]
        spec = NetworkSpec(Graph.complete(2), (node, node),
                           CouplingSpec("type1", np.eye(2)))
        report = theorem1_check(spec)
        assert report.passed
        assert report.period == 2

    def test_per_entry_matrix_override(self):
        base = fixtures.theorem1_perm23()
        weak = (( (1, 1), (2, 2), 0.4 * np.eye(2) ),)
        coupling = CouplingSpec("type1", base.coupling.matrix, per_entry=weak)
        report = theorem1_check(NetworkSpec(base.graph, base.nodes, coupling))
        assert report.verdict == "fail"
        failed = np.flatnonzero(report.entries.verdict == "fail")
        assert len(failed) == 1
        assert tuple(report.entries.source[failed[0]].tolist()) == (1, 1)

    def test_stable_factor_enters_rows(self):
        report = theorem1_check(_planar_fixed_pair(np.eye(2)))
        assert report.passed
        assert report.entries.stable_margin[0] == pytest.approx(0.6)
        # diffusive mixing adds the foreign stable stretch to each row
        report2 = theorem1_check(_planar_fixed_pair(_diffusive(0.2)))
        assert report2.passed
        assert report2.entries.stable_margin[0] == pytest.approx(1.0 - 0.4, abs=1e-12)

    @pytest.mark.parametrize("branch, transition, failure", [
        ("contracting", "1->2", "min stretch 0.5 <= 1 relative to target center [0.0]"),
        ("folding", "1->2", "degree 0 at target center [0.0]"),
        ("planar-piecewise", "1->1", "cannot certify the crossing degree: degree is "
                                     "only computed for 1-d piecewise or affine maps"),
    ])
    def test_local_covering_failure_is_a_failed_hypothesis(self, branch, transition, failure,
                                                           tmp_path, capsys):
        # a well-formed spec on which theorem 1 does not hold: "fail", not exit 2
        from cmnverify import canonical_json, serialize_spec
        from cmnverify.cli import main
        spec = _bad_branch_spec(branch)
        assert validate_spec(spec).ok
        message = (f"$.nodes[0].map: local covering structure fails: "
                   f"transition {transition}: {failure}")
        report = theorem1_check(spec)
        assert (report.verdict, report.hypothesis, report.global_eps) == ("fail", message, 0.0)
        path = tmp_path / f"{branch}.json"
        path.write_text(canonical_json(serialize_spec(spec)))
        assert main(["verify", str(path)]) == 1
        assert f"{message}\nverdict fail\n" in capsys.readouterr().err


@pytest.mark.parametrize("amplitude", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("check, make", [(theorem1_check, fixtures.theorem1_perm23),
                                         (theorem2_check, lambda: fixtures.example1(0.2))])
def test_bad_perturbation_amplitude_is_refused_before_any_work(check, make, amplitude,
                                                               monkeypatch):
    # a negative amplitude loosens every inequality, and NaN turns every
    # margin into NaN; neither reaches the set-up
    def prepare(*args):
        raise AssertionError("the check started")

    monkeypatch.setattr(network, "_prepare", prepare)
    with pytest.raises(ValueError, match=rf"^pert_amplitude must be a nonnegative finite "
                                         rf"number, got {amplitude!r}$"):
        check(make(), pert_amplitude=amplitude)


@pytest.mark.parametrize("check, unified", [(theorem1_check, False),
                                             (theorem2_check, True)])
def test_the_entry_limit_holds_the_product_of_transition_counts(check, unified, monkeypatch):
    # 3^4 = 81 entries, at the limit, are checked; 3^5 = 243 are refused in
    # the check's preparation, before the entry loop
    from test_checker_equivalence import _golden_ring
    monkeypatch.setattr(network, "MAX_ENTRIES", 81)
    assert len(check(_golden_ring(4, 0.02, unified=unified)).entries) == 81

    def never(*args):
        raise AssertionError("the entry loop ran")
    monkeypatch.setattr(network, "_check_entries", never)
    with pytest.raises(SpecError) as refused:
        check(_golden_ring(5, 0.02, unified=unified))
    assert str(refused.value) == ("$.nodes: the transition matrices give 243 Kronecker "
                                  "entries to check, above the limit of 81")


def _diffusive(alpha):
    return np.array([[1 - alpha, alpha], [alpha, 1 - alpha]])


def _bad_branch_spec(branch):
    """One type-I node whose transition 1->2 or 1->1 is no single covering.

    On the line the node swaps h-sets [-1, 1] and [2, 4]: the branch on
    [2, 4] expands onto [-1, 1], while the branch on [-1, 1] either
    contracts (0.5x + 3) or folds across [2, 4] with both ends above it
    (degree 0); the images avoid the non-target set and each other.  In the
    plane ("planar-piecewise") a single h-set, the unit box, maps onto
    itself by 3x on two cells x <= 0 and x >= 0, which the degree rule
    cannot handle.  Every spec passes validation.
    """
    if branch == "planar-piecewise":
        halves = tuple(AffinePiece(3.0 * np.eye(2), np.zeros(2), np.array([[sign, 0.0]]),
                                   np.zeros(1)) for sign in (1.0, -1.0))
        node = NodeSystem(PiecewiseAffineMap(2, 2, halves),
                          (HSet("Q", AffineChart.identity(2, 0)),), TransitionMatrix([[1]]))
        return NetworkSpec(Graph(1, frozenset()), (node,), CouplingSpec("type1", np.eye(1)))
    if branch == "contracting":
        local = PiecewiseAffineMap.from_breakpoints(
            [1.5, 2.0], [(0.5, 3.0), (-10.5, 19.5), (1.5, -4.5)])
    else:
        local = PiecewiseAffineMap.from_breakpoints(
            [0.0, 1.0, 2.0], [(-3.0, 1.5), (3.0, 1.5), (-5.9, 10.4), (1.4, -4.2)])
    node = NodeSystem(local, (HSet("A", AffineChart.shift_1d(0.0)),
                              HSet("B", AffineChart.shift_1d(-3.0))),
                      TransitionMatrix([[0, 1], [1, 0]]))
    return NetworkSpec(Graph(1, frozenset()), (node,), CouplingSpec("type1", np.eye(1)))


def _sawtooth_spec():
    """One planar node whose map is a sawtooth in each coordinate."""
    from cmnverify import CenterScale, UnifiedSet
    saw = PiecewiseAffineMap.from_breakpoints(
        [0.0], [(-20.0, 1.05 - 20.0), (20.0, 1.05 - 20.0)])
    pieces = []
    for px in saw.pieces:
        for py in saw.pieces:
            mat = np.diag([px.matrix[0, 0], py.matrix[0, 0]])
            offs = np.array([px.offset[0], py.offset[0]])
            normals = np.vstack([np.hstack([px.normals, np.zeros_like(px.normals)]),
                                 np.hstack([np.zeros_like(py.normals), py.normals])])
            bounds = np.concatenate([px.bounds, py.bounds])
            pieces.append(type(px)(mat, offs, normals, bounds))
    local = PiecewiseAffineMap(2, 2, tuple(pieces))
    unified = UnifiedSet(AffineChart.identity(2, 0),
                         (("S", CenterScale([0.0, 0.0], [], 1.0)),))
    node = NodeSystem(local, (HSet("S", AffineChart.identity(2, 0)),),
                      TransitionMatrix([[1]]), unified=unified)
    return NetworkSpec(Graph(1, frozenset()), (node,), CouplingSpec("type2", np.eye(1)))


def _planar_type1_node(second, first=AffineChart.identity(2, 0)):
    """One planar type-I node, a 3x expansion under the swap transition,
    whose h-sets A and B are carried onto the unit box by ``first`` and
    ``second``."""
    hsets = (HSet("A", first), HSet("B", second))
    node = NodeSystem(PiecewiseAffineMap.affine(3.0 * np.eye(2), np.zeros(2)), hsets,
                      TransitionMatrix([[0, 1], [1, 0]]))
    return NetworkSpec(Graph(1, frozenset()), (node,), CouplingSpec("type1", np.eye(1)))


def _planar_fixed_pair(matrix):
    """Two planar type-I nodes, each expanding by 3 and contracting by 0.4
    on a single h-set that it maps onto itself."""
    def planar_node(name):
        t = PiecewiseAffineMap.affine([[3.0, 0.0], [0.0, 0.4]], [0.0, 0.0])
        return NodeSystem(t, (HSet(name, AffineChart.identity(1, 1)),),
                          TransitionMatrix([[1]]))
    return NetworkSpec(Graph.complete(2), (planar_node("A"), planar_node("B")),
                       CouplingSpec("type1", matrix))


def _planar_golden_pair(s_slope):
    """Two planar nodes: golden-mean expansion in x, contraction by s_slope
    in y; the second unified member carries stable radius 0.8."""
    from cmnverify import CenterScale, UnifiedSet
    from conftest import planar_from_scalar

    def node(scalar_pieces, bits, ids):
        u_map = PiecewiseAffineMap.from_breakpoints([1.0, 2.0], scalar_pieces)
        local = planar_from_scalar(u_map, s_slope)
        unified = UnifiedSet(AffineChart.identity(1, 1),
                             ((ids[0], CenterScale([0.0], [0.0], 1.0)),
                              (ids[1], CenterScale([3.0], [0.0], 0.8))))
        hsets = (HSet(ids[0], unified.member_chart(0)),
                 HSet(ids[1], unified.member_chart(1)))
        return NodeSystem(local, hsets, TransitionMatrix(np.array(bits)),
                          unified=unified)

    n1 = node([(3.5, 1.5), (-7.0, 12.0), (2.0, -6.0)], [[1, 1], [1, 0]],
              ("P1", "P2"))
    n2 = node([(2.0, 3.0), (-7.0, 12.0), (3.5, -9.0)], [[0, 1], [1, 1]],
              ("Q1", "Q2"))
    return NetworkSpec(Graph.complete(2), (n1, n2),
                       CouplingSpec("type2", np.eye(2)))


class TestConjugacyAudit:
    def test_linear_model_is_exact(self):
        audit = conjugacy_audit(fixtures.example1(alpha=0.1))
        assert audit.ok
        assert audit.worst_residual < 1e-12

    def test_shifted_interaction_matches_model(self):
        audit = conjugacy_audit(fixtures.example2())
        assert audit.ok
        assert audit.worst_residual < 1e-9

    def test_injected_offset_detected(self):
        spec = fixtures.example2()
        amb = spec.coupling.ambient
        shifted = PiecewiseAffineMap.affine(amb.pieces[0].matrix,
                                            amb.pieces[0].offset + 0.01)
        tampered = NetworkSpec(spec.graph, spec.nodes,
                               CouplingSpec("type2", spec.coupling.matrix,
                                            ambient=shifted))
        audit = conjugacy_audit(tampered)
        assert not audit.ok
        assert audit.worst_residual == pytest.approx(0.01, abs=1e-9)

    def test_type1_entry_charts(self):
        audit = conjugacy_audit(fixtures.theorem1_perm23())
        assert audit.ok

    def test_undefined_interaction_is_a_mismatch(self):
        # the declared ambient map defined only where x0 >= 100: every
        # sample's coupled image is undefined, a residual of inf
        spec = fixtures.example2()
        piece = spec.coupling.ambient.pieces[0]
        half = PiecewiseAffineMap(2, 2, (AffinePiece(piece.matrix, piece.offset,
                                                     np.array([[-1.0, 0.0]]),
                                                     np.array([-100.0])),))
        audit = conjugacy_audit(NetworkSpec(spec.graph, spec.nodes,
                                            CouplingSpec("type2", spec.coupling.matrix,
                                                         ambient=half)))
        assert audit.worst_residual == math.inf and not audit.ok
        assert len(audit.mismatches) == 16 and audit.samples > 16
        assert all(m.endswith("residual inf") for m in audit.mismatches)

    # the audit evaluates one sample at a time; a batched evaluation rounds
    # differently and would change verify's certificates, so the last bit holds
    @pytest.mark.parametrize("seed, worst", [(0, 8.881784197001252e-16),
                                             (1, 1.3322676295501878e-15),
                                             (2, 1.3322676295501878e-15),
                                             (3, 1.3322676295501878e-15),
                                             (4, 1.3322676295501878e-15)])
    def test_example2_worst_residual_pinned(self, seed, worst):
        assert conjugacy_audit(fixtures.example2(), seed=seed).worst_residual == worst


class TestGraph:
    def test_weak_connectivity(self):
        assert Graph(3, frozenset({(1, 2), (3, 2)})).weakly_connected()
        assert not Graph(3, frozenset({(1, 2)})).weakly_connected()
        assert Graph(1, frozenset()).weakly_connected()

    def test_edge_bounds_checked(self):
        with pytest.raises(SpecError):
            Graph(2, frozenset({(1, 3)}))
