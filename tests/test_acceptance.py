"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from cmnverify import (Perturbation, TransitionMatrix, closed_loops,
                       conjugacy_audit, count_words, degree_1d, degree_affine,
                       empirical_entropy, entry_failures, fixtures, kronecker, load_spec,
                       spectral_radius, step_power, theorem1_check,
                       theorem2_check)
from cmnverify.cli import main
from conftest import enumerate_words, random_interval_map, random_transition_matrix
from test_degree import crossing_oracle

PHI = (1.0 + math.sqrt(5.0)) / 2.0
ENTROPY_GOLDEN_PAIR = 2.0 * math.log(PHI)   # 0.9624236501192069
FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name: str):
    path = FIXDIR / name
    if not path.exists():
        fixtures.write_fixture_files(FIXDIR)
    return path


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_example1_certification():
    spec = load_spec(_fixture("example1.json"))
    t0 = time.perf_counter()
    report = theorem2_check(spec)
    elapsed = time.perf_counter() - t0
    ok = (report.passed
          and abs(report.entropy_bound - ENTROPY_GOLDEN_PAIR) < 1e-9
          and elapsed < 1.0)
    _report(1, ok, f"verdict {report.verdict}, entropy "
                   f"{report.entropy_bound:.12f} (target {ENTROPY_GOLDEN_PAIR:.12f} "
                   f"+-1e-9), runtime {elapsed:.3f}s < 1s")


def test_criterion_2_example2_conjugacy():
    spec1 = load_spec(_fixture("example1.json"))
    spec2 = load_spec(_fixture("example2.json"))
    audit = conjugacy_audit(spec2)
    r1 = theorem2_check(spec1)
    r2 = theorem2_check(spec2)
    ok = (audit.worst_residual < 1e-9
          and r2.verdict == r1.verdict == "pass"
          and abs(r2.entropy_bound - r1.entropy_bound) < 1e-15)
    _report(2, ok, f"conjugacy residual {audit.worst_residual:.3e} < 1e-9, "
                   f"verdict {r2.verdict} and entropy {r2.entropy_bound:.12f} "
                   f"identical to the first fixture")


def test_criterion_3_diffusive_threshold():
    passing = theorem2_check(fixtures.example1(alpha=0.0999))
    failing = theorem2_check(fixtures.example1(alpha=0.1001))
    entries, binding = failing.entries, failing.binding_entry()
    verdict, slack = entries.verdict[binding], entries.slack[binding]
    named = verdict == "fail" and entry_failures(verdict, slack)
    t0 = time.perf_counter()
    sweep_ok = True
    for alpha in np.linspace(0.001, 0.249, 100):
        verdict = theorem2_check(fixtures.example1(alpha=float(alpha))).passed
        sweep_ok &= verdict == (2.0 - 10.0 * alpha > 1.0)
    elapsed = time.perf_counter() - t0
    ok = (passing.passed and failing.verdict == "fail" and bool(named)
          and sweep_ok and elapsed < 5.0)
    _report(3, ok, f"alpha=0.0999 passes, alpha=0.1001 fails naming entry "
                   f"{tuple(entries.source[binding].tolist())}->"
                   f"{tuple(entries.target[binding].tolist())} "
                   f"(slack {slack:.4g}); 100-alpha sweep matches "
                   f"(2-5a)-5a>1 in {elapsed:.2f}s < 5s")


def test_criterion_4_periodic_certificate(tmp_path):
    spec = load_spec(_fixture("theorem1_perm23.json"))
    report = theorem1_check(spec)
    out = tmp_path / "orbit.json"
    code = main(["periodic", str(_fixture("theorem1_perm23.json")), "--auto",
                 "--out", str(out)])
    doc = json.loads(out.read_text())
    point = np.array(doc["point"])
    back = step_power(spec, point, 6)
    reiter = float(np.max(np.abs(back - point)))
    ok = (report.passed and report.period == 6 and code == 0
          and doc["period"] == 6 and doc["residual"] < 1e-10
          and all(m > 0 for m in doc["interior_margins"])
          and reiter < 1e-10)
    _report(4, ok, f"theorem 1 passes with period {report.period}; auto orbit "
                   f"residual {doc['residual']:.2e} < 1e-10, margins "
                   f"min {min(doc['interior_margins']):.3f} > 0, 6-step "
                   f"re-iteration residual {reiter:.2e}")


def test_criterion_5_persistence_flip():
    spec = load_spec(_fixture("example1.json"))
    eps = theorem2_check(spec).global_eps
    survived = []
    for seed in range(20):
        pert = Perturbation(0.9 * eps, seed)
        survived.append(theorem2_check(spec, pert_amplitude=pert.amplitude).passed)
    broken = []
    for seed in range(20):
        pert = Perturbation(10.0 * eps, seed)
        broken.append(not theorem2_check(spec, pert_amplitude=pert.amplitude).passed)
    ok = all(survived) and any(broken)
    _report(5, ok, f"eps*={eps}: re-certification with inflated bounds survives "
                   f"0.9*eps* for {sum(survived)}/20 seeds and breaks at "
                   f"10*eps* for {sum(broken)}/20 seeds")


def test_criterion_6_symbolic_suite(rng):
    golden = TransitionMatrix([[1, 1], [1, 0]])
    root_ok = abs(spectral_radius(golden) - PHI) < 1e-12

    shipped = [golden, TransitionMatrix([[0, 1], [1, 1]]),
               TransitionMatrix([[0, 1], [1, 0]]),
               TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])]
    words_ok = all(count_words(W, n) == len(enumerate_words(W, n))
                   for W in shipped for n in range(1, 13))

    kron_ok = True
    for _ in range(200):
        A = random_transition_matrix(rng)
        B = random_transition_matrix(rng)
        gap = abs(spectral_radius(kronecker([A, B]))
                  - spectral_radius(A) * spectral_radius(B))
        kron_ok &= gap < 1e-9

    loops_ok = True
    for W in shipped:
        power = np.eye(W.n, dtype=object)
        for p in range(1, 9):
            power = power @ W.bits.astype(object)
            loops_ok &= len(list(closed_loops(W, p))) == int(np.trace(power))

    ok = root_ok and words_ok and kron_ok and loops_ok
    _report(6, ok, f"golden root within 1e-12: {root_ok}; word counts match "
                   f"enumeration to n=12: {words_ok}; 200 Kronecker root "
                   f"products within 1e-9: {kron_ok}; loop counts equal "
                   f"trace(W^p) to p=8: {loops_ok}")


def test_criterion_7_degree_oracles(rng):
    line_checked = 0
    while line_checked < 1000:
        f = random_interval_map(rng)
        q = float(rng.uniform(-3, 3))
        want = crossing_oracle(f, q)
        if want is None:
            continue
        ends = [float(f.apply([x])[0]) - q for x in (-1.0, 1.0)]
        if min(abs(e) for e in ends) < 1e-9:
            continue
        assert degree_1d(f, q).value == want
        line_checked += 1

    affine_checked = 0
    while affine_checked < 1000:
        dim = int(rng.integers(1, 4))
        lin = rng.uniform(-2, 2, size=(dim, dim))
        if abs(np.linalg.det(lin)) < 1e-3:
            continue
        off = rng.uniform(-2, 2, size=dim)
        q = rng.uniform(-2, 2, size=dim)
        extent = float(np.max(np.abs(np.linalg.solve(lin, q - off))))
        if abs(extent - 1.0) < 1e-6:
            continue
        want = int(np.sign(np.linalg.det(lin))) if extent < 1.0 else 0
        assert degree_affine(lin, off, q).value == want
        affine_checked += 1

    _report(7, True, f"{line_checked} crossing-oracle line maps and "
                     f"{affine_checked} determinant-oracle affine maps agree")


def test_criterion_8_empirical_entropy():
    spec = load_spec(_fixture("example1.json"))
    t0 = time.perf_counter()
    est = empirical_entropy(spec, depth=12, samples=100_000, seed=7)
    elapsed = time.perf_counter() - t0
    kron = kronecker([n.transition for n in spec.nodes])
    cap = math.log(count_words(kron, 12)) / 11
    ok = (abs(est - ENTROPY_GOLDEN_PAIR) / ENTROPY_GOLDEN_PAIR < 0.10
          and est <= cap + 1e-12 and elapsed < 30.0)
    _report(8, ok, f"estimate {est:.6f} within 10% of "
                   f"{ENTROPY_GOLDEN_PAIR:.4f} (ratio {est / ENTROPY_GOLDEN_PAIR:.4f}), "
                   f"below word-count rate {cap:.4f}, runtime {elapsed:.1f}s < 30s")
