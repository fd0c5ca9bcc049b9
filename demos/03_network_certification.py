"""Certifying a whole coupled network, and sweeping the coupling strength.

Two interval-map nodes, each with its own transition structure, are
coupled diffusively: node outputs are mixed by [[1-a, a], [a, 1-a]].  For
every nonzero entry of the Kronecker product of the transition matrices
the checker must make each coupled row diagonally dominant under some node
reassignment; the verdict, per-entry margins, and a global admissible
perturbation radius come back in one report.

The diffusive family has a sharp certification threshold: the binding row
pairs a shifted-target stretch of 2 - 5a against a foreign term 5a, so
certification holds exactly while 2 - 10a > 1, i.e. a < 0.1.
"""

from cmnverify import entry_failures, fixtures, theorem2_check, validate_spec

spec = fixtures.example1()
print("uncoupled golden-mean pair:")
print(f"  validation: {'ok' if validate_spec(spec).ok else 'failed'}")
report = theorem2_check(spec)
print(f"  verdict {report.verdict}; {len(report.entries)} Kronecker entries; "
      f"entropy bound {report.entropy_bound:.6f}; eps* {report.global_eps}")

print("\ndiffusive sweep (threshold at a = 0.1):")
print("  alpha   verdict   slack")
for alpha in (0.02, 0.05, 0.08, 0.0999, 0.1001, 0.15, 0.25):
    rep = theorem2_check(fixtures.example1(alpha=alpha))
    print(f"  {alpha:6.4f}  {rep.verdict:7s}  {rep.entries.slack[rep.binding_entry()]:+.4f}")

# report.entries is a table: one array per column, one row per entry
rep = theorem2_check(fixtures.example1(alpha=0.1001))
entries, b = rep.entries, rep.binding_entry()
print(f"\nbinding entry at alpha = 0.1001: sources {tuple(entries.source[b].tolist())} -> "
      f"targets {tuple(entries.target[b].tolist())}")
for line in entry_failures(entries.verdict[b], entries.slack[b]):
    print(f"  {line}")

print("\nthe shifted variant (interaction not equal to its linear model)")
spec2 = fixtures.example2()
rep2 = theorem2_check(spec2)
print(f"  verdict {rep2.verdict}; entropy bound {rep2.entropy_bound:.6f} "
      "(same chart coordinates, same bound)")
