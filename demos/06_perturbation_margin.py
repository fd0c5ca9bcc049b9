"""The certified perturbation radius, and what breaks beyond it.

Certification comes with an explicit radius eps*: any local-map and
coupling disturbances of sup-norm below eps* leave every covering
inequality satisfied.  Re-running the checker with row bounds tightened by
the worst-case displacement shows the margin in action: at 0.9 eps* every
entry still certifies, at 10 eps* the rows give out.
"""

from cmnverify import Perturbation, fixtures, theorem2_check

spec = fixtures.example1()
eps = theorem2_check(spec).global_eps
print(f"certified radius for the uncoupled pair: eps* = {eps}")

print("\nre-certification with inflated bounds:")
for factor in (0.5, 0.9, 0.99, 1.5, 10.0):
    rep = theorem2_check(spec, pert_amplitude=factor * eps)
    slack = rep.entries.slack[rep.binding_entry()]
    print(f"  amplitude {factor:5.2f} * eps*: verdict {rep.verdict:5s} "
          f"(binding slack {slack:+.3f})")

print("\nseeded bump families at the two test amplitudes:")
survive = [theorem2_check(spec, pert_amplitude=Perturbation(0.9 * eps, s).amplitude).passed
           for s in range(20)]
breaks = [not theorem2_check(spec, pert_amplitude=Perturbation(10 * eps, s).amplitude).passed
          for s in range(20)]
print(f"  0.9 eps*: {sum(survive)}/20 seeds keep the certificate")
print(f"  10  eps*: {sum(breaks)}/20 seeds lose it")
print("\n(sharpness of eps* is not claimed: the radius is conservative)")
