"""Certifying one covering relation, and how much perturbation it survives.

A covering certificate needs three strict inequalities in chart
coordinates: minimum stretch above 1 relative to the target's unstable
center, nonzero crossing degree there, and stable images strictly inside
the target's stable ball.  From the slack in those inequalities we get an
explicit perturbation radius: any smaller ambient disturbance leaves the
certificate intact.
"""

import math

import numpy as np

from cmnverify import (AffineChart, CenterScale, HSet, PiecewiseAffineMap,
                       ProductFormMap, check_covering, persistence_bound)

source = HSet("M11", AffineChart.shift_1d(0.0))
branch = ProductFormMap(PiecewiseAffineMap.affine([[3.5]], [1.5]))

print("does [-1,1] cover the window at center 3 under 3.5x + 1.5?")
out = check_covering(source, CenterScale([3.0], [], 1.0), branch, target_id="M12")
cert = out.certificate
print(f"  verdict: {out.verdict}")
print(f"  unstable margin {cert.unstable_margin:.3f}, degree {cert.degree.value}")

eps = persistence_bound(cert, chart_lip=1.0, coupling_lip=1.0)
print(f"  admissible perturbation radius: {eps}")

print("\nchecking the certificate against sinusoidal bumps at 0.9 of the radius:")
worst = math.inf
for seed in range(10):
    rng = np.random.default_rng(seed)
    freq, phase = rng.uniform(0.5, 2.5), rng.uniform(0, 2 * math.pi)
    vals = [3.5 * x + 1.5 + 0.9 * eps * math.sin(freq * x + phase) - 3.0
            for x in (-1.0, 1.0)]
    worst = min(worst, min(abs(v) for v in vals))
print(f"  worst perturbed boundary distance: {worst:.3f} (needs > 1)")

print("\na contraction cannot cover anything:")
weak = ProductFormMap(PiecewiseAffineMap.affine([[0.5]], [0.0]))
out = check_covering(source, CenterScale([0.0], [], 1.0), weak)
print(f"  verdict: {out.verdict}; reasons: {list(out.failures)}")

print("\nstable directions must land strictly inside the target radius:")
planar = HSet("S", AffineChart.identity(1, 1))
f = ProductFormMap(PiecewiseAffineMap.affine([[3.0]], [0.0]),
                   PiecewiseAffineMap.affine([[0.5]], [0.0]))
for r in (0.8, 0.4):
    out = check_covering(planar, CenterScale([0.0], [0.0], r), f)
    print(f"  target radius {r}: {out.verdict}"
          + (f" ({out.failures[0]})" if out.failures else ""))
