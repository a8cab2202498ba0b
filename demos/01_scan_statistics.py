"""Tour of the CUSUM-type scan statistics.

A mean change after position tau turns a flat series into a two-level
step.  The scan projects the series onto one unit-norm step contrast per
candidate location; the largest absolute projection is the detection
statistic and its location is the classical single-change estimator.
"""

import numpy as np

import cpdlab as cp

rng = np.random.default_rng(0)
n = 100

print("== contrasts ==")
basis = cp.cusum_basis(n)
print(f"basis shape {basis.shape}, row norms all 1:",
      np.allclose(np.linalg.norm(basis, axis=1), 1.0))

print("\n== a change is a peak in the scan ==")
tau, shift = 40, 1.2
x = (np.arange(1, n + 1) > tau) * shift + rng.standard_normal(n)
stat, location = cp.cusum_statistic(x)
print(f"true change after {tau}, scan peak {stat:.2f} at {location}")

print("\n== thresholds ==")
for eps in (0.2, 0.05, 0.01):
    thr = cp.null_threshold(n, eps)
    print(f"null threshold for false-positive budget {eps}: {thr:.3f}")
print(f"decision at eps=0.05: {int(stat > cp.null_threshold(n, 0.05))}")

print("\n== dyadic grid: O(log n) scan points ==")
grid = cp.dyadic_grid(n)
print(f"grid ({grid.size} points): {grid.tolist()}")
star_stat, star_loc = cp.cusum_star_statistic(x)
print(f"grid-scan statistic {star_stat:.2f} at {star_loc} "
      f"(full scan {stat:.2f}; the grid keeps >= 57.7% of any peak)")

print("\n== risk bounds for an SNR floor ==")
for b in (0.6, 0.8, 1.0):
    print(f"  SNR floor {b}: full-scan threshold {cp.snr_threshold(n, b):.2f}, "
          f"risk bound {cp.misclassification_bound(n, b):.2e}; "
          f"grid threshold {cp.snr_threshold_star(n, b):.2f}, "
          f"bound {cp.misclassification_bound_star(n, b):.2e}")

print("\n== signal-to-noise ratio of a change ==")
print(f"snr(n=100, tau=50, 0 -> 1) = {cp.snr(100, 50, 0.0, 1.0):.3f}")
print(f"snr(n=100, tau=5,  0 -> 1) = {cp.snr(100, 5, 0.0, 1.0):.3f} "
      "(edge changes are harder)")
