"""The scan classifiers are small ReLU networks, exactly.

One hidden unit per signed contrast, biased by the scan threshold, and a
summing output unit thresholded at zero: the hinge sum is positive
precisely when some contrast clears the threshold.  This demo builds
both embeddings and confirms they agree with the thresholded scan
statistics on every input with a nonzero margin.
"""

import numpy as np

import cpdlab as cp

rng = np.random.default_rng(1)
n = 100
lam = cp.null_threshold(n, 0.1)

net_full = cp.embed_cusum(n, lam, "full")
net_star = cp.embed_cusum(n, lam, "star")
print(f"full embedding:  1 hidden layer, width {net_full.weights[0].shape[0]} (= 2n-2)")
print(f"grid embedding:  1 hidden layer, width {net_star.weights[0].shape[0]} (= 2|grid|)")

X = rng.standard_normal((5000, n))
X[:2500] += (np.arange(n) >= 50) * rng.uniform(0.5, 2.0, (2500, 1))

_, labels = cp.forward(net_full, X)
direct = cp.cusum_statistic(X)[0] > lam
print(f"\nfull embedding vs direct scan: {np.mean(labels == direct):.4%} agreement")

_, labels_star = cp.forward(net_star, X)
direct_star = cp.cusum_star_statistic(X)[0] > lam
print(f"grid embedding vs direct scan: {np.mean(labels_star == direct_star):.4%} agreement")

print("\nBecause the scan lives inside the network class, a trained network")
print("of the same shape can only do better on data it was trained for;")
print("see 04_training_on_scenarios.py.")
