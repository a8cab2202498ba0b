"""Train a detector from labelled examples and race it against the scan.

Scenario datasets pair mean-change series with pure-noise series.  Under
independent Gaussian noise the tuned scan is essentially optimal and the
trained network should match it; under heavy-tailed noise the learned
detector pulls ahead because nothing ties it to Gaussian likelihoods.

Desk-scale sizes keep this demo under a minute; the full comparison
lives in the fig1a / fig1d recipes.
"""

import numpy as np

import cpdlab as cp

pre = cp.Preprocessor()  # scale each series onto [0, 1]

for scenario, label, train_size in (("S1", "independent Gaussian", 700),
                                    ("S3", "Cauchy heavy tails", 1000)):
    train_set = cp.gen_scenario(cp.ScenarioSpec(scenario, size=train_size), seed=7)
    test_set = cp.gen_scenario(cp.ScenarioSpec(scenario, size=3000, role="test"), seed=8)

    scan_threshold = cp.tune_threshold(cp.scan_statistics("cusum", train_set.values),
                                       train_set.labels)
    scan_preds = cp.scan_statistics("cusum", test_set.values) > scan_threshold
    scan_mer = float(np.mean(scan_preds != test_set.labels))

    net = cp.train(pre.apply(train_set.values), train_set.labels,
                   cp.Architecture(100, (198,), 1),
                   cp.TrainConfig(epochs=200, seed=7))
    _, net_preds = cp.predict(net, pre, test_set.values)
    net_mer = float(np.mean(net_preds != test_set.labels))

    print(f"{scenario} ({label}):")
    print(f"  tuned scan threshold {scan_threshold:.2f}, test MER {scan_mer:.3f}")
    print(f"  trained width-198 network, test MER {net_mer:.3f}")
    verdict = "network ahead" if net_mer < scan_mer else "scan ahead"
    print(f"  -> {verdict} by {abs(scan_mer - net_mer):.3f}\n")
