"""Tests for the synthetic benchmark generators."""

import dataclasses
import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdlab import simulate
from cpdlab.cusum import _row_blocks
from cpdlab.simulate import MulticlassSpec, ScenarioSpec


class TestSnrBase:
    def test_midpoint_value(self):
        assert simulate.snr_base(100, 50) == pytest.approx(1.5596, abs=1e-4)

    def test_symmetry(self):
        assert simulate.snr_base(100, 17) == pytest.approx(simulate.snr_base(100, 83))

    def test_minimised_at_midpoint(self):
        values = [simulate.snr_base(100, tau) for tau in range(1, 100)]
        assert int(np.argmin(values)) + 1 == 50

    @settings(max_examples=200, deadline=None, database=None)
    @given(n=st.integers(2, 10**6), fraction=st.floats(0.0, 1.0))
    def test_symmetric_and_smallest_at_the_midpoint(self, n, fraction):
        tau = 1 + round(fraction * (n - 2))
        value = simulate.snr_base(n, tau)
        assert value == simulate.snr_base(n, n - tau)
        midpoint = simulate.snr_base(n, n // 2)
        if tau in (n // 2, n - n // 2):
            assert value == midpoint
        else:
            assert value > midpoint

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            simulate.snr_base(100, 0)


@functools.cache
def _scenario_dataset(spec):
    return simulate.gen_scenario(spec, seed=5)


@functools.cache
def _multiclass_dataset(spec):
    return simulate.gen_multiclass(spec, seed=5)


@pytest.mark.parametrize("make, kwargs, field", [
    (functools.partial(ScenarioSpec, "S1"), {"size": 12.0}, "dataset size"),
    (functools.partial(ScenarioSpec, "S1"), {"size": True}, "dataset size"),
    (functools.partial(ScenarioSpec, "S1"), {"size": np.float64(12.0)}, "dataset size"),
    (functools.partial(ScenarioSpec, "S1"), {"n": 50.5}, "series length n"),
    (functools.partial(ScenarioSpec, "S1"), {"n": 50.0}, "series length n"),
    (functools.partial(ScenarioSpec, "S1"), {"n": True}, "series length n"),
    (functools.partial(MulticlassSpec, "strong"), {"per_class": 2.5}, "per_class"),
    (functools.partial(MulticlassSpec, "strong"), {"per_class": True}, "per_class"),
    (functools.partial(MulticlassSpec, "strong"), {"per_class": 0}, "per_class"),
], ids=["float-size", "bool-size", "numpy-float-size", "fractional-n", "float-n", "bool-n",
        "fractional-per-class", "bool-per-class", "zero-per-class"])
def test_spec_rejects_a_count_that_is_not_an_integer(make, kwargs, field):
    with pytest.raises(ValueError, match=field):
        make(**kwargs)


def test_spec_accepts_numpy_integer_counts():
    spec = ScenarioSpec("S1", n=np.int64(50), size=np.int64(12))
    assert simulate.gen_scenario(spec, seed=1).values.shape == (12, 50)
    mixture = simulate.gen_multiclass(MulticlassSpec("weak", per_class=np.int64(2)), seed=1)
    assert mixture.values.shape == (10, MulticlassSpec.n)


_SEEDED_CALLS = {
    "gen_scenario": lambda seed: simulate.gen_scenario(ScenarioSpec("S1", size=4), seed),
    # No block is asked for: the seed is checked when the stream is made.
    "scenario_blocks": lambda seed: simulate.scenario_blocks(ScenarioSpec("S1", size=4), seed, 10),
    "gen_multiclass": lambda seed: simulate.gen_multiclass(MulticlassSpec("weak", 1), seed),
    "multiclass_blocks": lambda seed: simulate.multiclass_blocks(MulticlassSpec("weak", 1), seed,
                                                                 10),
    "regenerate_example": lambda seed: simulate.regenerate_example(ScenarioSpec("S1", size=4),
                                                                   seed, 1),
    "gen_piecewise": lambda seed: simulate.gen_piecewise(20, [10], [0.0, 1.0], seed=seed),
}


@pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), True, -1, "7"],
                         ids=["fractional", "float", "numpy-float", "bool", "negative", "string"])
@pytest.mark.parametrize("name", list(_SEEDED_CALLS))
def test_generators_reject_a_seed_that_is_not_a_non_negative_integer(name, seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        _SEEDED_CALLS[name](seed)


def _drawn_values(result):
    """The series that a call in ``_SEEDED_CALLS`` drew, as one array."""
    if isinstance(result, simulate.LabeledDataset):
        return result.values
    if isinstance(result, tuple):  # gen_piecewise and regenerate_example
        return result[0]
    return np.concatenate([rows.copy() for _, _, rows in result])  # a block stream


@pytest.mark.parametrize("name", list(_SEEDED_CALLS))
def test_generators_accept_numpy_integer_seeds(name):
    np.testing.assert_array_equal(_drawn_values(_SEEDED_CALLS[name](np.int64(3))),
                                  _drawn_values(_SEEDED_CALLS[name](3)))


@pytest.mark.parametrize("index", [2.0, np.float64(1.0), True, -1, 4],
                         ids=["float", "numpy-float", "bool", "negative", "size"])
def test_regenerate_example_rejects_a_bad_index(index):
    with pytest.raises(ValueError, match="index must be an integer in"):
        simulate.regenerate_example(ScenarioSpec("S1", size=4), 0, index)


def test_regenerate_example_accepts_a_numpy_integer_index():
    spec = ScenarioSpec("S1", size=4)
    values, label, meta = simulate.regenerate_example(spec, 0, np.int64(1))
    assert values.tobytes() == simulate.regenerate_example(spec, 0, 1)[0].tobytes()
    assert label == 1


def _numpy_rngs(seed, indices):
    """The reference for ``simulate._example_rngs``: numpy's own sub-seeded generators."""
    for index in indices:
        yield np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _states_and_draws(rngs):
    return [(rng.bit_generator.state, rng.random(), rng.standard_normal(3).tobytes())
            for rng in rngs]


_SUB_SEED_INDICES = [0, 1, 654, 655, 2**32 - 1]  # 655 starts a block of 100-sample rows


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32 + 5, 2**64 + 3, 2**130 + 1])
def test_example_rngs_equal_numpys_sub_seeds(seed):
    assert (_states_and_draws(simulate._example_rngs(seed, _SUB_SEED_INDICES))
            == _states_and_draws(_numpy_rngs(seed, _SUB_SEED_INDICES)))


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**140),
       indices=st.lists(st.integers(0, 2**70) | st.integers(0, 2000), min_size=1, max_size=6))
def test_example_rngs_equal_numpys_sub_seeds_property(seed, indices):
    assert (_states_and_draws(simulate._example_rngs(seed, indices))
            == _states_and_draws(_numpy_rngs(seed, indices)))


@pytest.mark.parametrize("seed", [7, 2**64 + 3])
@pytest.mark.parametrize("index", [2**32 + 3, 2**33 + 5], ids=["change", "no-change"])
def test_regenerate_example_beyond_one_index_word(monkeypatch, seed, index):
    spec = ScenarioSpec("S2", n=20, size=2**34)
    values, label, meta = simulate.regenerate_example(spec, seed, index)
    monkeypatch.setattr(simulate, "_example_rngs", _numpy_rngs)
    expected, expected_label, expected_meta = simulate.regenerate_example(spec, seed, index)
    assert values.tobytes() == expected.tobytes()
    assert (label, meta) == (expected_label, expected_meta)
    assert label == (index < 2**33)


class TestScenarios:
    def test_label_balance(self):
        ds = simulate.gen_scenario(ScenarioSpec("S1", size=40), seed=0)
        assert ds.labels.sum() == 20

    def test_determinism(self):
        spec = ScenarioSpec("S2", size=30)
        a = simulate.gen_scenario(spec, seed=5)
        b = simulate.gen_scenario(spec, seed=5)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.metadata == b.metadata

    def test_s1_no_change_mean_concentration(self):
        ds = simulate.gen_scenario(ScenarioSpec("S1", size=2000), seed=1)
        means = ds.values[ds.labels == 0].mean(axis=1)
        assert np.mean(np.abs(means) <= 4 / math.sqrt(ds.n)) >= 0.99

    def test_change_metadata_ranges(self):
        # Every scenario shares one change prior.
        for scenario in simulate.SCENARIOS:
            for role, lo, hi in (("train", 0.5, 1.5), ("test", 0.25, 1.75)):
                spec = ScenarioSpec(scenario, size=400, role=role)
                ds = simulate.gen_scenario(spec, seed=2)
                for meta, label in zip(ds.metadata, ds.labels):
                    if label == 0:
                        assert meta["tau"] is None
                        continue
                    tau = meta["tau"]
                    assert 2 <= tau <= ds.n - 2
                    b = simulate.snr_base(ds.n, tau)
                    assert lo * b <= abs(meta["mu_right"]) <= hi * b

    def test_scenario_aliases_and_validation(self):
        # A scenario has one spelling, its entry of SCENARIOS.
        for name in ("S9", "s1", "s1'", "s1p", "s1prime", "S1P", "s3"):
            with pytest.raises(ValueError, match="unknown scenario"):
                ScenarioSpec(name)
        with pytest.raises(ValueError, match="even"):
            ScenarioSpec("S1", size=7)

    def test_regenerate_single_example(self):
        # One example on its own equals its row of the batched dataset,
        # for the AR(1) scenarios and the independent ones alike.
        for scenario in simulate.SCENARIOS:
            spec = ScenarioSpec(scenario, size=24)
            ds = simulate.gen_scenario(spec, seed=9)
            for meta, row, label in zip(ds.metadata, ds.values, ds.labels):
                if meta["index"] in (0, 13, 23):
                    values, lab, meta2 = simulate.regenerate_example(spec, 9, meta["index"])
                    assert values.tobytes() == row.tobytes()
                    assert lab == label and meta2 == meta

    @pytest.mark.parametrize("scenario", simulate.SCENARIOS)
    def test_every_row_is_its_regenerated_example(self, scenario):
        # 1400 rows of length 100 span three blocks of rows.
        spec = ScenarioSpec(scenario, size=1400)
        ds = simulate.gen_scenario(spec, seed=3)
        assert sorted(meta["index"] for meta in ds.metadata) == list(range(spec.size))
        for row, label, meta in zip(ds.values, ds.labels, ds.metadata):
            values, lab, meta2 = simulate.regenerate_example(spec, 3, meta["index"])
            assert values.tobytes() == row.tobytes()
            assert lab == label and meta2 == meta

    @pytest.mark.parametrize("role", ["train", "test"])
    @pytest.mark.parametrize("scenario", simulate.SCENARIOS)
    @settings(max_examples=5, deadline=None)
    @given(width=st.integers(336, 4096))
    def test_blocks_concatenate_to_the_dataset(self, scenario, role, width):
        # 586 = 2 x 293 rows in blocks of 16 to 195 rows: at least three
        # blocks, and the last one short.
        spec = ScenarioSpec(scenario, size=586, role=role)
        blocks, labels, values = zip(*((block, labels, rows.copy()) for block, labels, rows
                                       in simulate.scenario_blocks(spec, 5, width)))
        assert list(blocks) == _row_blocks(spec.size, width)
        assert len(blocks) >= 3 and len(values[-1]) < len(values[0])
        ds = _scenario_dataset(spec)
        assert np.concatenate(labels).tobytes() == ds.labels.tobytes()
        assert np.concatenate(values).tobytes() == ds.values.tobytes()

    @pytest.mark.parametrize("scenario", simulate.SCENARIOS)
    def test_memory_is_about_one_array(self, scenario):
        tracemalloc.start()
        try:
            ds = simulate.gen_scenario(ScenarioSpec(scenario, size=5000), seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured: S1, S1' and S3 5.0 MiB and S2 5.4 MiB (its block of
        # per-step rho) for 3.8 MiB of values, with 5000 metadata dicts;
        # a process's first call takes 0.7 MiB more.  Stacking the noise
        # paths, adding them to a signal matrix and shuffling a copy took
        # 13.5 (S1) and 21.6 MiB (S2).
        assert peak < ds.values.nbytes + 2.5 * 2**20


def test_ar1_noise_recursion_is_exact():
    rng = np.random.default_rng(3)
    rho = rng.uniform(0, 1, 50)
    xi = rng.standard_normal(50)
    eps = simulate.ar1_noise(rho, xi)
    assert eps[0] == xi[0]
    for t in range(1, 50):
        assert eps[t] == rho[t] * eps[t - 1] + xi[t]


def test_ar1_noise_batch_equals_rows():
    rng = np.random.default_rng(4)
    rho = rng.uniform(0, 1, (7, 30))
    xi = rng.standard_normal((7, 30))
    batch = simulate.ar1_noise(rho, xi)
    expected = np.stack([simulate.ar1_noise(r, x) for r, x in zip(rho, xi)])
    assert batch.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="equal shape"):
        simulate.ar1_noise(rho, xi[:, :-1])


# LabeledDataset.fingerprint() of small datasets: any change to the
# per-example draw order or the shuffle shows up here, as it would in
# the table1 report.
MULTICLASS_FINGERPRINTS = {
    ("weak", 0): "82d9d9dd7d20b6c5ccb9bc9779d48f0f6c08fe6b22939d600ea6bb62a6634163",
    ("weak", 1): "50530b61eda4027e955805a34f1fb98e190e923293f2320d9b1d6bea04ac6241",
    ("strong", 0): "abc047e4ec21d019e7bc20aa5dbd525646dde86464ae57f2c1b7efcd77d0c2d8",
    ("strong", 1): "81bdf1a9e68ee4f76e1e0bdf94bbd7a6ed5c89ef2c37585f2e647e773973ea0e",
}
SCENARIO_FINGERPRINTS = {
    ("S1", "train"): "46e8f66f88240e8449a4a6fae0b534786a731d46c2d2301df0b315999fc9d8ae",
    ("S1", "test"): "4d5cd7aeeabb3e645cfa0275f0d5d9165fa84320397032b221228413a4f0033c",
    ("S1'", "train"): "3fefe096e4ae516234d5061401722e3d53dafe8cb811c81eaf802da970ba0968",
    ("S1'", "test"): "760858f10a5a2cca3f4cbd6d6e8077a929bfeb2e8507c6ed884e72f084c86083",
    ("S2", "train"): "5c7e3ff0eb80c25c59ecd0c74c5dd2ed0440482c57c8018bde4369e21b3b4159",
    ("S2", "test"): "c94954353a798a99a5547504c56a11177f9e41a1e6ec67c6b124247a97ef267e",
    ("S3", "train"): "a578723b6f17de5e93e322d947bc84254d7c8ab73b5f2687f3b78397534ab36d",
    ("S3", "test"): "8430ab23bc41bfffc9557ce3f984e65c5a2686a1b0b91ab53ab1233b5bebc714",
}


# SHA-256 of the same datasets' metadata, each row's items sorted by key:
# the fingerprint covers only values and labels, not the recorded draws.
MULTICLASS_METADATA_DIGESTS = {
    ("weak", 0): "1d18145c8c31fa8e250288293015be4caa6fe2697a3d5ecee92bab887567dc83",
    ("weak", 1): "89965156c2e8767d05ab45fb2f09ba410d21c1328a6ba191b097264a47ea380d",
    ("strong", 0): "7cc02ccfb932a3a0651c001963b8e255ee78ce41c6c9bce4c5ad23727b774ea1",
    ("strong", 1): "f7cac9eae75f54c13a9e0d8f9484d199a360be5c0bff7c6d329234b0a5bc654d",
}
# SHA-256 of gen_piecewise's series bytes, then its metadata items sorted
# by key, as (length, taus, means, noise_sd, seed).
PIECEWISE_CASES = {
    "no change": ((200, [], [1.5], 1.0, 0),
                  "b34e4f6a2dc2774b78a7c7c24d1a1c885cdd06dd6085768002eb620b27868dd2"),
    "one change": ((2000, [900], [0.0, 9.0], 1.0, 1),
                   "2fafdd9f60e4e5508073588afbdcbc1a0e9991327bbdf636f247d5d43c7cf3e9"),
    "three changes": ((3500, [990, 1691, 2733], [0.0, 11.0, -1.0, 12.0], 1.0, 3),
                      "31ee8487719bce33984d1dd455919d5cd51ac31109d5aeb243600b7715c279b2"),
    "small noise": ((300, [100, 200], [0.0, 1.5, -0.5], 0.25, 9),
                    "eec3bdba99fbe75ae30c23282bff5e1314a2c49a290feb95af68874dd97a610b"),
}


@pytest.mark.parametrize("regime, seed", sorted(MULTICLASS_FINGERPRINTS))
def test_multiclass_fingerprint_is_pinned(regime, seed):
    ds = simulate.gen_multiclass(MulticlassSpec(regime, per_class=3), seed)
    assert ds.fingerprint() == MULTICLASS_FINGERPRINTS[regime, seed]


@pytest.mark.parametrize("regime, seed", sorted(MULTICLASS_METADATA_DIGESTS))
def test_multiclass_metadata_is_pinned(regime, seed):
    ds = simulate.gen_multiclass(MulticlassSpec(regime, per_class=3), seed)
    items = repr([sorted(meta.items()) for meta in ds.metadata]).encode()
    assert hashlib.sha256(items).hexdigest() == MULTICLASS_METADATA_DIGESTS[regime, seed]


@pytest.mark.parametrize("case", sorted(PIECEWISE_CASES))
def test_piecewise_fingerprint_is_pinned(case):
    (length, taus, means, noise_sd, seed), expected = PIECEWISE_CASES[case]
    series, meta = simulate.gen_piecewise(length, taus, means, noise_sd=noise_sd, seed=seed)
    digest = hashlib.sha256(series.tobytes())
    digest.update(repr(sorted(meta.items())).encode())
    assert digest.hexdigest() == expected


@pytest.mark.parametrize("scenario, role", sorted(SCENARIO_FINGERPRINTS))
def test_scenario_fingerprint_is_pinned(scenario, role):
    ds = simulate.gen_scenario(ScenarioSpec(scenario, size=8, role=role), seed=0)
    assert ds.fingerprint() == SCENARIO_FINGERPRINTS[scenario, role]


def test_fingerprint_of_a_strided_view_is_pinned():
    """A non-contiguous ``values`` view hashes as its C-order copy would."""
    values = np.arange(12, dtype=np.float64).reshape(3, 4)[:, ::2]
    metadata = [{"tau": None, "label": 0}, {"tau": 1, "label": 1}, {"tau": None, "label": 0}]
    ds = simulate.LabeledDataset(values, np.array([0, 1, 0]), metadata)
    assert not ds.values.flags.c_contiguous
    expected = "23c8b7c7b7ad4bd8217e638b2c01a5ad64d8bb5dd5cdd9b71d403b0401f510ea"
    assert ds.fingerprint() == expected
    assert simulate.LabeledDataset(values.copy(), ds.labels, metadata).fingerprint() == expected


# |before - after| band of each change class, per regime.
CHANGE_BANDS = {
    "weak": {2: (0.25, 0.5), 3: (0.12, 0.24), 5: (0.006, 0.012)},
    "strong": {2: (0.6, 1.2), 3: (0.2, 0.4), 5: (0.015, 0.03)},
}
CHANGE_KEYS = {2: ("mu_left", "mu_right"), 3: ("sd_left", "sd_right"),
               5: ("slope_left", "slope_right")}


class TestChangetypes:
    def test_strong_mean_regime_band(self):
        # Strong-regime mean changes: |mu_left - mu_right| in [0.6, 1.2],
        # observed around the step with noise sd 0.7.
        assert simulate.MEAN_NOISE_SD == 0.7
        t = np.arange(1, MulticlassSpec.n + 1)
        residuals = []
        for seed in range(30):
            ds = simulate.gen_multiclass(MulticlassSpec("strong", per_class=2), seed=seed)
            for x, meta in zip(ds.values, ds.metadata):
                if meta["label"] != 2:
                    continue
                assert 0.6 <= abs(meta["mu_left"] - meta["mu_right"]) <= 1.2
                step = np.where(t <= meta["tau"], meta["mu_left"], meta["mu_right"])
                residuals.append(x - step)
        assert len(residuals) == 60
        assert abs(np.std(np.concatenate(residuals)) - 0.7) < 0.02


class TestMulticlass:
    @pytest.mark.parametrize("regime", ["weak", "strong"])
    @settings(max_examples=5, deadline=None)
    @given(width=st.integers(713, 1724))
    def test_blocks_concatenate_to_the_dataset(self, regime, width):
        # 185 = 5 x 37 rows in blocks of 38 to 91 rows: at least three
        # blocks, and the last one short.
        spec = MulticlassSpec(regime, per_class=37)
        blocks, labels, values = zip(*((block, labels, rows.copy()) for block, labels, rows
                                       in simulate.multiclass_blocks(spec, 5, width)))
        assert list(blocks) == _row_blocks(5 * spec.per_class, width)
        assert len(blocks) >= 3 and len(values[-1]) < len(values[0])
        ds = _multiclass_dataset(spec)
        assert np.concatenate(labels).tobytes() == ds.labels.tobytes()
        assert np.concatenate(values).tobytes() == ds.values.tobytes()

    def test_counts_taus_and_bands(self):
        # Both regimes, and the mean, sd and slope band of each.
        for seed, regime in enumerate(("weak", "strong"), start=7):
            ds = simulate.gen_multiclass(MulticlassSpec(regime, per_class=12), seed=seed)
            assert ds.n == MulticlassSpec.n == 400
            counts = {label: int(np.sum(ds.labels == label)) for label in range(1, 6)}
            assert all(v == 12 for v in counts.values())
            for meta in ds.metadata:
                label = meta["label"]
                if label not in CHANGE_BANDS[regime]:
                    assert meta["tau"] is None
                    continue
                assert 41 <= meta["tau"] <= 360
                left, right = (meta[key] for key in CHANGE_KEYS[label])
                lo, hi = CHANGE_BANDS[regime][label]
                assert lo <= abs(left - right) <= hi, (regime, meta)

    def test_kinked_mean_is_continuous(self, monkeypatch):
        # Without slope noise a class-5 row is its mean line.
        monkeypatch.setattr(simulate, "SLOPE_NOISE_SD", 0.0)
        ds = simulate.gen_multiclass(MulticlassSpec("strong", per_class=5), seed=4)
        kinks = [(x, meta) for x, meta in zip(ds.values, ds.metadata) if meta["label"] == 5]
        assert len(kinks) == 5
        for x, meta in kinks:
            tau, s1, s2 = meta["tau"], meta["slope_left"], meta["slope_right"]
            steps = np.diff(x)
            # Increment t -> t+1 is the left slope up to t = tau - 1 and the
            # right slope from t = tau on: the slope switches, the mean does not jump.
            np.testing.assert_allclose(steps[:tau - 1], s1, rtol=0, atol=1e-12)
            np.testing.assert_allclose(steps[tau - 1:], s2, rtol=0, atol=1e-12)

    def test_determinism(self):
        spec = MulticlassSpec("strong", per_class=4)
        a = simulate.gen_multiclass(spec, seed=8)
        b = simulate.gen_multiclass(spec, seed=8)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_every_row_has_its_own_label_and_metadata(self):
        spec = MulticlassSpec("weak", per_class=30)
        ds = simulate.gen_multiclass(spec, seed=5)
        assert sorted(meta["index"] for meta in ds.metadata) == list(range(150))
        assert ds.labels.tolist() == [meta["label"] for meta in ds.metadata]
        assert ds.labels.tolist() != sorted(ds.labels.tolist())  # shuffled
        t = np.arange(1, spec.n + 1, dtype=np.float64)
        row = np.empty(spec.n)
        for x, label, meta in zip(ds.values, ds.labels, ds.metadata):
            assert label == meta["index"] // spec.per_class + 1
            rng = next(simulate._example_rngs(5, [meta["index"]]))
            assert simulate._multiclass_example(spec, rng, meta["index"], t, row) == meta
            assert row.tobytes() == x.tobytes()
            if label == 1:  # the row's level is its drawn mean, noise sd 0.7
                assert abs(x.mean() - meta["mu"]) < 4 * 0.7 / math.sqrt(spec.n)

    def test_memory_is_about_one_array(self):
        tracemalloc.start()
        try:
            ds = simulate.gen_multiclass(MulticlassSpec("strong", per_class=400), seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured: 6.6 MiB for 6.1 MiB of values; stacking the rows and
        # shuffling a copy took 19.1 MiB.
        assert peak < ds.values.nbytes + 1.5 * 2**20

    def test_invalid_regime(self):
        with pytest.raises(ValueError, match="regime"):
            MulticlassSpec("medium")

    def test_only_regime_and_per_class_are_settable(self):
        assert [f.name for f in dataclasses.fields(MulticlassSpec)] == ["regime", "per_class"]
        assert (MulticlassSpec.n, MulticlassSpec.margin) == (400, 40)
        with pytest.raises(TypeError):
            MulticlassSpec("weak", n=50)


class TestPiecewise:
    def test_single_segment_is_noise_only(self):
        x, meta = simulate.gen_piecewise(200, [], [1.5], noise_sd=0.0, seed=0)
        np.testing.assert_array_equal(x, np.full(200, 1.5))
        assert meta["taus"] == []

    def test_metadata_roundtrip(self):
        taus, means = [990, 1691, 2733], [0.0, 4.0, -3.0, 5.0]
        _, meta = simulate.gen_piecewise(3500, taus, means, seed=1, min_spacing=700)
        assert meta["taus"] == taus and meta["means"] == means

    def test_segment_levels(self):
        x, _ = simulate.gen_piecewise(10, [4], [0.0, 2.0], noise_sd=0.0, seed=2)
        np.testing.assert_array_equal(x[:4], 0.0)
        np.testing.assert_array_equal(x[4:], 2.0)

    def test_spacing_violation(self):
        with pytest.raises(ValueError, match="spacing"):
            simulate.gen_piecewise(1000, [100, 150], [0, 1, 2], min_spacing=200)

    def test_jump_request_above_floor(self):
        snr_bound = 1.8
        floor = 2 * math.sqrt(2) * snr_bound
        _, meta = simulate.gen_piecewise(3500, [990, 1691, 2733], [0.0, 11.0, -1.0, 12.0], seed=3)
        jumps = np.abs(np.diff(meta["means"]))
        assert np.all(jumps > floor)

    def test_mismatched_means(self):
        with pytest.raises(ValueError, match="len"):
            simulate.gen_piecewise(100, [50], [0.0])

    @pytest.mark.parametrize("length, taus, means, noise_sd, argument", [
        (100, [50.7], [0.0, 1.0], 1.0, "taus"),
        (100, [True], [0.0, 1.0], 1.0, "taus"),
        (100, [50], [0.0, math.nan], 1.0, "means"),
        (100, [50], [math.inf, 1.0], 1.0, "means"),
        (100, [50], [0.0, 1.0], -2.0, "noise_sd"),
        (100, [50], [0.0, 1.0], math.inf, "noise_sd"),
        (100, [50], [0.0, 1.0], math.nan, "noise_sd"),
        (True, [], [0.0], 1.0, "length"),
        (100.7, [], [0.0], 1.0, "length"),
        (0, [], [0.0], 1.0, "length"),
        (-3, [], [0.0], 1.0, "length"),
    ], ids=["fractional-tau", "bool-tau", "nan-mean", "inf-mean", "negative-noise",
            "inf-noise", "nan-noise", "bool-length", "fractional-length", "zero-length",
            "negative-length"])
    def test_invalid_argument_is_named(self, length, taus, means, noise_sd, argument):
        with pytest.raises(ValueError, match=argument):
            simulate.gen_piecewise(length, taus, means, noise_sd=noise_sd)

    def test_numpy_integer_taus_and_zero_noise_are_accepted(self):
        x, meta = simulate.gen_piecewise(np.int64(10), np.array([4]), np.array([0.0, 2.0]),
                                         noise_sd=0.0)
        assert meta["taus"] == [4] and type(meta["taus"][0]) is int
        np.testing.assert_array_equal(x, np.repeat([0.0, 2.0], [4, 6]))
        np.testing.assert_array_equal(simulate.gen_piecewise(1, [], [2.0], noise_sd=0.0)[0], [2.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=6).flatmap(
        lambda widths: st.tuples(
            st.just(widths),
            st.lists(st.floats(-1e6, 1e6), min_size=len(widths), max_size=len(widths)))))
    def test_noise_free_segments_hold_their_level(self, case):
        # Segment r covers positions taus[r-1]+1 .. taus[r] (1-based).
        widths, means = case
        edges = np.cumsum([0, *widths]).tolist()
        x, _ = simulate.gen_piecewise(edges[-1], edges[1:-1], means, noise_sd=0.0)
        for r, level in enumerate(means):
            np.testing.assert_array_equal(x[edges[r]:edges[r + 1]], level)
