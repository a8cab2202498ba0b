"""Tests for the ReLU networks: embeddings, training, gradients, IO."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpdlab import cusum
from cpdlab.dataio import jsonable
from cpdlab.network import (
    Architecture,
    Network,
    Preprocessor,
    TrainConfig,
    TrainingError,
    embed_cusum,
    embed_directions,
    forward,
    grad_check,
    lag_product,
    loss_and_gradient,
    network_from_json,
    network_to_json,
    predict,
    train,
    unit_scale,
)
from cpdlab.network import _aligned_empty, _array_at, _init_network, _split
from cpdlab.simulate import MulticlassSpec, ScenarioSpec, gen_multiclass, gen_scenario


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]),
)
STEPS = st.one_of(
    st.sampled_from([("identity",), ("unit_scale",), ("square",), ("lag_product",)]),
    st.tuples(st.just("truncate"),
              st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
)


@st.composite
def networks(draw):
    """A small random binary or multiclass network, its classes and a preprocessor."""
    arch = Architecture(draw(st.integers(1, 5)),
                        tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))),
                        draw(st.sampled_from([1, 2, 3, 4])))
    dims = arch.layer_dims
    weights = [draw(arrays(np.float64, (dims[l + 1], dims[l]), elements=FINITE))
               for l in range(len(dims) - 1)]
    biases = [draw(arrays(np.float64, (d,), elements=FINITE)) for d in dims[1:-1]]
    output_bias = draw(arrays(np.float64, (dims[-1],), elements=FINITE))
    classes = None
    if arch.output_dim > 1 and draw(st.booleans()):
        classes = tuple(draw(st.lists(st.integers(-5, 20), min_size=dims[-1],
                                      max_size=dims[-1], unique=True)))
    threshold = draw(FINITE) if arch.output_dim == 1 else 0.0
    net = Network(arch, weights, biases, output_bias, threshold=threshold, classes=classes)
    channels = draw(st.lists(st.lists(STEPS, min_size=1, max_size=3).map(tuple),
                             min_size=1, max_size=3))
    return net, Preprocessor(tuple(channels))


class TestUnitScale:
    def test_basic(self):
        np.testing.assert_array_equal(unit_scale([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])

    def test_constant_maps_to_zeros(self):
        np.testing.assert_array_equal(unit_scale([5.0, 5.0, 5.0]), [0.0, 0.0, 0.0])

    def test_affine_invariance_exact_on_dyadic_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.integers(-40, 40, 20) / 8.0  # exactly representable
            np.testing.assert_array_equal(unit_scale(2.0 * x + 0.375), unit_scale(x))

    def test_affine_invariance_generic(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(30)
        np.testing.assert_allclose(unit_scale(1.7 * x + 0.3), unit_scale(x), atol=1e-12)

    def test_rowwise_on_matrices(self):
        X = np.array([[0.0, 1.0], [3.0, 3.0]])
        np.testing.assert_array_equal(unit_scale(X), [[0.0, 1.0], [0.0, 0.0]])


class TestPreprocessor:
    def test_square_step(self):
        pre = Preprocessor(((("square",),),))
        np.testing.assert_array_equal(pre.apply(np.array([1.0, -2.0])), [1.0, 4.0])

    def test_lag_product_padded(self):
        pre = Preprocessor(((("lag_product",),),))
        np.testing.assert_array_equal(pre.apply(np.array([1.0, 2.0, 3.0])), [2.0, 6.0, 0.0])
        np.testing.assert_array_equal(lag_product(np.array([1.0, 2.0, 3.0])), [2.0, 6.0])

    def test_identity_pipeline(self):
        pre = Preprocessor(((("identity",),),))
        x = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(pre.apply(x), x)

    def test_channel_concatenation_and_dim(self):
        pre = Preprocessor((("unit_scale",), (("square",), ("unit_scale",))))
        assert pre.output_dim(4) == 8
        out = pre.apply(np.array([0.0, 1.0, 2.0, 3.0]))
        assert out.shape == (8,)

    def test_truncate_step_validation(self):
        for z in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive finite"):
                Preprocessor(((("truncate", z),),))
        with pytest.raises(ValueError, match="unknown preprocessing step"):
            Preprocessor(((("whiten",),),))

    def test_parameter_on_parameterless_step_rejected(self):
        for name in ("identity", "unit_scale", "square", "lag_product"):
            with pytest.raises(ValueError, match=f"{name!r} takes no parameter"):
                Preprocessor(((("unit_scale",), (name, 3.0)),))
        with pytest.raises(ValueError, match="'identity' takes no parameter"):
            Preprocessor.from_jsonable([[["identity", 9, 9]]])

    def test_non_finite_input_rejected(self):
        X = np.ones((2, 5))
        X[1, 3] = math.inf
        for pre in (Preprocessor(), Preprocessor((("identity",),))):
            with pytest.raises(ValueError, match="non-finite"):
                pre.apply(X)
            with pytest.raises(ValueError, match="non-finite"):
                pre.apply([1.0, math.nan, 2.0])

    def test_jsonable_roundtrip(self):
        pre = Preprocessor(((("truncate", 3.0), ("unit_scale",)), (("square",),)))
        assert Preprocessor.from_jsonable(jsonable(pre.channels)) == pre

    @pytest.mark.parametrize("channels", [(), ((),), (("unit_scale",), ())],
                             ids=["no-channel", "empty-channel", "one-empty-of-two"])
    def test_empty_channel_rejected(self, channels):
        with pytest.raises(ValueError, match="at least one channel, each of at least one step"):
            Preprocessor(channels)

    @pytest.mark.parametrize("block_rows", [1, 3, 7])
    def test_blocks_equal_one_whole_batch_call(self, monkeypatch, block_rows):
        pre = Preprocessor(((("truncate", 2.0),), ("unit_scale", "square"), ("lag_product",)))
        rng = np.random.default_rng(block_rows)
        X = rng.standard_cauchy((23, 40))
        X[5] = 1.5  # a constant row: truncate and unit_scale leave their special cases
        monkeypatch.setattr(cusum, "SCAN_BLOCK", X.size)
        whole = pre.apply(X)
        monkeypatch.setattr(cusum, "SCAN_BLOCK", block_rows * X.shape[1])
        blocked = pre.apply(X)
        assert blocked.shape == (23, 120)
        assert blocked.tobytes() == whole.tobytes()
        assert pre.apply(X[5]).tobytes() == whole[5].tobytes()

    def test_memory_is_the_output_and_a_few_blocks(self):
        X = gen_multiclass(MulticlassSpec("strong", per_class=400), 7).values
        pre = Preprocessor((("unit_scale",), (("square",), ("unit_scale",))))
        tracemalloc.start()
        try:
            pre.apply(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = 2 * X.nbytes  # 12.2 MiB
        # Measured on the 2000 x 400 table1 training set: 13.8 MiB; with
        # whole-batch steps and ``np.hstack`` it was 24.5 MiB.
        assert peak < output + 3 * 2**20


class TestForward:
    def test_zero_weights_label_zero(self):
        arch = Architecture(4, (3,), 1)
        net = Network(arch, [np.zeros((3, 4)), np.zeros((1, 3))], [np.zeros(3)],
                      np.zeros(1), threshold=0.7)
        score, label = forward(net, np.ones(4))
        assert score == 0.0 and label == 0

    def test_single_input_identity_net(self):
        lam = 0.8
        arch = Architecture(1, (1,), 1)
        net = Network(arch, [np.ones((1, 1)), np.ones((1, 1))], [np.zeros(1)],
                      np.zeros(1), threshold=lam)
        for x in (-2.0, 0.0, 0.5, 0.8, 1.2):
            _, label = forward(net, np.array([x]))
            assert label == int(x > lam)

    def test_shape_mismatch_rejected(self):
        net = embed_cusum(10, 1.0)
        with pytest.raises(ValueError, match="input dimension"):
            forward(net, np.ones(9))

    def test_non_finite_input_rejected(self):
        net = embed_cusum(100, 3.0)
        with pytest.raises(ValueError, match="non-finite"):
            forward(net, [math.nan] * 100)
        X = np.zeros((3, 100))
        X[2, 7] = -math.inf
        with pytest.raises(ValueError, match="non-finite"):
            forward(net, X)

    def test_standardisation_invariance_exact(self):
        # Dyadic inputs make the affine map exact in floating point, so
        # the forward pass must agree bit for bit.
        rng = np.random.default_rng(2)
        net = embed_cusum(20, 1.5)
        for _ in range(20):
            x = rng.integers(-64, 64, 20) / 16.0
            a = forward(net, unit_scale(x))
            b = forward(net, unit_scale(2.0 * x + 0.25))
            assert a == b


def _predict_cases():
    """``(net, pre, values)`` triples whose batches span at least three row blocks."""
    rng = np.random.default_rng(4)
    s1 = gen_scenario(ScenarioSpec("S1", size=1200, role="test"), seed=5).values
    mixture = gen_multiclass(MulticlassSpec("strong", per_class=60), 6).values
    two_channel = Preprocessor((("unit_scale",), ("square", "unit_scale")))
    return {
        "embedded-binary": (embed_cusum(100, 1.2), Preprocessor(), s1),
        "random-binary": (_init_network(Architecture(100, (198,), 1), rng), Preprocessor(), s1),
        "multiclass": (_init_network(Architecture(800, (16,), 5), rng), two_channel, mixture),
    }


class TestPredict:
    @pytest.mark.parametrize("case", ["embedded-binary", "random-binary", "multiclass"])
    def test_equals_forward_on_whole_features(self, case):
        net, pre, values = _predict_cases()[case]
        widest = max(pre.output_dim(values.shape[1]), *net.architecture.layer_dims)
        assert len(cusum._row_blocks(len(values), widest)) >= 3
        scores, labels = predict(net, pre, values)
        whole_scores, whole_labels = forward(net, pre.apply(values))
        np.testing.assert_array_equal(labels, whole_labels)
        np.testing.assert_allclose(scores, whole_scores, rtol=1e-12)
        assert scores.dtype == whole_scores.dtype and labels.dtype == whole_labels.dtype
        assert len(np.unique(labels)) > 1

    @pytest.mark.parametrize("case", ["embedded-binary", "multiclass"])
    def test_zero_rows_give_empty_arrays(self, case):
        net, pre, values = _predict_cases()[case]
        empty = values[:0]
        scores, labels = predict(net, pre, empty)
        whole_scores, whole_labels = forward(net, pre.apply(empty))
        assert scores.shape == whole_scores.shape and scores.dtype == whole_scores.dtype
        assert labels.shape == (0,) and labels.dtype == whole_labels.dtype

    def test_non_finite_input_rejected(self):
        net, pre, values = _predict_cases()["embedded-binary"]
        values = values.copy()
        values[-1, 3] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            predict(net, pre, values)

    def test_scoring_a_test_set_holds_no_whole_feature_matrix(self):
        from cpdlab.recipes import _score_network

        test_set = gen_scenario(ScenarioSpec("S1", size=5000, role="test"), seed=8)
        net = _init_network(Architecture(100, (198,), 1), np.random.default_rng(3))
        _score_network(net, Preprocessor(), test_set, seed=1)
        tracemalloc.start()
        try:
            _score_network(net, Preprocessor(), test_set, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured: 0.91 MiB; one forward over the whole 5000 x 100 features,
        # with its 5000 x 198 hidden layer, peaked at 11.45 MiB.
        assert peak < 2 * 2**20


class TestEmbedCusum:
    def test_two_point_construction(self):
        net = embed_cusum(2, 1.0)
        r = 1 / math.sqrt(2)
        np.testing.assert_allclose(net.weights[0], [[r, -r], [-r, r]])
        np.testing.assert_array_equal(net.biases[0], [1.0, 1.0])
        np.testing.assert_array_equal(net.weights[1], [[1.0, 1.0]])
        assert net.threshold == 0.0

    def test_star_width(self):
        assert embed_cusum(100, 1.0, "star").weights[0].shape == (24, 100)

    def test_full_equivalence_small(self):
        rng = np.random.default_rng(3)
        lam = cusum.null_threshold(10, 0.3)
        net = embed_cusum(10, lam)
        for _ in range(500):
            x = rng.standard_normal(10)
            stat, _ = cusum.cusum_statistic(x)
            if abs(stat - lam) <= 1e-9:
                continue
            assert forward(net, x)[1] == int(stat > lam)

    def test_star_equivalence_small(self):
        rng = np.random.default_rng(4)
        lam = 1.2
        net = embed_cusum(16, lam, "star")
        for _ in range(500):
            x = rng.standard_normal(16)
            stat, _ = cusum.cusum_star_statistic(x)
            if abs(stat - lam) <= 1e-9:
                continue
            assert forward(net, x)[1] == int(stat > lam)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="positive"):
            embed_cusum(10, 0.0)
        with pytest.raises(ValueError, match="variant"):
            embed_cusum(10, 1.0, "pruned")
        for directions in (np.ones(5), np.ones((0, 5))):
            with pytest.raises(ValueError, match="non-empty"):
                embed_directions(directions, 1.0)


class TestLossAndGradient:
    def test_separated_batch_has_tiny_loss(self):
        arch = Architecture(1, (1,), 1)
        net = Network(arch, [np.array([[1.0]]), np.array([[30.0]])], [np.array([-1.0])],
                      np.array([30.0]))
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 0.0])  # saturated scores +30 / -30
        loss, _ = loss_and_gradient(net, X, y)
        assert loss < 1e-3

    def test_duplicated_batch_unchanged(self):
        rng = np.random.default_rng(5)
        net = _init_network(Architecture(6, (4,), 1), rng)
        X = rng.standard_normal((8, 6))
        y = rng.integers(0, 2, 8)
        loss1, grad1 = loss_and_gradient(net, X, y)
        loss2, grad2 = loss_and_gradient(net, np.vstack([X, X]), np.tile(y, 2))
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        assert grad1.shape == grad2.shape == net.params.shape
        np.testing.assert_allclose(grad1, grad2, atol=1e-12)

    def test_empty_batch_rejected(self):
        net = _init_network(Architecture(3, (2,), 1), np.random.default_rng(6))
        with pytest.raises(ValueError, match="non-empty"):
            loss_and_gradient(net, np.empty((0, 3)), np.empty(0))


class TestReferenceGradient:
    @staticmethod
    def _assert_same(net, X, y):
        want_loss, want = _reference_gradient(net, X, y)
        buffer = np.full_like(net.params, np.nan)
        for out in (None, buffer):
            loss, grad = loss_and_gradient(net, X, y, out=out)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert grad.tobytes() == want.tobytes()
        assert grad is buffer

    @pytest.mark.parametrize("arch, n_classes", [
        (Architecture(6, (5, 4), 1), 2),
        (Architecture(5, (7,), 3), 3),
        (Architecture(4, (6, 3, 5), 4), 4),
    ])
    @pytest.mark.parametrize("rows", [32, 5, 1])  # a full batch, a ragged last one, one row
    def test_matches_reference_bit_for_bit(self, arch, n_classes, rows):
        rng = np.random.default_rng(22)
        net = _init_network(arch, rng)
        net.biases[0][:] = rng.normal(0.0, 0.5, net.biases[0].shape)  # some dead units
        X = 3.0 * rng.standard_normal((rows, arch.input_dim))
        self._assert_same(net, X, np.arange(rows) % n_classes)

    def test_saturated_scores_match_reference(self):
        net, X, y = _saturated_cusum_batch()
        scores, _ = forward(net, X)
        e = np.exp(-np.abs(scores))
        sig_minus_y = np.where(scores >= 0, 1.0, e) / (1.0 + e) - y
        saturated = np.abs(scores) > 40
        assert saturated.sum() >= 10 and np.all(sig_minus_y[saturated] == 0.0)
        assert np.any(scores > 40) and np.any(scores < -40)
        assert not np.all(sig_minus_y == 0.0)
        self._assert_same(net, X, y)

    @pytest.mark.parametrize("make", [
        lambda size: np.empty(size + 1),                    # a stale tail
        lambda size: np.empty(size - 1),
        lambda size: np.empty(size, dtype=np.float32),      # would cast down
        lambda size: np.empty(2 * size)[::2],               # reshape would copy
        lambda size: np.empty((1, size)),
        lambda size: [0.0] * size,
    ])
    def test_rejects_a_wrong_out(self, make):
        rng = np.random.default_rng(23)
        net = _init_network(Architecture(4, (3,), 1), rng)
        with pytest.raises(ValueError, match="contiguous float64 vector of 19 entries"):
            loss_and_gradient(net, rng.standard_normal((2, 4)), [0, 1], out=make(net.params.size))


class TestGradCheck:
    def test_smooth_region_is_machine_precision(self):
        # Biases far below the activations keep every ReLU strictly on.
        rng = np.random.default_rng(7)
        arch = Architecture(5, (4,), 1)
        net = _init_network(arch, rng)
        net.biases[0][:] = -10.0
        x = rng.uniform(0.5, 1.0, 5)
        assert grad_check(net, x, np.array([1.0]), step=1e-5) < 1e-8

    def test_random_networks(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(20):
            net = _init_network(Architecture(10, (8, 8), 1), rng)
            x = rng.standard_normal(10)
            y = np.array([float(rng.integers(0, 2))])
            worst = max(worst, grad_check(net, x, y, step=1e-5))
        assert worst <= 1e-4

    def test_multiclass_gradient(self):
        rng = np.random.default_rng(9)
        net = _init_network(Architecture(6, (5,), 3), rng)
        net.classes = (1, 2, 3)
        x = rng.standard_normal(6)
        assert grad_check(net, x, np.array([2]), step=1e-5) <= 1e-4

    def test_leaves_network_unchanged(self):
        # A pre-activation exactly at the kink forces a bias shift, which
        # must happen on grad_check's private copy only.
        net = Network(Architecture(2, (2,), 1), [np.eye(2), np.ones((1, 2))],
                      [np.array([1.0, 0.0])], np.zeros(1))
        before = net.params.tobytes()
        worst = grad_check(net, np.array([1.0, 0.5]), np.array([1.0]), step=1e-6,
                           kink_margin=1e-5)
        assert worst <= 1e-4
        assert net.params.tobytes() == before

    @pytest.mark.parametrize("net, X, y", [
        # z = [0, 0.5]: the default step of 1e-5 moves unit 0's pre-activation
        # by 1e-5, so the guard band must be wider than that.
        (Network(Architecture(2, (2,), 1), [np.eye(2), np.ones((1, 2))],
                 [np.array([1.0, 0.0])], np.zeros(1)),
         np.array([1.0, 0.5]), np.array([1.0])),
        # a1 = [2, 1.5] is far from its kinks; the second layer's first
        # pre-activation is 2 - 1.5 - 0.5 = 0, and a first-layer weight
        # perturbed by 1e-5 moves it by up to 2e-5.
        (Network(Architecture(2, (2, 2), 1),
                 [np.eye(2), np.array([[1.0, -1.0], [1.0, 1.0]]), np.ones((1, 2))],
                 [np.array([-1.0, -1.0]), np.array([0.5, 0.0])], np.zeros(1)),
         np.array([1.0, 0.5]), np.array([1.0])),
        # Row 0 sits on the kink; shifting the bias once lifts row 1, which
        # starts just below the band, into it, so a second shift is needed.
        (Network(Architecture(1, (1,), 1), [np.ones((1, 1)), np.ones((1, 1))],
                 [np.array([1.0])], np.zeros(1)),
         np.array([[1.0], [1.0 - 1.5e-5]]), np.array([1.0, 0.0])),
    ], ids=["first-layer", "second-layer", "lifted-row"])
    def test_kink_at_default_step(self, net, X, y):
        assert grad_check(net, X, y) <= 1e-4

    def test_step_validation(self):
        net = _init_network(Architecture(3, (2,), 1), np.random.default_rng(10))
        with pytest.raises(ValueError, match="step"):
            grad_check(net, np.ones(3), np.array([1.0]), step=0.1)


class TestTrain:
    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((40, 8))
        y = (X.sum(axis=1) > 0).astype(int)
        arch = Architecture(8, (6,), 1)
        cfg = TrainConfig(epochs=5, seed=3)
        net1 = train(X, y, arch, cfg)
        net2 = train(X, y, arch, cfg)
        for a, b in zip(net1.weights + net1.biases, net2.weights + net2.biases):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(net1.output_bias, net2.output_bias)

    def test_learns_linear_rule(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((300, 5))
        y = (X @ np.array([1.0, -2.0, 0.5, 0.0, 1.0]) > 0).astype(int)
        net = train(X, y, Architecture(5, (8,), 1), TrainConfig(epochs=150, seed=1))
        _, preds = forward(net, X)
        assert np.mean(preds != y) < 0.05

    def test_divergence_raises_training_error(self):
        rng = np.random.default_rng(13)
        X = 1e6 * rng.standard_normal((32, 4))
        y = rng.integers(0, 2, 32)
        # An absurd learning rate overflows the scores within a few steps:
        # the first step makes the parameters huge, the second overflows the
        # loss.  One batch per epoch, so epoch e ends at global step e + 1.
        cfg = TrainConfig(epochs=5, learning_rate=1e155, seed=0)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingError, match=r"epoch 1, step 2: non-finite loss"):
            train(X, y, Architecture(4, (4,), 1), cfg)

    def test_non_finite_parameters_name_their_array(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((32, 4))
        X[:, 2] *= 1e-200
        y = rng.integers(0, 2, 32)
        # Adam's first step is lr * g / (|g| + eps), at most lr.  The weights
        # out of the near-zero input column get gradients near 1e-200: their
        # squares underflow, so v is 0 and the step is lr * g / eps, about
        # 1e99 * lr, which overflows in weights[0].  Every other parameter
        # moves by about lr = 1e300 and stays finite.
        cfg = TrainConfig(epochs=5, learning_rate=1e300, adam_eps=1e-300, seed=0)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingError, match=r"epoch 0, step 1: non-finite parameters; "
                                     r"first non-finite entry in weights\[0\]$"):
            train(X, y, Architecture(4, (4,), 1), cfg)

    def test_flat_offsets_name_their_array(self):
        # 3 -> 2 -> 1: weights[0] has 6 entries, weights[1] 2, biases[0] 2, output_bias 1.
        arch = Architecture(3, (2,), 1)
        names = [_array_at(arch, offset) for offset in range(11)]
        assert names == ["weights[0]"] * 6 + ["weights[1]"] * 2 + ["biases[0]"] * 2 + [
            "output_bias"]
        with pytest.raises(IndexError):
            _array_at(arch, 11)

    def test_multiclass_labels_roundtrip(self):
        rng = np.random.default_rng(14)
        X = np.vstack([rng.normal(c, 0.1, (30, 3)) for c in (1, 2, 3)])
        y = np.repeat([4, 7, 9], 30)
        net = train(X, y, Architecture(3, (8,), 3), TrainConfig(epochs=300, seed=2))
        assert net.classes == (4, 7, 9)
        _, preds = forward(net, X)
        assert set(np.unique(preds)) <= {4, 7, 9}
        assert np.mean(preds != y) < 0.05

    def test_non_finite_features_rejected(self):
        X = np.zeros((4, 3))
        X[0, 1] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            train(X, np.array([0, 1, 0, 1]), Architecture(3, (2,), 1), TrainConfig(epochs=1))

    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("learning_rate", "lr_decay", "beta1", "beta2", "adam_eps")
        for value in (math.nan, math.inf)] + [("beta1", 1.0), ("beta2", 1.5),
                                              ("adam_eps", 0.0), ("adam_eps", 1e-320)])
    def test_config_rejects_bad_constant(self, field, value):
        with pytest.raises(ValueError, match=r"finite|< 1|2\*\*-1022"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("labels", [[1.2, 1.7, 3.0, 1.2], [1.0, 2.0, math.nan, 1.0],
                                        [0.0, 1.0, math.inf, 0.0], ["a", "b", "c", "a"]])
    def test_non_integral_multiclass_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must be integers"):
            train(np.zeros((4, 3)), np.array(labels), Architecture(3, (2,), 2),
                  TrainConfig(epochs=1))

    def test_integral_float_multiclass_labels_accepted(self):
        X = np.random.default_rng(24).standard_normal((6, 3))
        cfg = TrainConfig(epochs=2)
        net = train(X, np.array([1.0, 3.0, 1.0, 3.0, 1.0, 3.0]), Architecture(3, (2,), 2), cfg)
        ints = train(X, np.array([1, 3, 1, 3, 1, 3]), Architecture(3, (2,), 2), cfg)
        assert net.classes == (1, 3) and net.params.tobytes() == ints.params.tobytes()

    def test_label_arity_mismatch(self):
        X = np.zeros((4, 3))
        with pytest.raises(ValueError, match="binary"):
            train(X, np.array([0, 1, 2, 1]), Architecture(3, (2,), 1), TrainConfig(epochs=1))

    def test_embed_initialised_training_keeps_quality(self):
        # Starting from the exact scan embedding on raw inputs, continued
        # training must not damage the detector.
        lam = cusum.null_threshold(100, 0.05)
        results = []
        for seed in range(5):
            train_set = gen_scenario(ScenarioSpec("S1", size=300), seed=100 + seed)
            test_set = gen_scenario(ScenarioSpec("S1", size=1500, role="test"), seed=200 + seed)
            init = embed_cusum(100, lam)
            _, before = forward(init, test_set.values)
            net = train(train_set.values, train_set.labels, init.architecture,
                        TrainConfig(epochs=50, seed=seed), init=init)
            _, after = forward(net, test_set.values)
            mer_before = float(np.mean(before != test_set.labels))
            mer_after = float(np.mean(after != test_set.labels))
            results.append(mer_after - mer_before)
        assert all(delta <= 0.02 for delta in results)


def _reference_gradient(net, X, y):
    """Reference ``(loss, grad)`` for ``loss_and_gradient``, computed the plain way.

    Out-of-place forward pass, a sigmoid split by boolean masks, ``np.mean``
    for the losses and a matmul for the first back-propagated delta.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y)
    activations = [X]
    a = X
    for w, b in zip(net.weights[:-1], net.biases):
        a = np.maximum(a @ w.T - b, 0.0)
        activations.append(a)
    scores = a @ net.weights[-1].T - net.output_bias
    if net.is_binary:
        s, t = scores[:, 0], y.astype(np.float64)
        loss = float(np.mean(np.logaddexp(0.0, s) - t * s))
        sig = np.empty_like(s)
        pos = s >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
        e = np.exp(s[~pos])
        sig[~pos] = e / (1.0 + e)
        g = ((sig - t) / s.size)[:, None]
    else:
        m, idx = scores.shape[0], y.astype(np.int64)
        shift = scores - scores.max(axis=1, keepdims=True)
        g = np.exp(shift)
        log_z = np.log(np.sum(g, axis=1))
        loss = float(np.mean(log_z - shift[np.arange(m), idx]))
        g /= np.exp(log_z)[:, None]
        g[np.arange(m), idx] -= 1.0
        g = g / m
    grad = np.empty_like(net.params)
    d_weights, d_biases, d_output_bias = _split(net.architecture, grad)
    np.matmul(g.T, activations[-1], out=d_weights[-1])
    np.negative(g.sum(axis=0), out=d_output_bias)
    delta = g @ net.weights[-1]
    for l in range(net.architecture.depth, 0, -1):
        delta = delta * (activations[l] > 0)
        np.matmul(delta.T, activations[l - 1], out=d_weights[l - 1])
        np.negative(delta.sum(axis=0), out=d_biases[l - 1])
        if l > 1:
            delta = delta @ net.weights[l - 1]
    return loss, grad


def _saturated_cusum_batch(n=20, rows=16, seed=21):
    """An ``embed_cusum`` net whose output weights are -1 on half its units,
    and a batch whose jumps of ±100 push most scores far past ±40.  Those
    rows are labelled as the net decides, so their logistic gradient is
    exactly 0, also against the negative weights."""
    rng = np.random.default_rng(seed)
    net = embed_cusum(n, 3.0)
    net.weights[-1][0, n - 1:] = -1.0
    X = rng.standard_normal((rows, n))
    X[3:, n // 2:] += rng.choice([-100.0, 100.0], rows - 3)[:, None]  # 3 rows stay near
    scores, _ = forward(net, X)
    y = (scores > 0).astype(np.int64)
    y[:3] = rng.integers(0, 2, 3)
    return net, X, y


def _reordered_update(m, v, step, lr, config):
    """The step Adam subtracts, in the order of Kingma & Ba, section 2:
    ``alpha_t * (m / (sqrt(v) + eps_t))``, both scalars made in floats."""
    root_c2 = math.sqrt(1.0 - config.beta2**step)
    alpha = lr * root_c2 / (1.0 - config.beta1**step)
    return alpha * (m / (np.sqrt(v) + config.adam_eps * root_c2))


def _algorithm1_update(m, v, step, lr, config):
    """The same step in the order of Kingma & Ba's Algorithm 1, with bias-corrected moments."""
    c1 = 1.0 - config.beta1**step
    c2 = 1.0 - config.beta2**step
    return lr * (m / c1) / (np.sqrt(v / c2) + config.adam_eps)


def _reference_adam(X, y, arch, config, return_m=False):
    """Reference Adam that updates each parameter array separately.

    Labels must already be 0/1 (binary) or class indices ``0..K-1``.
    It never touches its first moment outside the update, so subnormal
    entries stay subnormal until they decay to zero.  With ``return_m``
    it also returns the first moment at the end of each epoch, one flat
    vector per epoch.
    """
    rng = np.random.default_rng(config.seed)
    net = _init_network(arch, rng)
    params = [a.copy() for a in (*net.weights, *net.biases, net.output_bias)]
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    n_weights = len(net.weights)
    step = 0
    m_ends = []
    for epoch in range(config.epochs):
        lr = config.learning_rate / (1.0 + config.lr_decay * epoch)
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], config.batch_size):
            batch = order[start:start + config.batch_size]
            current = Network(arch, params[:n_weights], params[n_weights:-1], params[-1])
            _, flat = _reference_gradient(current, X[batch], y[batch])
            sizes = np.cumsum([p.size for p in params])[:-1]
            grads = [g.reshape(p.shape) for g, p in zip(np.split(flat, sizes), params)]
            step += 1
            for p, g, m_vec, v_vec in zip(params, grads, m_state, v_state):
                m_vec *= config.beta1
                m_vec += (1.0 - config.beta1) * g
                v_vec *= config.beta2
                v_vec += (1.0 - config.beta2) * g * g
                p -= _reordered_update(m_vec, v_vec, step, lr, config)
        m_ends.append(np.concatenate([m_vec.ravel() for m_vec in m_state]))
    return (params, m_ends) if return_m else params


class TestFlatEngine:
    @settings(max_examples=200, deadline=None, database=None)
    @given(step=st.sampled_from([1, 2, 355, 356, 10**4]),
           lr=st.floats(1e-6, 1.0),
           g=arrays(np.float64, 16, elements=st.floats(1e-12, 1e6)),
           sign=arrays(np.bool_, 16),
           m_prev=arrays(np.float64, 16, elements=st.floats(-1e6, 1e6)),
           v_prev=arrays(np.float64, 16, elements=st.floats(0.0, 1e12)))
    def test_reordered_step_matches_algorithm_1(self, step, lr, g, sign, m_prev, v_prev):
        # Folding the bias corrections into alpha_t and eps_t is exact in
        # real arithmetic; in floats the two orders differ by a few ulp.
        cfg = TrainConfig()
        g = np.where(sign, -g, g)
        m = cfg.beta1 * m_prev + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v_prev + (1.0 - cfg.beta2) * g * g
        new = _reordered_update(m, v, step, lr, cfg)
        old = _algorithm1_update(m, v, step, lr, cfg)
        assert np.all(np.abs(new - old) <= 8 * np.finfo(np.float64).eps * np.abs(old))

    @pytest.mark.parametrize("arch, n_classes", [
        (Architecture(6, (5, 4), 1), 2),
        (Architecture(5, (7,), 3), 3),
    ])
    def test_matches_per_array_adam_bit_for_bit(self, arch, n_classes):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((37, arch.input_dim))  # batches of 8, the last one of 5
        y = np.arange(37) % n_classes
        cfg = TrainConfig(epochs=4, batch_size=8, learning_rate=0.01, lr_decay=0.5, seed=4)
        net = train(X, y, arch, cfg)
        expected = _reference_adam(X, y, arch, cfg)
        got = [*net.weights, *net.biases, net.output_bias]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    def test_parameter_vectors_start_on_64_byte_boundaries(self):
        # Off a 32-byte boundary Adam's passes ran up to 12 % slower, so the
        # speed of a run depended on where the allocator put its vectors.
        for size in (1, 7, 20197):
            v = _aligned_empty(size)
            assert v.shape == (size,) and v.flags.c_contiguous and v.ctypes.data % 64 == 0
        net = train(np.ones((8, 6)), np.arange(8) % 2, Architecture(6, (5, 4), 1),
                    TrainConfig(epochs=1))
        assert net.params.ctypes.data % 64 == 0
        assert embed_cusum(10, 1.0).params.ctypes.data % 64 == 0

    def test_first_moment_flush_is_exact(self):
        # Input j is nonzero only in row j, so the first moment of every
        # weight out of input j decays by beta1 = 0.01 on each step after row
        # j's batch: about 154 steps take it below 2**-1022 and a few more to
        # zero.  With 200 rows of batch size 1, the weights of the inputs
        # whose row came about 155 steps before an epoch's end are subnormal
        # there, and train() flushes them while the reference lets them decay.
        n = 200
        rng = np.random.default_rng(20)
        X = np.diag(rng.uniform(0.5, 2.0, n))
        y = rng.integers(0, 2, n)
        arch = Architecture(n, (4,), 1)
        cfg = TrainConfig(epochs=4, batch_size=1, learning_rate=0.01, beta1=0.01, seed=5)
        net = train(X, y, arch, cfg)
        expected, m_ends = _reference_adam(X, y, arch, cfg, return_m=True)
        tiny = np.finfo(np.float64).tiny
        flushed = [int(np.sum((m != 0) & (np.abs(m) < tiny))) for m in m_ends[:-1]]
        assert min(flushed) > 0, flushed
        got = [*net.weights, *net.biases, net.output_bias]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    def test_parameters_are_views_of_one_vector(self):
        rng = np.random.default_rng(18)
        weights = [rng.standard_normal((4, 3)), rng.standard_normal((2, 4))]
        biases = [rng.standard_normal(4)]
        net = Network(Architecture(3, (4,), 2), weights, biases, np.zeros(2))
        assert net.params.dtype == np.float64 and net.params.flags.c_contiguous
        assert net.params.size == 12 + 8 + 4 + 2
        for a in (*net.weights, *net.biases, net.output_bias):
            assert np.shares_memory(a, net.params)
        assert not np.shares_memory(weights[0], net.params)
        x = rng.standard_normal(3)
        before, _ = forward(net, x)
        net.weights[0][0, 0] += 1.0
        after, _ = forward(net, x)
        assert not np.array_equal(before, after)
        loaded, _ = network_from_json(network_to_json(net, Preprocessor((("identity",),))))
        assert loaded.params.tobytes() == net.params.tobytes()

    def test_training_does_not_touch_init(self):
        init = embed_cusum(8, 1.0)
        before = init.params.tobytes()
        rng = np.random.default_rng(19)
        trained = train(rng.standard_normal((16, 8)), np.arange(16) % 2, init.architecture,
                        TrainConfig(epochs=2), init=init)
        assert init.params.tobytes() == before
        assert trained.params.tobytes() != before


# Two network files byte for byte: every change of the encoder shows here.
_BINARY_FILE = """\
{
  "architecture": {
    "hidden": [
      2
    ],
    "input_dim": 2,
    "output_dim": 1
  },
  "biases": [
    [
      1.5,
      1.5
    ]
  ],
  "classes": null,
  "output_bias": [
    0.0
  ],
  "preprocessor": [
    [
      [
        "identity"
      ]
    ]
  ],
  "schema_version": 1,
  "threshold": 0.0,
  "weights": [
    [
      [
        0.7071067811865476,
        -0.7071067811865476
      ],
      [
        -0.7071067811865476,
        0.7071067811865476
      ]
    ],
    [
      [
        1.0,
        1.0
      ]
    ]
  ]
}
"""
_MULTICLASS_FILE = """\
{
  "architecture": {
    "hidden": [
      1
    ],
    "input_dim": 1,
    "output_dim": 2
  },
  "biases": [
    [
      0.125
    ]
  ],
  "classes": [
    0,
    4
  ],
  "output_bias": [
    0.0,
    3.0
  ],
  "preprocessor": [
    [
      [
        "truncate",
        3.0
      ],
      [
        "unit_scale"
      ]
    ],
    [
      [
        "square"
      ]
    ]
  ],
  "schema_version": 1,
  "threshold": 0.0,
  "weights": [
    [
      [
        0.5
      ]
    ],
    [
      [
        1.0
      ],
      [
        -0.25
      ]
    ]
  ]
}
"""


class TestSerialisation:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(15)
        net = _init_network(Architecture(7, (5, 4), 2), rng)
        net.classes = (0, 3)
        pre = Preprocessor(((("truncate", 3.0), ("unit_scale",)),))
        text = network_to_json(net, pre)
        loaded, pre2 = network_from_json(text)
        assert pre2 == pre
        assert loaded.architecture == net.architecture
        assert loaded.classes == net.classes
        for a, b in zip(loaded.weights + loaded.biases, net.weights + net.biases):
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=80, deadline=None, database=None)
    @given(networks())
    def test_roundtrip_property(self, drawn):
        net, pre = drawn
        loaded, pre2 = network_from_json(network_to_json(net, pre))
        assert pre2 == pre
        assert loaded.architecture == net.architecture
        assert loaded.classes == net.classes
        assert np.float64(loaded.threshold).tobytes() == np.float64(net.threshold).tobytes()
        for a, b in zip(loaded.weights + loaded.biases + [loaded.output_bias],
                        net.weights + net.biases + [net.output_bias]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_version_check(self):
        with pytest.raises(ValueError, match="schema version"):
            network_from_json('{"schema_version": 99}')

    @pytest.mark.parametrize("net, pre, expected", [
        (embed_cusum(2, 1.5), Preprocessor((("identity",),)), _BINARY_FILE),
        (Network(Architecture(1, (1,), 2), [np.array([[0.5]]), np.array([[1.0], [-0.25]])],
                 [np.array([0.125])], np.array([0.0, 3.0]), classes=(0, 4)),
         Preprocessor(((("truncate", 3), ("unit_scale",)), ("square",))), _MULTICLASS_FILE),
    ], ids=["binary", "multiclass"])
    def test_written_bytes(self, net, pre, expected):
        """Sorted keys, a two-space indent, a final newline and shortest float decimals."""
        assert network_to_json(net, pre) == expected

    def test_serialised_twice_identical(self):
        net, pre = embed_cusum(12, 2.0), Preprocessor((("identity",),))
        assert network_to_json(net, pre) == network_to_json(net, pre)

    @pytest.mark.parametrize("threshold", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_threshold_rejected(self, threshold):
        payload = json.loads(network_to_json(embed_cusum(6, 1.0), Preprocessor((("identity",),))))
        text = json.dumps(payload).replace('"threshold": 0.0', f'"threshold": {threshold}')
        with pytest.raises(ValueError, match="threshold must be finite"):
            network_from_json(text)

    @pytest.mark.parametrize("z", ["3", True, None])
    def test_truncate_parameter_must_be_a_json_number(self, z):
        payload = json.loads(network_to_json(embed_cusum(6, 1.0), Preprocessor((("identity",),))))
        payload["preprocessor"] = [[["truncate", z]]]
        with pytest.raises(ValueError, match="'preprocessor' is malformed: expected a number"):
            network_from_json(json.dumps(payload))
        payload["preprocessor"] = [[["truncate", 3]], [["unit_scale"]]]
        _, pre = network_from_json(json.dumps(payload))
        assert pre.channels == ((("truncate", 3.0),), (("unit_scale",),))

    def test_class_count_must_match_output_width(self):
        rng = np.random.default_rng(16)
        net = _init_network(Architecture(4, (3,), 3), rng)
        payload = json.loads(network_to_json(net, Preprocessor((("identity",),))))
        payload["classes"] = [1, 2]
        with pytest.raises(ValueError, match="2 classes for output width 3"):
            network_from_json(json.dumps(payload))
        payload["classes"] = [1, 2, 5]
        loaded, _ = network_from_json(json.dumps(payload))
        assert loaded.classes == (1, 2, 5)

    def test_binary_network_takes_no_classes(self):
        # A binary network labels 0 and 1; classes in its file would be ignored.
        text = network_to_json(embed_cusum(100, 3.0), Preprocessor((("identity",),)))
        payload = json.loads(text)
        payload["classes"] = [7, 9]
        with pytest.raises(ValueError, match="binary network .* takes no classes"):
            network_from_json(json.dumps(payload))
