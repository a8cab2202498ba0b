"""Feedforward ReLU networks that contain the linear scan statistics exactly.

A network here maps an input vector through ``L >= 1`` hidden layers of
shifted ReLUs, ``a -> max(W a - b, 0)``, then through a final linear
layer to a score.  Binary networks label ``1`` when the score strictly
exceeds the decision threshold; multiclass networks take the argmax.

:func:`embed_directions` builds the exact network form of a linear scan
``max_k |u_k . x| > threshold``: one hidden unit per signed direction
with bias equal to the threshold, and a summing output unit thresholded
at zero.  The sum of hinges is positive precisely when some ``|u_k . x|``
exceeds the threshold, so network and scan agree on every input whose
statistic is not exactly at the threshold.  The directions are the CUSUM
contrasts (:func:`embed_cusum`) or any :func:`cpdlab.glr.glr_directions`.

All parameters of a network live in one contiguous float64 vector,
``Network.params``: every weight matrix in layer order, then every
hidden bias, then the output bias, each flattened row-major.  The
``weights``, ``biases`` and ``output_bias`` fields are reshaped views of
that vector, and :func:`loss_and_gradient` returns its gradient as one
vector in the same layout, so an optimiser step is a handful of
element-wise passes over a single buffer.  :func:`train` allocates that
gradient vector once and passes it to every step as ``out``.

Training minimises the cross-entropy of a logistic (or softmax) link on
the score with Adam; the hard threshold is evaluation-only since the
0-1 loss has no usable gradient.  Given a seed, initialisation, batch
order and therefore the trained network are fully deterministic.

An entry of Adam's first moment whose gradient stays exactly 0, for
example a weight into a ReLU unit that never fires, shrinks by ``beta1``
each step until it is subnormal, and a numpy pass over subnormal
operands runs tens of times slower.  At the end of every epoch
:func:`train` therefore sets each first-moment entry with
``0 < |m| < 2**-1022`` to a zero of the same sign, the value further
decay would reach.  No parameter can tell: such an entry moves its
parameter by at most about ``2**-1022 * lr / (c1 * eps)``, about
``2**-1002`` at the default constants, which rounds away unless the
parameter itself is below about ``2**-949``.  It changes the next moment
``beta1 * m + (1 - beta1) * g`` only if ``|g|`` is below about
``2**-966``.  Neither happens in practice, so training results are the
same bit for bit as without the flush.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .cusum import cusum_basis, dyadic_grid
from .robust import zscore_truncate

__all__ = [
    "Architecture",
    "Network",
    "TrainConfig",
    "Preprocessor",
    "TrainingError",
    "unit_scale",
    "lag_product",
    "forward",
    "embed_cusum",
    "embed_directions",
    "loss_and_gradient",
    "train",
    "grad_check",
    "network_to_json",
    "network_from_json",
]

SCHEMA_VERSION = 1
_TINY = np.finfo(np.float64).tiny  # smallest normal float64, 2**-1022


class TrainingError(RuntimeError):
    """Raised when optimisation produces non-finite losses or parameters."""


@dataclass(frozen=True)
class Architecture:
    """Shape of a network: input width, hidden widths, output width."""

    input_dim: int
    hidden: tuple[int, ...]
    output_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(m) for m in self.hidden))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input and output dimensions must be >= 1")
        if len(self.hidden) < 1 or any(m < 1 for m in self.hidden):
            raise ValueError("need at least one hidden layer, all widths >= 1")

    @property
    def depth(self) -> int:
        return len(self.hidden)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.output_dim)


@functools.cache
def _layout(arch: Architecture) -> tuple[tuple[str, tuple[int, ...], slice], ...]:
    """Name, shape and flat-vector slice of each parameter array, in order."""
    dims = arch.layer_dims
    entries = [(f"weights[{l}]", (d_out, d_in))
               for l, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:]))]
    entries += [(f"biases[{l}]", (m,)) for l, m in enumerate(arch.hidden)]
    entries.append(("output_bias", (arch.output_dim,)))
    layout, stop = [], 0
    for name, shape in entries:
        start, stop = stop, stop + math.prod(shape)
        layout.append((name, shape, slice(start, stop)))
    return tuple(layout)


def _split(arch: Architecture, flat: np.ndarray):
    """Views of a flat parameter-layout vector as ``(weights, biases, output_bias)``."""
    views = [flat[part].reshape(shape) for _, shape, part in _layout(arch)]
    n_weights = arch.depth + 1
    return views[:n_weights], views[n_weights:-1], views[-1]


def _array_at(arch: Architecture, offset: int) -> str:
    """Name of the parameter array that holds flat entry ``offset``."""
    for name, _, part in _layout(arch):
        if part.start <= offset < part.stop:
            return name
    raise IndexError("offset beyond the parameter vector")


@dataclass(eq=False)
class Network:
    """Weights and biases of one ReLU network plus its decision rule.

    ``weights[l]`` maps layer ``l`` to layer ``l+1``; ``biases[l]`` is
    subtracted before the ReLU of hidden layer ``l+1``.  Binary networks
    (output width 1) decide ``score > threshold``; multiclass networks
    return ``classes[argmax score]`` with the smallest index on ties.

    Construction copies the given arrays into ``params``, one C-contiguous
    float64 vector (weights, then hidden biases, then output bias), and
    rebinds ``weights``, ``biases`` and ``output_bias`` to reshaped views
    of it.  Writing through a view therefore changes the network, while
    the caller's original arrays are never shared.
    """

    architecture: Architecture
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output_bias: np.ndarray
    threshold: float = 0.0
    classes: tuple[int, ...] | None = None
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims = self.architecture.layer_dims
        if len(self.weights) != len(dims) - 1:
            raise ValueError(f"expected {len(dims) - 1} weight matrices, got {len(self.weights)}")
        for l, w in enumerate(self.weights):
            if w.shape != (dims[l + 1], dims[l]):
                raise ValueError(
                    f"weight {l} has shape {w.shape}, expected {(dims[l + 1], dims[l])}"
                )
        if len(self.biases) != self.architecture.depth:
            raise ValueError(f"expected {self.architecture.depth} bias vectors")
        for l, b in enumerate(self.biases):
            if b.shape != (dims[l + 1],):
                raise ValueError(f"bias {l} has shape {b.shape}, expected ({dims[l + 1]},)")
        if self.output_bias.shape != (dims[-1],):
            raise ValueError(f"output bias has shape {self.output_bias.shape}")
        arrays = (*self.weights, *self.biases, self.output_bias)
        self.params = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        if not np.all(np.isfinite(self.params)):
            raise ValueError("network parameters contain non-finite values")
        self.weights, self.biases, self.output_bias = _split(self.architecture, self.params)
        if not math.isfinite(self.threshold):
            raise ValueError(f"decision threshold must be finite, got {self.threshold!r}")
        if self.classes is not None and not self.is_binary and len(self.classes) != dims[-1]:
            raise ValueError(f"{len(self.classes)} classes for output width {dims[-1]}")

    @property
    def is_binary(self) -> bool:
        return self.architecture.output_dim == 1


@dataclass(frozen=True)
class TrainConfig:
    """Optimiser settings; the defaults are what the benchmark recipes use."""

    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    lr_decay: float = 0.0  # inverse time decay per epoch: lr / (1 + decay * epoch)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        constants = (self.learning_rate, self.beta1, self.beta2, self.adam_eps, self.lr_decay)
        if not all(math.isfinite(c) for c in constants):
            raise ValueError("optimiser constants must be finite")
        if min(self.learning_rate, self.beta1, self.beta2, self.adam_eps) <= 0:
            raise ValueError("optimiser constants must be positive")
        if max(self.beta1, self.beta2) >= 1:
            raise ValueError("beta1 and beta2 must be < 1")
        if self.lr_decay < 0:
            raise ValueError("lr_decay must be >= 0")


def _finite_array(x) -> np.ndarray:
    """Return ``x`` as a float64 array, rejecting NaN and infinite entries."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    return x


def unit_scale(x) -> np.ndarray:
    """Rescale each series onto [0, 1]; constant input maps to all zeros.

    Works on a single series or row-wise on a matrix of series.  Because
    only min and max enter, the output is invariant to positive affine
    maps of the input, which makes downstream classifiers ignore level
    and scale.
    """
    x = np.asarray(x, dtype=np.float64)
    lo = x.min(axis=-1, keepdims=True)
    hi = x.max(axis=-1, keepdims=True)
    span = hi - lo
    safe = np.where(span == 0.0, 1.0, span)
    out = (x - lo) / safe
    return np.where(span == 0.0, 0.0, out)


def lag_product(x) -> np.ndarray:
    """Products of consecutive entries, length n-1 (row-wise on matrices)."""
    x = np.asarray(x, dtype=np.float64)
    return x[..., :-1] * x[..., 1:]


# Each preprocessing step by name; only ``truncate`` takes a parameter.
_STEPS = {
    "identity": lambda v: v,
    "unit_scale": unit_scale,
    "square": np.square,
    "lag_product": lag_product,
    "truncate": zscore_truncate,
}


@dataclass(frozen=True)
class Preprocessor:
    """Per-channel step pipelines applied to a raw series, then concatenated.

    Each channel is a tuple of steps from ``identity``, ``unit_scale``,
    ``square``, ``lag_product`` and ``("truncate", z)``, applied in
    order.  A channel whose pipeline contains ``lag_product`` comes out
    one entry short and is zero-padded on the right, so every channel
    contributes exactly ``n`` features.
    """

    channels: tuple[tuple, ...] = ((("unit_scale",),))

    def __post_init__(self):
        norm = []
        for channel in self.channels:
            steps = []
            for step in channel:
                name, *param = (step,) if isinstance(step, str) else step
                if name not in _STEPS:
                    raise ValueError(f"unknown preprocessing step {name!r}")
                if name == "truncate":
                    if len(param) != 1 or not 0 < float(param[0]) < math.inf:
                        raise ValueError("truncate step needs one positive finite parameter")
                    param = [float(param[0])]
                elif param:
                    raise ValueError(f"preprocessing step {name!r} takes no parameter")
                steps.append((name, *param))
            norm.append(tuple(steps))
        object.__setattr__(self, "channels", tuple(norm))

    def output_dim(self, n: int) -> int:
        return n * len(self.channels)

    def apply(self, x) -> np.ndarray:
        """Transform one series (or a matrix row-wise) into feature vectors.

        Non-finite entries are rejected with ``ValueError``.
        """
        x = _finite_array(x)
        single = x.ndim == 1
        rows = x[None, :] if single else x
        n = rows.shape[1]
        parts = []
        for channel in self.channels:
            v = rows
            for name, *param in channel:
                v = _STEPS[name](v, *param)
            if v.shape[1] < n:
                pad = np.zeros((v.shape[0], n - v.shape[1]))
                v = np.hstack([v, pad])
            parts.append(v)
        out = np.hstack(parts)
        return out[0] if single else out

    def to_jsonable(self) -> list:
        return [[list(step) for step in channel] for channel in self.channels]

    @classmethod
    def from_jsonable(cls, data) -> "Preprocessor":
        return cls(tuple(tuple(tuple(step) for step in channel) for channel in data))


def _forward_pass(net: Network, X: np.ndarray):
    """Return hidden activations [a_0 .. a_L] and the output scores."""
    activations = [X]
    a = X
    for w, b in zip(net.weights[:-1], net.biases):
        a = a @ w.T
        a -= b
        np.maximum(a, 0.0, out=a)
        activations.append(a)
    scores = a @ net.weights[-1].T
    scores -= net.output_bias
    return activations, scores


def forward(net: Network, x):
    """Evaluate the network on one input or a batch of inputs.

    Returns ``(score, label)``.  For binary networks the score is the
    scalar pre-threshold output and ``label = 1{score > threshold}``;
    for multiclass networks the score is the logit vector and the label
    is the class with the largest logit (smallest index on ties).
    Non-finite inputs are rejected with ``ValueError``.
    """
    x = _finite_array(x)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != net.architecture.input_dim:
        raise ValueError(
            f"input dimension {X.shape[1]} does not match network "
            f"input {net.architecture.input_dim}"
        )
    _, scores = _forward_pass(net, X)
    if net.is_binary:
        scores = scores[:, 0]
        labels = (scores > net.threshold).astype(np.int64)
    else:
        idx = np.argmax(scores, axis=1)
        if net.classes is not None:
            labels = np.asarray(net.classes, dtype=np.int64)[idx]
        else:
            labels = idx.astype(np.int64)
    if single:
        return (float(scores[0]) if net.is_binary else scores[0]), int(labels[0])
    return scores, labels


def embed_directions(directions, threshold: float) -> Network:
    """Build the network that labels 1 exactly when ``max_k |u_k . x| > threshold``.

    ``directions`` is a (k, n) matrix whose rows ``u_k`` are the scan
    directions.  The first layer stacks every row with both signs, each
    hidden unit biased by the threshold; the output unit sums the hinges
    and fires when the sum is positive.  The hidden width is ``2k``.
    """
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    rows = np.asarray(directions, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError(f"directions must be a non-empty (k, n) matrix, got shape {rows.shape}")
    width = 2 * rows.shape[0]
    arch = Architecture(rows.shape[1], (width,), 1)
    w0 = np.vstack([rows, -rows])
    b1 = np.full(width, float(threshold))
    w1 = np.ones((1, width))
    return Network(arch, [w0, w1], [b1], np.zeros(1), threshold=0.0)


def embed_cusum(n: int, threshold: float, variant: str = "full") -> Network:
    """Build the network that reproduces the CUSUM classifier exactly.

    This is :func:`embed_directions` on the scan contrasts of
    :func:`cusum_basis`.  ``variant="star"`` restricts the contrasts to
    the dyadic grid, giving a hidden width of twice the grid size instead
    of 2n-2.
    """
    if variant not in ("full", "star"):
        raise ValueError(f"variant must be 'full' or 'star', got {variant!r}")
    rows = cusum_basis(n)
    return embed_directions(rows if variant == "full" else rows[dyadic_grid(n) - 1], threshold)


def _binary_loss(s: np.ndarray, y: np.ndarray):
    """Mean logistic cross-entropy and d(loss)/d(score).

    The sigmoid takes one ``e = exp(-|s|)`` for both signs of the score,
    ``1 / (1 + e)`` where ``s >= 0`` and ``e / (1 + e)`` elsewhere, so
    neither branch overflows.  Means are taken as ``sum / size``, which is
    how ``np.mean`` computes them.
    """
    losses = np.logaddexp(0.0, s)
    losses -= y * s
    e = np.abs(s)
    np.negative(e, out=e)
    np.exp(e, out=e)
    grad = np.where(s >= 0, 1.0, e)
    e += 1.0
    grad /= e
    grad -= y
    grad /= s.size
    return float(losses.sum() / s.size), grad


def _softmax_loss(scores: np.ndarray, y_idx: np.ndarray):
    """Mean softmax cross-entropy (log-sum-exp stabilised) and gradient."""
    m = scores.shape[0]
    rows = np.arange(m)
    shift = scores - scores.max(axis=1, keepdims=True)
    grad = np.exp(shift)
    log_z = np.log(np.sum(grad, axis=1))
    losses = log_z - shift[rows, y_idx]
    grad /= np.exp(log_z)[:, None]
    grad[rows, y_idx] -= 1.0
    grad /= m
    return float(losses.sum() / m), grad


def loss_and_gradient(net: Network, X, y, *, out: np.ndarray | None = None):
    """Cross-entropy loss of a batch and its exact parameter gradient.

    ``y`` holds 0/1 labels for binary networks or class indices
    ``0..K-1`` for multiclass ones.  Returns ``(loss, grad)``, where
    ``grad`` is one flat vector in the layout of ``net.params``; each
    layer's gradient is written straight into its view of that vector.
    ``out``, a contiguous float64 vector of that size, receives the
    gradient and is returned as ``grad``; any other ``out`` raises
    ``ValueError``.  Without it a new vector is allocated.
    Duplicated examples leave both loss and gradient unchanged (mean
    reduction).  A non-finite loss raises :class:`TrainingError`.
    """
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == net.params.shape and out.flags.c_contiguous):
        raise ValueError(f"out must be a contiguous float64 vector of {net.params.size} entries")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    activations, scores = _forward_pass(net, X)
    if net.is_binary:
        loss, dscore = _binary_loss(scores[:, 0], np.asarray(y, dtype=np.float64))
        g = dscore[:, None]
    else:
        loss, g = _softmax_loss(scores, np.asarray(y, dtype=np.int64))
    if not math.isfinite(loss):
        raise TrainingError(f"non-finite loss {loss!r}; inputs or parameters diverged")

    grad = np.empty_like(net.params) if out is None else out
    d_weights, d_biases, d_output_bias = _split(net.architecture, grad)
    np.matmul(g.T, activations[-1], out=d_weights[-1])
    np.negative(g.sum(axis=0), out=d_output_bias)
    # With one output, g @ W has a single product per entry; the broadcast
    # gives the same values (an exact zero may carry the other sign, which
    # the sums and matmuls below drop) without a BLAS call.
    delta = g * net.weights[-1] if net.is_binary else g @ net.weights[-1]
    for l in range(net.architecture.depth, 0, -1):
        delta *= activations[l] > 0
        np.matmul(delta.T, activations[l - 1], out=d_weights[l - 1])
        np.negative(delta.sum(axis=0), out=d_biases[l - 1])
        if l > 1:
            delta = delta @ net.weights[l - 1]
    return loss, grad


def _init_network(arch: Architecture, rng: np.random.Generator) -> Network:
    """Fan-scaled uniform weight init, zero biases."""
    weights = []
    dims = arch.layer_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
    biases = [np.zeros(m) for m in arch.hidden]
    return Network(arch, weights, biases, np.zeros(arch.output_dim), threshold=0.0)


def train(X, y, arch: Architecture, config: TrainConfig = TrainConfig(),
          init: Network | None = None) -> Network:
    """Train a network on feature rows ``X`` with labels ``y``.

    Binary targets must be 0/1 and need ``output_dim == 1``; any other
    label set is trained with a softmax head over the sorted distinct
    labels, which must number ``output_dim``.  ``init`` (for example an
    :func:`embed_cusum` network) overrides the seeded random start.
    Everything downstream of ``config.seed`` is deterministic: same
    inputs and seed give a bit-identical network.  Non-finite features
    are rejected with ``ValueError``.

    Adam runs in place on the flat ``params`` vector of the network that
    is returned.  A non-finite loss, or parameters that are non-finite at
    the end of an epoch, raise :class:`TrainingError` naming the epoch,
    the global step and the parameter array of the first non-finite entry.
    At the end of each epoch, first-moment entries that have decayed into
    the subnormal range are set to signed zero; this keeps the Adam passes
    at full speed and cannot move a parameter (see the module docstring).

    Each step gathers its batch with ``take`` and calls
    :func:`loss_and_gradient` with one gradient vector allocated up
    front (``out``), so a step allocates no parameter-sized array.
    Non-integral labels for a multiclass network raise ``ValueError``.
    """
    X = np.atleast_2d(_finite_array(X))
    y = np.asarray(y)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y must have the same number of rows")
    if X.shape[0] == 0:
        raise ValueError("training set must be non-empty")
    if X.shape[1] != arch.input_dim:
        raise ValueError(f"feature dimension {X.shape[1]} != input_dim {arch.input_dim}")

    classes = None
    if arch.output_dim == 1:
        targets = y.astype(np.float64)
        if not np.all(np.isin(y, (0, 1))):
            raise ValueError("binary training labels must be 0 or 1")
    else:
        values = np.unique(y)
        if values.dtype.kind not in "biu" and not (
                values.dtype.kind == "f"
                and np.all(np.isfinite(values) & (values == np.trunc(values)))):
            raise ValueError("multiclass training labels must be integers")
        classes = tuple(int(c) for c in values)
        if len(classes) != arch.output_dim:
            raise ValueError(
                f"{len(classes)} distinct labels but output_dim {arch.output_dim}"
            )
        lookup = {c: i for i, c in enumerate(classes)}
        targets = np.array([lookup[int(v)] for v in y], dtype=np.int64)

    if init is not None and init.architecture != arch:
        raise ValueError("init network architecture does not match arch")
    rng = np.random.default_rng(config.seed)
    net = init if init is not None else _init_network(arch, rng)
    # ``replace`` copies the starting parameters into a fresh vector; Adam
    # updates it in place, which every view and later gradient sees.
    current = replace(net, threshold=0.0, classes=classes)
    params = current.params
    b1, b2, eps = config.beta1, config.beta2, config.adam_eps
    m_state = np.zeros_like(params)
    v_state = np.zeros_like(params)
    grad = np.empty_like(params)
    tmp = np.empty_like(params)
    denom = np.empty_like(params)
    step = 0
    n_rows = X.shape[0]
    for epoch in range(config.epochs):
        lr = config.learning_rate / (1.0 + config.lr_decay * epoch)
        order = rng.permutation(n_rows)
        for start in range(0, n_rows, config.batch_size):
            batch = order[start:start + config.batch_size]
            step += 1
            try:
                _, g = loss_and_gradient(current, X.take(batch, axis=0), targets.take(batch),
                                         out=grad)
            except TrainingError as exc:
                raise _divergence(arch, params, epoch, step, str(exc)) from exc
            c1 = 1.0 - b1**step
            c2 = 1.0 - b2**step
            m_state *= b1
            np.multiply(g, 1.0 - b1, out=tmp)
            m_state += tmp
            v_state *= b2
            np.multiply(g, 1.0 - b2, out=tmp)
            tmp *= g
            v_state += tmp
            np.divide(m_state, c1, out=tmp)
            tmp *= lr
            np.divide(v_state, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            tmp /= denom
            params -= tmp
        if not np.all(np.isfinite(params)):
            raise _divergence(arch, params, epoch, step, "non-finite parameters")
        # Moments whose gradient stays 0 decay into the subnormal range, where
        # every pass over m_state runs tens of times slower.  Zero them with
        # their sign; the module docstring says why no parameter can tell.
        np.abs(m_state, out=tmp)
        np.multiply(m_state, 0.0, out=m_state, where=tmp < _TINY)
    return current


def _divergence(arch: Architecture, params: np.ndarray, epoch: int, step: int,
                cause: str) -> TrainingError:
    """A :class:`TrainingError` naming the epoch, the global step and the first bad array."""
    bad = np.flatnonzero(~np.isfinite(params))
    where = f"; first non-finite entry in {_array_at(arch, int(bad[0]))}" if bad.size else ""
    return TrainingError(f"training diverged in epoch {epoch}, step {step}: {cause}{where}")


def _loss_only(net: Network, X, y) -> float:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _, scores = _forward_pass(net, X)
    if net.is_binary:
        return _binary_loss(scores[:, 0], np.asarray(y, dtype=np.float64))[0]
    return _softmax_loss(scores, np.asarray(y, dtype=np.int64))[0]


def grad_check(net: Network, x, y, step: float = 1e-5, kink_margin: float = 1e-6) -> float:
    """Largest deviation of the analytic gradient from central differences.

    Deviations are measured relative to ``max(1, |analytic|, |numeric|)``
    so near-zero entries are compared on an absolute scale.  A central
    difference across a ReLU kink measures neither one-sided slope, so
    before checking, every hidden pre-activation is moved off the kink by
    raising it through its bias until it is at least ``kink_margin +
    step * s`` from zero.  Here ``s`` bounds how far one pre-activation
    of that layer can move per unit change of any single parameter: the
    largest of 1 (a bias), the largest input magnitude of the layer (a
    weight of the layer) and the largest absolute row sum of the layer's
    weights times the previous layer's ``s`` (a parameter upstream).  No
    perturbation of ``±step`` then crosses a kink.
    """
    if not 0 < step <= 1e-3:
        raise ValueError(f"step must lie in (0, 1e-3], got {step}")
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y).reshape(-1)

    # ``replace`` builds a network with its own parameter vector, so the
    # bias shifts and perturbations below never reach the caller's network.
    net = replace(net)
    a = X
    reach = 0.0
    for w, b in zip(net.weights[:-1], net.biases):
        reach = max(1.0, float(np.max(np.abs(a))),
                    float(np.max(np.abs(w).sum(axis=1))) * reach)
        band = kink_margin + step * reach
        z = a @ w.T - b
        # Raising a unit lifts all its rows, so a row below the band can land
        # in it.  Each round moves a near row of every raised unit past the
        # band for good, so one round per row suffices.
        for _ in range(len(X)):
            near = np.abs(z) < band
            if not np.any(near):
                break
            b[np.any(near, axis=0)] -= 2.0 * band
            z = a @ w.T - b
        a = np.maximum(z, 0.0)

    _, analytic = loss_and_gradient(net, X, y)
    flat = net.params
    worst = 0.0
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        up = _loss_only(net, X, y)
        flat[i] = keep - step
        down = _loss_only(net, X, y)
        flat[i] = keep
        numeric = (up - down) / (2.0 * step)
        denom = max(1.0, abs(analytic[i]), abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


def network_to_json(net: Network, preprocessor: Preprocessor | None = None) -> str:
    """Serialise a network (and optional preprocessor) to versioned JSON.

    Floats are written with shortest round-trip decimals, so loading the
    string back yields bit-identical parameters.
    """
    payload = {
        "schema_version": SCHEMA_VERSION,
        "architecture": {
            "input_dim": net.architecture.input_dim,
            "hidden": list(net.architecture.hidden),
            "output_dim": net.architecture.output_dim,
        },
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "output_bias": net.output_bias.tolist(),
        "threshold": net.threshold,
        "classes": list(net.classes) if net.classes is not None else None,
    }
    if preprocessor is not None:
        payload["preprocessor"] = preprocessor.to_jsonable()
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _field(data: dict, name: str, convert):
    """``convert(data[name])``; a missing or ill-typed field raises ``ValueError`` naming it."""
    if name not in data:
        raise ValueError(f"network file has no {name!r} field")
    try:
        return convert(data[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"network file field {name!r} is malformed: {exc}") from None


def network_from_json(text: str):
    """Inverse of :func:`network_to_json`; returns ``(network, preprocessor)``.

    A file that is not such a JSON object, or whose fields are missing
    or of the wrong type, raises ``ValueError`` naming the field.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("a network file must hold a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported network schema version {version!r}")
    spec = _field(payload, "architecture", dict)
    arch = Architecture(
        _field(spec, "input_dim", operator.index),
        _field(spec, "hidden", lambda hidden: tuple(map(operator.index, hidden))),
        _field(spec, "output_dim", operator.index),
    )
    net = Network(
        arch,
        _field(payload, "weights", lambda ws: [np.asarray(w, dtype=np.float64) for w in ws]),
        _field(payload, "biases", lambda bs: [np.asarray(b, dtype=np.float64) for b in bs]),
        _field(payload, "output_bias", lambda b: np.asarray(b, dtype=np.float64)),
        threshold=_field(payload, "threshold", float),
        classes=None if payload.get("classes") is None else _field(payload, "classes", tuple),
    )
    pre = (None if payload.get("preprocessor") is None
           else _field(payload, "preprocessor", Preprocessor.from_jsonable))
    return net, pre
