"""Seeded generators for every synthetic benchmark used by the package.

Binary scenario datasets pair mean-change series against no-change noise
under four noise regimes, named exactly as below (``SCENARIOS``).  Each
is one row of the scenario table ``_NOISE_LAWS``:

    S1   independent standard Gaussian
    S1'  AR(1) with coefficient 0.7, Gaussian innovations
    S2   AR(1) with a fresh Unif[0,1] coefficient at every step,
         Gaussian innovations with variance 2
    S3   independent Cauchy(0, 0.3)

The change prior sits next to it: magnitudes scale with ``snr_base`` so
detection stays neither trivial nor hopeless across change locations,
within a band per role (``_MAGNITUDE_BANDS``); test-role datasets widen
the band.  The multiclass generator produces the five-way
mixture (no change / mean change / variance change / pure trend / slope
change).  Each class is one row of the class table ``_CLASSES``: the
parameter it sets (mean, noise sd or slope) and whether that parameter
changes.  Its series length, change margin and parameter ranges are
fixed tables, and only the signal regime (weak or strong) and the
number of examples per class are chosen by the caller.

Every generator is a pure function of its spec and seed, an integer >= 0
checked once per call.  Example ``k`` of a dataset is generated from the
sub-seed ``SeedSequence(seed, spawn_key=(k,))``, so any single example
can be regenerated without touching the others; the shuffle that mixes
change and no-change halves uses one extra sub-seed, ``(seed, N)``.
The sub-seeds are hashed a block of examples at a time, with
SeedSequence's arithmetic on uint32 arrays, and each resulting PCG64
state is set on one reused generator (:func:`_example_rngs`); the
streams are numpy's own bit for bit.
That shuffle order is drawn first, and each example is written straight
into its shuffled row of one preallocated ``(N, n)`` array, so a dataset
is held once: the AR(1) recursion of S1' and S2 runs in place on its
rows, a block of rows at a time, and each change row then adds its step
in place.  The block streams :func:`scenario_blocks` and
:func:`multiclass_blocks` give the same rows and labels as
:func:`gen_scenario` and :func:`gen_multiclass` one block at a time in
one reused buffer, without metadata, so a consumer that uses each block
as it comes never holds the whole dataset.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar

import numpy as np

from .cusum import _row_blocks

__all__ = [
    "SCENARIOS",
    "ScenarioSpec",
    "MulticlassSpec",
    "LabeledDataset",
    "snr_base",
    "ar1_noise",
    "gen_scenario",
    "scenario_blocks",
    "regenerate_example",
    "gen_multiclass",
    "multiclass_blocks",
    "gen_piecewise",
]

# Scenario table: the noise law of each scenario, as (rho, innovation,
# scale).  rho is None for independent noise, a constant, or "uniform"
# for a fresh Unif[0, 1] coefficient at every step; the innovations are
# ``rng.standard_<innovation>`` draws times scale.  Draws are named, not
# bound, so that importing the package does not load ``numpy.random``.
_NOISE_LAWS = {
    "S1": (None, "normal", 1.0),
    "S1'": (0.7, "normal", 1.0),
    "S2": ("uniform", "normal", math.sqrt(2.0)),
    "S3": (None, "cauchy", 0.3),
}
SCENARIOS = tuple(_NOISE_LAWS)
# Change prior: multiples of ``snr_base`` bounding |mu_right|, per role.
_MAGNITUDE_BANDS = {"train": (0.5, 1.5), "test": (0.25, 1.75)}

# Class table for the multiclass mixture: label -> (parameter, changes).
# A parameter's value bounds are shared by its classes; the |difference|
# band of a change depends on the signal regime.
_CLASSES = {1: ("mu", False), 2: ("mu", True), 3: ("sd", True), 4: ("slope", False),
            5: ("slope", True)}
_BOUNDS = {"mu": (-5.0, 5.0), "sd": (0.3, 0.7), "slope": (-0.025, 0.025)}
_DIFF_BANDS = {
    "weak": {"mu": (0.25, 0.5), "sd": (0.12, 0.24), "slope": (0.006, 0.012)},
    "strong": {"mu": (0.6, 1.2), "sd": (0.2, 0.4), "slope": (0.015, 0.03)},
}
MEAN_NOISE_SD = 0.7  # noise variance 0.49 for mean-change data
SLOPE_NOISE_SD = 0.5  # noise variance 0.25 for slope-change data

_MAX_REJECTION_DRAWS = 10**6


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed) -> None:
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for one binary scenario dataset; ``scenario`` is one of ``SCENARIOS`` exactly."""

    scenario: str
    n: int = 100
    size: int = 700
    role: str = "train"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if not (_is_integer(self.n) and self.n >= 4):
            raise ValueError(f"series length n must be an integer >= 4, got {self.n!r}")
        if not (_is_integer(self.size) and self.size >= 2 and self.size % 2 == 0):
            raise ValueError(f"dataset size must be an even integer >= 2, got {self.size!r}")
        if self.role not in _MAGNITUDE_BANDS:
            raise ValueError(f"role must be 'train' or 'test', got {self.role!r}")


@dataclass(frozen=True)
class MulticlassSpec:
    """Recipe for the five-class change-type mixture of the class table ``_CLASSES``.

    Only ``regime`` ('weak' or 'strong') and ``per_class`` are chosen;
    the series length ``n``, the change margin and the parameter ranges
    are fixed, the |difference| band coming from the regime's table.
    """

    n: ClassVar[int] = 400
    margin: ClassVar[int] = 40

    regime: str
    per_class: int = 500

    def __post_init__(self):
        if self.regime not in _DIFF_BANDS:
            raise ValueError(f"regime must be 'weak' or 'strong', got {self.regime!r}")
        if not (_is_integer(self.per_class) and self.per_class >= 1):
            raise ValueError(f"per_class must be an integer >= 1, got {self.per_class!r}")


@dataclass
class LabeledDataset:
    """Series matrix with labels and per-example generation metadata."""

    values: np.ndarray  # (N, n)
    labels: np.ndarray  # (N,), 0/1 binary or 1..5 multiclass
    metadata: list[dict] = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D matrix of series")
        if self.labels.shape != (self.values.shape[0],):
            raise ValueError("labels length must match the number of series")
        if len(self.metadata) != self.values.shape[0]:
            raise ValueError("metadata length must match the number of series")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def fingerprint(self) -> str:
        """SHA-256 over shapes, labels and values; stable across processes."""
        digest = hashlib.sha256()
        digest.update(np.asarray(self.values.shape, dtype=np.int64).tobytes())
        digest.update(self.labels.tobytes())
        digest.update(np.ascontiguousarray(self.values))
        return digest.hexdigest()


def snr_base(n: int, tau: int) -> float:
    """Magnitude unit sqrt(8 n log(20n) / (tau (n - tau))) for change draws.

    Symmetric in tau <-> n - tau and smallest at the midpoint, so changes
    near the boundary get proportionally larger shifts.
    """
    if not 1 <= tau <= n - 1:
        raise ValueError(f"tau must lie in [1, n-1], got tau={tau}, n={n}")
    return math.sqrt(8.0 * n * math.log(20.0 * n) / (tau * (n - tau)))


def ar1_noise(rho: np.ndarray, innovations: np.ndarray) -> np.ndarray:
    """Run the AR(1) recursion e_t = rho_t e_{t-1} + xi_t with e_1 = xi_1.

    The recursion runs along the last axis, on one path (n,) or a batch
    of paths (N, n); every row gets the same operations as on its own.
    """
    rho = np.asarray(rho, dtype=np.float64)
    xi = np.asarray(innovations, dtype=np.float64)
    if rho.shape != xi.shape:
        raise ValueError("rho and innovations must have equal shape")
    eps = xi.copy()
    _ar1_in_place(rho, eps)
    return eps


def _ar1_in_place(rho: np.ndarray, eps: np.ndarray) -> None:
    """Turn the innovations held in ``eps`` into their AR(1) paths, in place."""
    for t in range(1, eps.shape[-1]):
        eps[..., t] = rho[..., t] * eps[..., t - 1] + eps[..., t]


# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier.
_M32, _M128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash(value: np.ndarray, h: int, mult: int):
    """SeedSequence's hash of the uint32 array ``value`` under constant ``h``: ``(hashed, next h)``.

    uint32 arithmetic wraps mod 2**32, as the C code does.
    """
    value = value ^ h
    h = h * mult & _M32
    value *= h
    return value ^ value >> 16, h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> 16


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words of ``value >= 0``; 0 is one word."""
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _pcg64_states(seed: int, indices: list[int]) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence(seed, spawn_key=(index,)))`` per index.

    SeedSequence's entropy is the seed's words, padded with zeros to its
    pool of four, then the index's words.  Each entropy word is a uint32
    array over the block, so the pool is mixed and hashed to PCG64's four
    64-bit seed words for every example at once; an index shorter than
    the longest skips the later words.  Python ints then finish PCG64's
    seeding step, ``state = (s + inc) * mult + inc``.
    """
    count = len(indices)
    seed_words = _words(int(seed))
    entropy = [(np.full(count, word, dtype=np.uint32), None)
               for word in seed_words + [0] * (4 - len(seed_words))]
    for shift in range(0, 32 * len(_words(int(max(indices)))), 32):
        live = np.array([index >> shift > 0 for index in indices]) if shift else None
        entropy.append((np.array([index >> shift & _M32 for index in indices], dtype=np.uint32),
                        live))
    pool, h = [], _INIT_A
    for word, _ in entropy[:4]:
        word, h = _hash(word, h, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, h = _hash(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for source, live in entropy[4:]:
        for dst in range(4):
            word, h = _hash(source, h, _MULT_A)
            word = _mix(pool[dst], word)
            pool[dst] = word if live is None else np.where(live, word, pool[dst])
    out, h = [], _INIT_B
    for k in range(8):
        word, h = _hash(pool[k % 4], h, _MULT_B)
        out.append(word.astype(np.uint64))
    pcg_words = [(out[k] | out[k + 1] << np.uint64(32)).tolist() for k in range(0, 8, 2)]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*pcg_words):
        inc = (i_hi << 65 | i_lo << 1 | 1) & _M128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _M128, inc))
    return states


def _example_rngs(seed: int, indices: list[int]):
    """Yield, for each example in ``indices``, one reused Generator set to its stream.

    Each yielded state equals ``np.random.default_rng(np.random.SeedSequence(
    seed, spawn_key=(index,)))``; a consumer draws from the generator
    before asking for the next example.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for state, inc in _pcg64_states(seed, indices):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng


def _scenario_rows(spec: ScenarioSpec, seed: int, indices: list[int], out: np.ndarray):
    """Write examples ``indices`` into the rows of ``out`` and return their metadata.

    Example ``index`` draws from its own sub-seed, in a fixed order: tau,
    the magnitude and the sign if it is a change example, then rho (for
    a "uniform" law), then the innovations.  Each row takes its
    innovations; the block is then scaled, the AR(1) recursion runs in
    place over its rows, and every change row adds its step in place.
    """
    rho, innovation, scale = _NOISE_LAWS[spec.scenario]
    lo, hi = _MAGNITUDE_BANDS[spec.role]
    n, half = spec.n, spec.size // 2
    per_step = rho == "uniform"
    if per_step:
        rho = np.empty_like(out)
    elif rho is not None:
        rho = np.broadcast_to(rho, out.shape)
    metas = []
    for row, (index, rng) in enumerate(zip(indices, _example_rngs(seed, indices))):
        meta = {"index": index, "scenario": spec.scenario, "role": spec.role, "tau": None, "mu_right": None}
        if index < half:
            tau = int(rng.integers(2, n - 1))  # uniform on {2, ..., n-2}
            b = snr_base(n, tau)
            magnitude = rng.uniform(lo * b, hi * b)
            sign = 1.0 if rng.integers(0, 2) else -1.0
            meta["tau"] = tau
            meta["mu_right"] = float(sign * magnitude)
        if per_step:
            rho[row] = rng.uniform(0.0, 1.0, n)
        out[row] = getattr(rng, "standard_" + innovation)(n)
        metas.append(meta)
    out *= scale
    if rho is not None:
        _ar1_in_place(rho, out)
    for row, meta in zip(out, metas):
        if meta["tau"] is not None:
            row[meta["tau"]:] += meta["mu_right"]
    return metas


def _shuffle_order(spec: ScenarioSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, labels)``: row ``i`` holds example ``order[i]``, labelled 1 for a change."""
    _check_seed(seed)
    order = next(_example_rngs(seed, [spec.size])).permutation(spec.size)
    return order, (order < spec.size // 2).astype(np.int64)


def _dataset(order: np.ndarray, labels: np.ndarray, n: int, fill_rows) -> LabeledDataset:
    """The dataset whose row ``i`` is example ``order[i]``, filled a block of rows at a time.

    ``fill_rows(indices, out)`` writes examples ``indices`` into the rows
    of ``out`` and returns their metadata.
    """
    values = np.empty((len(order), n))
    metas = []
    for block in _row_blocks(len(order), n):
        # Python ints index rows faster than numpy integers.
        metas += fill_rows(order[block].tolist(), values[block])
    return LabeledDataset(values, labels, metas)


def _blocks(order: np.ndarray, labels: np.ndarray, n: int, width: int, fill_rows):
    """Yield ``(block, labels[block], rows)`` of :func:`_dataset`'s rows, one reused buffer."""
    blocks = _row_blocks(len(order), width)
    buffer = np.empty((blocks[0].stop, n))  # the first block is the longest
    for block in blocks:
        rows = buffer[:block.stop - block.start]
        fill_rows(order[block].tolist(), rows)
        yield block, labels[block], rows


def gen_scenario(spec: ScenarioSpec, seed: int) -> LabeledDataset:
    """Generate a shuffled scenario dataset, half change and half no-change.

    Change examples draw tau uniformly on {2, ..., n-2}, keep the left
    mean at zero and draw the right mean as +/- Unif(band * snr_base);
    the no-change half is pure noise.  Deterministic given (spec, seed).
    Row ``i`` holds example ``order[i]`` of the shuffle order, which is
    drawn first; the rows are filled a block at a time.
    """
    return _dataset(*_shuffle_order(spec, seed), spec.n, partial(_scenario_rows, spec, seed))


def scenario_blocks(spec: ScenarioSpec, seed: int, width: int):
    """Yield ``(block, labels, rows)`` of ``gen_scenario(spec, seed)``, one row block at a time.

    The blocks are ``cpdlab.cusum._row_blocks(spec.size, width)``, and
    each block's ``labels`` and ``rows`` equal that slice of the
    dataset's labels and values bit for bit.  ``rows`` is a view of one
    buffer that the next block overwrites, so a consumer must use it
    before asking for the next block; the whole dataset and its
    metadata are never held.
    """
    return _blocks(*_shuffle_order(spec, seed), spec.n, width, partial(_scenario_rows, spec, seed))


def regenerate_example(spec: ScenarioSpec, seed: int, index: int):
    """Rebuild example ``index`` (pre-shuffle position) of a scenario dataset."""
    _check_seed(seed)
    if not (_is_integer(index) and 0 <= index < spec.size):
        raise ValueError(f"index must be an integer in [0, {spec.size}), got {index!r}")
    values = np.empty((1, spec.n))
    meta = _scenario_rows(spec, seed, [index], values)[0]
    return values[0], int(index < spec.size // 2), meta


def _draw_in_band(rng, bounds, diff_band):
    """Draw a pair from Unif(bounds) with |difference| inside ``diff_band``."""
    lo, hi = bounds
    dlo, dhi = diff_band
    for _ in range(_MAX_REJECTION_DRAWS):
        a, b = rng.uniform(lo, hi, 2)
        if dlo <= abs(a - b) <= dhi:
            return float(a), float(b)
    raise RuntimeError(
        f"rejection sampling failed: no pair in {bounds} with |diff| in {diff_band} "
        f"after {_MAX_REJECTION_DRAWS} draws"
    )


def _multiclass_example(spec: MulticlassSpec, rng, index: int, t: np.ndarray,
                        out: np.ndarray) -> dict:
    """Write example ``index`` of the mixture into the row ``out`` and return its metadata.

    Examples are numbered class by class, so the label is
    ``index // per_class + 1``.  The class's parameter takes the value
    ``a`` on ``t <= tau`` and ``b`` after it: a changing class draws tau
    and then an in-band pair, a constant class one value with tau = n.
    A slope is a line through 0 that bends at tau without a jump.
    ``rng`` is the example's generator from :func:`_example_rngs`.
    """
    n, margin = spec.n, spec.margin
    label = index // spec.per_class + 1
    param, changes = _CLASSES[label]
    meta = {"index": index, "label": label, "tau": None}
    if changes:
        tau = meta["tau"] = int(rng.integers(margin + 1, n - margin + 1))
        a, b = _draw_in_band(rng, _BOUNDS[param], _DIFF_BANDS[spec.regime][param])
        meta.update({f"{param}_left": a, f"{param}_right": b})
    else:
        tau = n
        a = b = meta[param] = float(rng.uniform(*_BOUNDS[param]))
    noise = rng.standard_normal(n)
    left = t <= tau
    if param == "mu":
        out[:] = np.where(left, a, b) + MEAN_NOISE_SD * noise
    elif param == "sd":
        out[:] = np.where(left, a, b) * noise
    else:
        out[:] = np.where(left, a * t, (a - b) * tau + b * t) + SLOPE_NOISE_SD * noise
    return meta


def _multiclass_rows(spec: MulticlassSpec, seed: int, indices: list[int], out: np.ndarray):
    """Write mixture examples ``indices`` into the rows of ``out``; return their metadata."""
    t = np.arange(1, spec.n + 1, dtype=np.float64)
    return [_multiclass_example(spec, rng, index, t, row)
            for index, rng, row in zip(indices, _example_rngs(seed, indices), out)]


def _multiclass_order(spec: MulticlassSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, labels)``: row ``i`` holds example ``order[i]`` of class ``labels[i]``."""
    _check_seed(seed)
    size = 5 * spec.per_class
    order = next(_example_rngs(seed, [size])).permutation(size)
    return order, order // spec.per_class + 1


def gen_multiclass(spec: MulticlassSpec, seed: int) -> LabeledDataset:
    """Generate the five-class mixture with ``spec.per_class`` examples per class.

    Labels: 1 constant mean, 2 mean change, 3 variance change, 4 pure
    linear trend, 5 slope change.  Change locations are uniform on
    {margin+1, ..., n-margin}; parameters are redrawn per example with
    the |difference| constraints of the regime.  As in
    :func:`gen_scenario`, row ``i`` holds example ``order[i]`` of the
    shuffle order drawn first.
    """
    return _dataset(*_multiclass_order(spec, seed), spec.n,
                    partial(_multiclass_rows, spec, seed))


def multiclass_blocks(spec: MulticlassSpec, seed: int, width: int):
    """Yield ``(block, labels, rows)`` of ``gen_multiclass(spec, seed)``, one row block at a time.

    The multiclass counterpart of :func:`scenario_blocks`: the blocks are
    ``cpdlab.cusum._row_blocks(5 * spec.per_class, width)``, their
    ``labels`` and ``rows`` equal the dataset's bit for bit, and ``rows``
    is a view of one buffer that the next block overwrites.
    """
    return _blocks(*_multiclass_order(spec, seed), spec.n, width,
                   partial(_multiclass_rows, spec, seed))


def gen_piecewise(length: int, taus, means, noise_sd: float = 1.0, seed: int = 0,
                  min_spacing: int | None = None):
    """Piecewise-constant mean plus i.i.d. Gaussian noise.

    Segment r covers positions tau_{r-1}+1 .. tau_r (1-based, with
    tau_0 = 0 and tau_{nu+1} = length) at level ``means[r]``.  When
    ``min_spacing`` is given, every segment, including the two boundary
    segments, must span at least that many points; the downstream
    sliding-window localiser needs spacing >= twice its window length.
    ``length`` must be an integer >= 1, ``taus`` integers, ``means``
    finite, ``noise_sd`` finite and >= 0 and ``seed`` an integer >= 0.

    Returns ``(series, metadata)``.
    """
    if not (_is_integer(length) and length >= 1):
        raise ValueError(f"length must be an integer >= 1, got {length!r}")
    _check_seed(seed)
    taus = list(taus)
    if not all(map(_is_integer, taus)):
        raise ValueError(f"taus must be integers, got {taus}")
    taus = [int(t) for t in taus]
    means = [float(m) for m in means]
    if not all(map(math.isfinite, means)):
        raise ValueError(f"means must be finite, got {means}")
    if not (math.isfinite(noise_sd) and noise_sd >= 0.0):
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    if len(means) != len(taus) + 1:
        raise ValueError(f"need len(means) == len(taus) + 1, got {len(means)} and {len(taus)}")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("change locations must be strictly increasing")
    if taus and not (1 <= taus[0] and taus[-1] <= length - 1):
        raise ValueError(f"change locations must lie in [1, {length - 1}]")
    edges = [0, *taus, length]
    if min_spacing is not None:
        spacings = [b - a for a, b in zip(edges, edges[1:])]
        if min(spacings) < min_spacing:
            raise ValueError(
                f"segment spacing {min(spacings)} below required minimum {min_spacing}"
            )
    signal = np.empty(length)
    for level, (start, stop) in zip(means, zip(edges, edges[1:])):
        signal[start:stop] = level
    rng = np.random.default_rng(seed)
    series = signal + noise_sd * rng.standard_normal(length)
    meta = {"taus": taus, "means": means, "noise_sd": float(noise_sd), "seed": int(seed)}
    return series, meta
