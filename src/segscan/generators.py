"""Synthetic piecewise signals with known change points.

Every generator is driven by ``np.random.default_rng(seed)`` (the PCG64
generator), so one seed pins the breakpoints, the segment parameters and the
noise.  Draws happen in a fixed order: breakpoints first, then segment
parameters, then noise, so outputs are reproducible across runs and machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Breakpoints,
    Signal,
    _checked_int,
    _checked_real,
    validate_breakpoints,
    validate_signal,
)
from .exceptions import SpacingInfeasibleError

_REDRAW_CAP = 10_000


@dataclass(frozen=True)
class GenSpec:
    """Shape of a synthetic instance: size, change count, noise and seed.

    n_samples and n_dims are integers >= 1, n_bkps and seed integers >= 0
    (Python or numpy, stored as int), noise_std a finite number >= 0 (stored
    as float); anything else raises BadParamError.
    """

    n_samples: int
    n_dims: int = 1
    n_bkps: int = 0
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n_samples", 1), ("n_dims", 1), ("n_bkps", 0), ("seed", 0)):
            object.__setattr__(self, name, _checked_int(name, getattr(self, name), minimum))
        object.__setattr__(self, "noise_std", _checked_real("noise_std", self.noise_std))

    @property
    def spacing(self) -> int:
        """Minimum distance kept between change points (and to both edges)."""
        return max(2, self.n_samples // (4 * (self.n_bkps + 1)))


def _draw_ends(rng: np.random.Generator, spec: GenSpec) -> Breakpoints:
    n_samples, n_bkps = spec.n_samples, spec.n_bkps
    if n_bkps == 0:
        return validate_breakpoints((n_samples,), n_samples)
    spacing = spec.spacing
    if (n_bkps + 1) * spacing > n_samples:
        raise SpacingInfeasibleError(
            f"cannot place {n_bkps} change points in {n_samples} samples "
            f"with spacing {spacing}"
        )
    for _ in range(_REDRAW_CAP):
        candidates = np.sort(rng.integers(spacing, n_samples - spacing + 1, size=n_bkps))
        if np.all(np.diff(candidates) >= spacing):
            ends = tuple(int(c) for c in candidates) + (n_samples,)
            return validate_breakpoints(ends, n_samples)
    # dense requests rarely pass the rejection test; this draw always does
    slack = np.sort(rng.integers(0, n_samples - (n_bkps + 1) * spacing + 1, size=n_bkps))
    ends = tuple(int(c) for c in slack + spacing * np.arange(1, n_bkps + 1)) + (n_samples,)
    return validate_breakpoints(ends, n_samples)


def draw_bkps(n_samples: int, n_bkps: int, seed: int = 0) -> Breakpoints:
    """Draw a random admissible segmentation without generating a signal."""
    spec = GenSpec(n_samples=n_samples, n_bkps=n_bkps, seed=seed)
    rng = np.random.default_rng(spec.seed)
    return _draw_ends(rng, spec)


def _add_noise(rng: np.random.Generator, data: np.ndarray, noise_std: float) -> np.ndarray:
    if noise_std > 0.0:
        data = data + rng.normal(0.0, noise_std, size=data.shape)
    return data


def pw_constant(spec: GenSpec) -> tuple[Signal, Breakpoints]:
    """Piecewise constant means with i.i.d. Gaussian noise.

    The first segment sits at 0 in every dimension; each change shifts every
    dimension by a jump of random sign and magnitude uniform in [1, 5].
    """
    rng = np.random.default_rng(spec.seed)
    bkps = _draw_ends(rng, spec)
    levels = np.zeros((bkps.n_bkps + 1, spec.n_dims))
    for k in range(1, bkps.n_bkps + 1):
        signs = np.where(rng.random(spec.n_dims) < 0.5, -1.0, 1.0)
        magnitudes = rng.uniform(1.0, 5.0, size=spec.n_dims)
        levels[k] = levels[k - 1] + signs * magnitudes
    lengths = [end - start for start, end in bkps.segments()]
    data = np.repeat(levels, lengths, axis=0)
    data = _add_noise(rng, data, spec.noise_std)
    return validate_signal(data), bkps


def pw_linear(spec: GenSpec) -> tuple[Signal, Breakpoints]:
    """Piecewise linear trends with i.i.d. Gaussian noise.

    Each segment gets a fresh slope of random sign and magnitude uniform in
    [0.1, 1] per dimension.  At every change a coin decides whether the new
    trend continues from the running value or jumps by a further offset of
    random sign and magnitude uniform in [1, 5].
    """
    rng = np.random.default_rng(spec.seed)
    bkps = _draw_ends(rng, spec)
    n_segments = bkps.n_bkps + 1
    slope_signs = np.where(rng.random((n_segments, spec.n_dims)) < 0.5, -1.0, 1.0)
    slopes = slope_signs * rng.uniform(0.1, 1.0, size=(n_segments, spec.n_dims))
    data = np.empty((spec.n_samples, spec.n_dims))
    base = np.zeros(spec.n_dims)
    for k, (start, end) in enumerate(bkps.segments()):
        steps = np.arange(end - start)[:, None]
        data[start:end] = base + slopes[k] * steps
        base = base + slopes[k] * (end - start)
        if k < bkps.n_bkps and rng.random() < 0.5:
            jump_signs = np.where(rng.random(spec.n_dims) < 0.5, -1.0, 1.0)
            base = base + jump_signs * rng.uniform(1.0, 5.0, size=spec.n_dims)
    data = _add_noise(rng, data, spec.noise_std)
    return validate_signal(data), bkps


def pw_normal(n_samples: int, n_bkps: int, seed: int = 0) -> tuple[Signal, Breakpoints]:
    """Zero-mean 2-d Gaussian noise whose correlation flips at each change.

    Segments alternate between correlation +0.9 and -0.9, starting at +0.9.
    Sampling multiplies standard normal draws by an explicit Cholesky factor,
    which keeps the output identical across BLAS builds.
    """
    spec = GenSpec(n_samples=n_samples, n_dims=2, n_bkps=n_bkps, seed=seed)
    rng = np.random.default_rng(spec.seed)
    bkps = _draw_ends(rng, spec)
    raw = rng.standard_normal((spec.n_samples, 2))
    data = np.empty_like(raw)
    for k, (start, end) in enumerate(bkps.segments()):
        rho = 0.9 if k % 2 == 0 else -0.9
        chol = np.array([[1.0, 0.0], [rho, math.sqrt(1.0 - rho * rho)]])
        data[start:end] = raw[start:end] @ chol.T
    return validate_signal(data), bkps
