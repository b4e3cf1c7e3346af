"""Seeded random sources for the replication loop.

Streams are counter-based (Philox): a stream is addressed by ``(seed, stream)``
and reproduces the same draws bit-for-bit on any machine and with any worker
count.  The harness assigns one stream per *block* of ``BLOCK_SIZE``
replications; replication ``k`` lives at row ``k % BLOCK_SIZE`` of block
``k // BLOCK_SIZE``.  Because every block always generates its full, fixed
draw layout (any unused rows are discarded), per-replication values do not
depend on how a run is split across workers or partial ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Replications per stream in the harness.  Fixed: changing it changes which
# draws a given replication sees and therefore the bit-exact output.
BLOCK_SIZE = 4096


@dataclass(frozen=True)
class RngStream:
    """Address of an independent random stream.

    Distinct ``stream`` values index disjoint counter blocks of a single
    Philox keyed by ``seed``, so they never overlap and are statistically
    independent.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        bitgen = np.random.Philox(key=self.seed % (1 << 128),
                                  counter=[0, 0, self.stream % (1 << 64), 0])
        return np.random.Generator(bitgen)


def block_stream(seed: int, block: int) -> RngStream:
    """Stream for replication block ``block`` of a run seeded with ``seed``."""
    return RngStream(seed=seed, stream=block)


def sphere_matrix(gen: np.random.Generator, m: int, d: int) -> np.ndarray:
    """``m`` points uniform on the unit sphere of R^d (normalized Gaussians)."""
    if d < 1:
        raise ValidationError("sphere dimension must be >= 1")
    v = gen.standard_normal((m, d))
    norms = np.linalg.norm(v, axis=1)
    # an all-zero draw has probability zero but would poison the normalization
    bad = norms == 0.0
    while np.any(bad):
        v[bad] = gen.standard_normal((int(bad.sum()), d))
        norms[bad] = np.linalg.norm(v[bad], axis=1)
        bad = norms == 0.0
    return v / norms[:, None]


def stratified_indices(gen: np.random.Generator, m: int,
                       weights: np.ndarray) -> np.ndarray:
    """``m`` categorical draws with probabilities ``weights / weights.sum()``."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValidationError("stratification weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0.0:
        raise ValidationError(
            "stratification weights sum to zero: threshold too extreme for "
            "float marginal tails")
    cum = np.cumsum(w / total)
    cum[-1] = 1.0
    return np.searchsorted(cum, gen.random(m), side="right").astype(np.intp)


def beta_symmetric(gen: np.random.Generator, a: float, b: float,
                   m: int) -> np.ndarray:
    """``m`` draws of 2*Beta(a, b) - 1, the sphere-component IS law on (-1, 1)."""
    if a <= 0 or b <= 0:
        raise ValidationError("Beta shape parameters must be positive")
    return 2.0 * gen.beta(a, b, size=m) - 1.0


def assemble_sphere_with_driver(theta_j: np.ndarray,
                                rest: np.ndarray) -> np.ndarray:
    """Sphere points with the driver coordinate (slot 0) pinned to ``theta_j``.

    ``theta_j``: (m,), ``rest``: (m, d-1) unit rows.  Returns (m, d) unit rows
    with slot 0 equal to ``theta_j``.  For ``rest`` uniform on the sphere of
    R^(d-1), the remaining coordinates follow the true conditional law of a
    uniform sphere point given its first coordinate: sqrt(1 - theta_j^2)
    times a uniform direction on the sphere of R^(d-1).
    """
    m = theta_j.shape[0]
    out = np.empty((m, rest.shape[1] + 1))
    out[:, 0] = theta_j
    out[:, 1:] = np.sqrt(1.0 - theta_j * theta_j)[:, None] * rest
    return out
