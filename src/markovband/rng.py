"""Deterministic Gaussian sampling on counter-based substreams.

Every stochastic operation in the package draws from a Philox generator
keyed by ``(seed, stream)``.  Distinct stream indices give statistically
independent streams from the same user-facing seed, so batches of work can
be sliced into blocks (or farmed out across processes, each opening its own
substream) while producing bit-identical results to a serial run.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "BLOCK_PATHS",
    "substream",
    "substream_rows",
    "standard_normal_matrix",
]

#: Documented default seed for every CLI command and simulation entry point.
DEFAULT_SEED = 1729

#: Rows per substream when filling a matrix block by block.
BLOCK_PATHS = 1 << 16


def substream(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream), reproducible by value."""
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if not 0 <= int(stream) < 2**64:
        raise ValueError(f"stream must be an integer in [0, 2**64), got {stream!r}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def substream_rows(seed: int, start: int, stop: int, cols: int) -> np.ndarray:
    """Rows start..stop-1 of a noise matrix whose row t is drawn from stream t.

    Row t is bitwise ``substream(seed, t).standard_normal(cols)``.  One
    generator is built and rewound to a fresh state keyed ``(seed, t)``
    before each row, which skips the per-stream construction cost.
    """
    if not 0 <= start < stop <= 2**64:
        raise ValueError(
            f"stream range must satisfy 0 <= start < stop <= 2**64, "
            f"got [{start}, {stop})"
        )
    gen = substream(seed, start)
    bitgen = gen.bit_generator
    fresh = bitgen.state  # counter 0, empty buffer, key (seed, start)
    key = fresh["state"]["key"]
    out = np.empty((stop - start, cols))
    for row, stream in zip(out, range(start, stop)):
        key[1] = stream
        bitgen.state = fresh
        gen.standard_normal(out=row)
    return out


def standard_normal_matrix(seed: int, rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) standard normal matrix, filled in substream blocks.

    Row block b (of height ``BLOCK_PATHS``) comes from ``substream(seed, b)``,
    so the output for given (seed, rows, cols) is a pure function of its
    arguments regardless of how the blocks are scheduled.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix shape must be positive, got ({rows}, {cols})")
    out = np.empty((rows, cols))
    for block, start in enumerate(range(0, rows, BLOCK_PATHS)):
        height = min(BLOCK_PATHS, rows - start)
        out[start : start + height] = substream(seed, block).standard_normal(
            (height, cols)
        )
    return out
