import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovband.rng import (
    BLOCK_PATHS,
    standard_normal_matrix,
    stream_filler,
    substream,
)


@pytest.mark.parametrize("seed, start, stop, cols", [
    (0, 0, 5, 7),
    (2**64 - 1, 3, 40, 61),
    (1729, 1000, 1001, 1),
    (5, 2**64 - 3, 2**64, 4),
])
def test_filled_column_slice_rows_are_the_per_stream_draws_bitwise(
    seed, start, stop, cols
):
    # rows of m[:, 1:], filled one stream each, as run_calibration fills them
    m = np.zeros((stop - start, 1 + cols))
    fill = stream_filler(seed)
    for stream, row in zip(range(start, stop), m[:, 1:]):
        fill(stream, row)
    expect = np.array([substream(seed, t).standard_normal(cols)
                       for t in range(start, stop)])
    assert not m[:, 0].any()
    assert m[:, 1:].tobytes() == expect.tobytes()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_stream_filler_refuses_a_seed_out_of_range(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        stream_filler(seed)


@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    cols=st.integers(1, 16),
    cuts=st.lists(st.integers(0, BLOCK_PATHS), max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_a_block_drawn_in_pieces_is_the_one_call_draw_bitwise(seed, stream, cols, cuts):
    # the pieces in order from one generator, as cost._column_sums draws a block
    block = np.empty((BLOCK_PATHS, cols))
    edges = [0, *sorted(cuts), BLOCK_PATHS]
    draw = substream(seed, stream).standard_normal
    for start, stop in zip(edges, edges[1:]):
        draw(out=block[start:stop])
    expect = substream(seed, stream).standard_normal((BLOCK_PATHS, cols))
    assert block.tobytes() == expect.tobytes()


@pytest.mark.parametrize("seed", [0, 1729])
def test_standard_normal_matrix_draws_row_block_b_from_stream_b_bitwise(seed):
    cols = 3
    m = standard_normal_matrix(seed, BLOCK_PATHS + 3, cols)
    first = substream(seed, 0).standard_normal((BLOCK_PATHS, cols))
    rest = substream(seed, 1).standard_normal((3, cols))
    assert m[:BLOCK_PATHS].tobytes() == first.tobytes()
    assert m[BLOCK_PATHS:].tobytes() == rest.tobytes()
