import numpy as np
import pytest

from markovband.rng import stream_filler, substream


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
