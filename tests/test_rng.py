import numpy as np
import pytest

from markovband.rng import substream, substream_rows


@pytest.mark.parametrize("seed, start, stop, cols", [
    (0, 0, 5, 7),
    (2**64 - 1, 3, 40, 61),
    (1729, 1000, 1001, 1),
    (5, 2**64 - 3, 2**64, 4),
])
def test_substream_rows_are_the_per_stream_draws_bitwise(seed, start, stop, cols):
    rows = substream_rows(seed, start, stop, cols)
    expect = np.array([substream(seed, t).standard_normal(cols)
                       for t in range(start, stop)])
    assert rows.shape == (stop - start, cols)
    assert rows.tobytes() == expect.tobytes()


@pytest.mark.parametrize("seed, start, stop", [
    (-1, 0, 1), (2**64, 0, 1), (0, -1, 1), (0, 3, 3), (0, 0, 2**64 + 1),
])
def test_substream_rows_validation(seed, start, stop):
    with pytest.raises(ValueError):
        substream_rows(seed, start, stop, 4)
