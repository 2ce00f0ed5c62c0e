"""The bulk transport's vectorized contention gate equals the per-row loop.

``_contention_gate`` replaces a loop that walked a sealed batch in row
order, keeping one busy horizon per grid cell (it still walks batches
of up to ``_GATE_LOOP_ROWS`` rows, so the property runs once with that
bound at 0 to hold the vectorized pass to the loop). The property
compares the two on drawn batches: the contended flags, and the
horizons left behind (compared by ``repr``, so the floats must be the
very same).
Instants come from a small grid as well as from a continuous range, so
ties between key-ups, airtime ends and carried horizons are common.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import fluid
from repro.net.fluid import _contention_gate

GRID = (0.0, 0.001, 0.002, 0.003)
instants = st.one_of(
    st.sampled_from(GRID),
    st.floats(min_value=0.0, max_value=0.004, allow_nan=False),
)
airtimes = st.sampled_from((0.0, 0.0005, 0.001, 0.002))


def _loop(cells, keyup, end, busy):
    """The per-row gate the vectorized one replaced."""
    contended = [False] * len(cells)
    for position, cell in enumerate(cells):
        horizon = busy[cell]
        if keyup[position] < horizon:
            contended[position] = True
        if end[position] > horizon:
            busy[cell] = end[position]
    return contended


@st.composite
def gate_runs(draw):
    """Cell horizons carried into the first batch, then 1-3 batches of
    (cell, key-up, airtime) rows, in one cell or interleaved."""
    cells = draw(st.integers(min_value=1, max_value=4))
    busy = draw(
        st.lists(
            st.one_of(st.just(-1.0), instants), min_size=cells, max_size=cells
        )
    )
    row = st.tuples(st.integers(0, cells - 1), instants, airtimes)
    batches = draw(st.lists(st.lists(row, max_size=12), min_size=1, max_size=3))
    return busy, batches


#: Two interleaved cells, then a second batch on the horizon they left.
CARRIED = [[(0, 0.0, 0.002), (1, 0.001, 0.0), (0, 0.001, 0.0)], [(0, 0.0, 0.0)]]


@given(gate_runs())
@example(([-1.0, -1.0], CARRIED))
@example(([-1.0, 0.002], [[]]))  # an empty batch
@example(([0.001], [[(0, 0.001, 0.0), (0, 0.001, 0.001), (0, 0.002, 0.0)]]))
@settings(max_examples=300, deadline=None)
@pytest.mark.parametrize("loop_rows", [0, fluid._GATE_LOOP_ROWS])
def test_vectorized_gate_equals_the_row_loop(loop_rows, run):
    initial, batches = run
    busy, expected_busy = list(initial), list(initial)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fluid, "_GATE_LOOP_ROWS", loop_rows)
        for batch in batches:
            cells = [cell for cell, _, _ in batch]
            keyup = np.array([at for _, at, _ in batch], dtype=np.float64)
            end = keyup + np.array(
                [airtime for _, _, airtime in batch], dtype=np.float64
            )
            expected = _loop(cells, keyup.tolist(), end.tolist(), expected_busy)
            got = _contention_gate(np.array(cells, dtype=np.int64), keyup, end, busy)
            assert got.dtype == bool and got.tolist() == expected
            assert repr(busy) == repr(expected_busy)
