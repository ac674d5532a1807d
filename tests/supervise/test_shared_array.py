"""The grid-as-view refactor: PochoirArray state can migrate between
private memory and shared-memory segments, and pickling a shared array
transfers a descriptor, not the data."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import Kernel, PochoirArray, Stencil, ZeroBoundary


@pytest.fixture()
def arr():
    a = PochoirArray("u", (8, 8)).register_boundary(ZeroBoundary())
    a.set_initial(np.arange(64, dtype=np.float64).reshape(8, 8))
    yield a
    a.unshare()  # idempotent; never leaves segments behind on failure


def test_share_preserves_contents_and_runs_write_the_segment(arr):
    st = Stencil(2)
    st.register_array(arr)
    k = Kernel(2, lambda t, x, y: arr(t + 1, x, y) << arr(t, x, y) + 1.0)
    st.run(1, k)  # a kernel bound to the private buffer
    private = arr.data
    before = private.copy()
    assert not arr.is_shared
    arr.share()
    assert arr.is_shared
    np.testing.assert_array_equal(arr.data, before)
    # The next run binds the segment: it writes there, not into the
    # buffer the array owned when the kernel was first compiled.
    st.run(1, k)
    segment = np.ndarray(
        arr.data.shape, dtype=arr.data.dtype, buffer=arr._shm.buf
    )
    assert not np.array_equal(segment, before)
    np.testing.assert_array_equal(segment, arr.data)
    np.testing.assert_array_equal(private, before)
    del segment


def test_share_is_idempotent(arr):
    arr.share()
    data1 = arr.data
    arr.share()
    assert arr.data is data1


def test_unshare_returns_to_private_memory(arr):
    arr.share()
    arr.data[...] = 7.0
    arr.unshare()
    assert not arr.is_shared
    np.testing.assert_array_equal(arr.data, np.full(arr.data.shape, 7.0))
    # Private again: writable without any segment backing it.
    arr.data[0, 0, 0] = -1.0


def test_unshare_without_share_is_noop(arr):
    data0 = arr.data
    arr.unshare()
    assert arr.data is data0


def test_pickle_of_shared_array_is_zero_copy_descriptor(arr):
    arr.share()
    blob = pickle.dumps(arr)
    # The payload must carry the segment name, not 64 float64s.
    assert len(blob) < arr.data.nbytes

    attached = pickle.loads(blob)
    np.testing.assert_array_equal(attached.data, arr.data)
    # Same physical memory: writes through either view are visible in
    # the other (this is what lets workers execute in place).
    attached.data[0, 3, 3] = 1234.5
    assert arr.data[0, 3, 3] == 1234.5
    assert not attached._shm_owner


def test_pickle_of_private_array_carries_data(arr):
    clone = pickle.loads(pickle.dumps(arr))
    np.testing.assert_array_equal(clone.data, arr.data)
    clone.data[0, 0, 0] = 99.0  # independent copy
    assert arr.data[0, 0, 0] != 99.0
