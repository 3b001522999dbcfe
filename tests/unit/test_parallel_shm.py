"""SharedField lifecycle: zero-copy publication, ownership, leak-proofing."""

import pickle

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro.errors import CheckerError, ShapeError
from repro.parallel import SharedField, shared_fields, shm_available
from repro.parallel.chunking import _slab_job
from repro.parallel.shm import active_segment_count

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no shared memory"
)


def _segment_exists(name: str) -> bool:
    """Probe /dev/shm by name — the leak detector."""
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


class TestSharedFieldLifecycle:
    def test_round_trip_preserves_bytes(self):
        rng = np.random.default_rng(0)
        array = rng.normal(size=(7, 9, 11)).astype(np.float32)
        with SharedField.create(array) as handle:
            # attach through a *fresh* handle, the way a worker does
            view = SharedField(handle.name, handle.shape, handle.dtype).attach()
            assert view.dtype == array.dtype
            assert view.shape == array.shape
            assert view.tobytes() == array.tobytes()

    def test_attached_view_is_read_only(self):
        with SharedField.create(np.zeros((2, 2, 2), np.float32)) as handle:
            view = handle.attach()
            with pytest.raises(ValueError):
                view[0, 0, 0] = 1.0

    def test_create_copies_noncontiguous_input(self):
        array = np.arange(60, dtype=np.float64).reshape(3, 4, 5)[:, ::2]
        with SharedField.create(array) as handle:
            assert handle.attach().tobytes() == np.ascontiguousarray(array).tobytes()

    def test_handle_pickles_without_array_data(self):
        array = np.zeros((64, 64, 64), np.float32)  # 1 MiB of payload
        with SharedField.create(array) as handle:
            blob = pickle.dumps(handle)
            assert len(blob) < 256  # name/shape/dtype only, never bytes
            clone = pickle.loads(blob)
            assert clone.name == handle.name
            assert clone.shape == handle.shape
            assert clone.dtype == handle.dtype
            assert clone.nbytes == array.nbytes

    def test_unlink_is_owner_only(self):
        with SharedField.create(np.ones(4, np.float32)) as handle:
            attacher = SharedField(handle.name, handle.shape, handle.dtype)
            attacher.attach()
            with pytest.raises(CheckerError):
                attacher.unlink()
            attacher.close()

    def test_destroy_is_idempotent(self):
        handle = SharedField.create(np.ones(4, np.float32))
        handle.destroy()
        handle.destroy()  # already gone — not an error
        assert not _segment_exists(handle.name)


class TestSharedFieldsContext:
    def test_publishes_and_unlinks_all(self):
        arrays = [np.full((3, 3, 3), i, np.float32) for i in range(3)]
        with shared_fields(arrays) as handles:
            names = [h.name for h in handles]
            for array, handle in zip(arrays, handles):
                assert handle.attach().tobytes() == array.tobytes()
            assert all(_segment_exists(n) for n in names)
        assert not any(_segment_exists(n) for n in names)

    def test_no_leak_after_crash(self):
        """A failure mid-batch (worker crash, interrupt) must still unlink."""
        names = []
        with pytest.raises(RuntimeError):
            with shared_fields([np.zeros((4, 4), np.float32)]) as handles:
                names = [h.name for h in handles]
                raise RuntimeError("worker died")
        assert names and not any(_segment_exists(n) for n in names)

    def test_failed_slab_job_unmaps_both_fields(self):
        """A slab that raises must not leave the worker's two mappings
        behind for the life of the pool (run in-process on attach-side
        handles, exactly what a pool worker unpickles)."""
        field = np.zeros((6, 4, 4), np.float32)
        before = active_segment_count()
        with shared_fields([field, field]) as owners:
            workers = [pickle.loads(pickle.dumps(h)) for h in owners]
            with pytest.raises(ShapeError, match="max_lag"):
                # max_lag 4 on 4x4 planes: the checker rejects it
                _slab_job(*workers, 0, 3, 4, None, 0.0)
            assert [h._shm for h in workers] == [None, None]
        assert active_segment_count() == before
