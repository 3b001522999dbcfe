"""Z-slab parallelism for one huge field.

A single field too large (or too urgent) for one serial pass is split
into contiguous z-slabs, and each slab is one more feeder of the fold
:class:`repro.core.streaming.StreamingChecker` already is: a worker
builds a checker whose cursor starts at its slab's ``z0``, calls
``prime`` on the ``halo = max(window - 1, max_lag)`` slices before the
slab (ring and carry advance, no accumulator moves), ``update`` on the
slab, and returns ``state_dict(halo=False)`` — a few hundred bytes.
The driver merges the states in z order (``merge_state``, the
associative grid-level reduce) and finalises once.

Ownership: a lag pair or an SSIM window belongs to the slab holding its
**last** slice — what ``update`` does for any chunk — so every pair and
window is counted exactly once (the integer registers equal an
uninterrupted stream's exactly, the sums to FP tolerance; both
property-tested).

A worker converts only its slab and halo to float64, in **one**
``update`` call: per-slice feeding would issue one threaded BLAS ``ddot``
per slice per worker and oversubscribe the cores.  The process executor
ships a slab as a :class:`SharedField` handle plus two integers.  Serial,
thread and process execution run this identical per-slab code in the
identical order at the same slab count, so their merged results are
*bit-identical* (property-tested) — which is also why pool workers keep
the driver's BLAS thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.streaming import StreamingChecker, StreamingResult
from repro.errors import ShapeError
from repro.kernels.pattern3 import Pattern3Config

__all__ = ["z_chunks", "parallel_stream_field"]


def z_chunks(nz: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``nz`` slices into up to ``n_chunks`` balanced ``[z0, z1)`` slabs."""
    if nz < 1:
        raise ShapeError(f"nz must be >= 1, got {nz}")
    n_chunks = max(1, min(n_chunks, nz))
    base, rem = divmod(nz, n_chunks)
    out = []
    z0 = 0
    for i in range(n_chunks):
        z1 = z0 + base + (1 if i < rem else 0)
        out.append((z0, z1))
        z0 = z1
    return out


def _slab_state(orig, dec, z0, z1, max_lag, ssim, pwr_floor) -> dict:
    """Mergeable state of slab ``[z0, z1)`` of the whole fields."""
    checker = StreamingChecker(
        orig.shape[1:], max_lag=max_lag, ssim=ssim, pwr_floor=pwr_floor, z0=z0
    )
    lo = max(0, z0 - checker.halo)
    if lo < z0:
        checker.prime(lo, orig[lo:z0], dec[lo:z0])
    checker.update(orig[z0:z1], dec[z0:z1])
    return checker.state_dict(halo=False)


def _slab_job(orig_handle, dec_handle, *slab):
    """Process-worker job: attach to the published field, do one slab."""
    try:
        return _slab_state(orig_handle.attach(), dec_handle.attach(), *slab)
    finally:
        orig_handle.close()
        dec_handle.close()


def _process_slab_states(orig, dec, slabs, args, workers):
    """Fan slabs over the spawn pool; both fields published exactly once."""
    from repro.parallel.executor import _get_pool
    from repro.parallel.shm import shared_fields

    pool = _get_pool(workers)
    with shared_fields([orig, dec]) as (orig_handle, dec_handle):
        futures = [
            pool.submit(_slab_job, orig_handle, dec_handle, z0, z1, *args)
            for z0, z1 in slabs
        ]
        return [fut.result() for fut in futures]


def parallel_stream_field(
    orig: np.ndarray,
    dec: np.ndarray,
    max_lag: int = 10,
    ssim: Pattern3Config | None = None,
    pwr_floor: float = 0.0,
    workers: int | None = None,
    executor: str | None = None,
) -> StreamingResult:
    """Assess one huge field by fanning z-slabs across a worker pool.

    The parallel counterpart of driving one
    :class:`~repro.core.streaming.StreamingChecker` over the whole field:
    same fold, one checker per slab, merged associatively.  Like
    streaming, SSIM needs an explicit ``dynamic_range`` (a slab cannot
    know the global range).

    ``executor`` selects the pool kind (``"thread"`` default,
    ``"process"`` for shared-memory worker processes, ``"serial"`` for an
    in-process slab loop — the bit-identical reference for the parallel
    modes at the same ``workers`` count).
    """
    from repro.parallel.executor import auto_workers, resolve_executor

    orig = np.asarray(orig)
    dec = np.asarray(dec)
    if orig.shape != dec.shape:
        raise ShapeError(f"shape mismatch: {orig.shape} vs {dec.shape}")
    if orig.ndim != 3:
        raise ShapeError(f"parallel_stream_field expects 3-D fields, got {orig.shape}")
    # the fold every slab merges into; building it validates the request
    merged = StreamingChecker(
        orig.shape[1:], max_lag=max_lag, ssim=ssim, pwr_floor=pwr_floor
    )
    args = (max_lag, ssim, pwr_floor)

    nz = orig.shape[0]
    executor = resolve_executor(executor)
    workers = workers or auto_workers(
        nz, executor=executor, task_nbytes=orig.nbytes + dec.nbytes
    )
    slabs = z_chunks(nz, workers)

    def run(slab):
        return _slab_state(orig, dec, *slab, *args)

    if len(slabs) == 1 or executor == "serial":
        states = [run(s) for s in slabs]
    elif executor == "process":
        states = _process_slab_states(orig, dec, slabs, args, workers)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            states = list(pool.map(run, slabs))

    for state in states:
        merged.merge_state(state)
    result = merged.finalize()
    result.pattern1.extras["parallel_slabs"] = len(slabs)
    return result
