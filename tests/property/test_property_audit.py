"""The resumable audit's crash contract, property-tested: killing the
run after *any* chunk and resuming from the checkpoint must produce a
report byte-for-byte equal to an uninterrupted run.  The kill point is
drawn by hypothesis; ``stop_after_chunks`` stands in for the SIGKILL
(the checkpoint on disk is exactly what a kill would leave, because it
is written *before* the interrupt fires — the real-signal version runs
in CI via ``tools/audit_smoke.py``).
"""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.audit import AuditInterrupted, AuditResumeError, run_audit
from repro.audit.checkpoint import PART_GLOB, AuditCheckpoint, parts_dir_for
from repro.config.schema import CheckerConfig
from repro.core.streaming import StreamingChecker
from repro.datasets.fields import Dataset, Field
from repro.errors import CheckerError
from repro.io.bundle import ChunkedFieldWriter, save_bundle_chunked
from repro.kernels.pattern3 import Pattern3Config
from repro.parallel import process_available
from repro.service.session import CheckerSession
from repro.telemetry.tracer import Tracer
from tests.property.test_property_streamed_ssim import _chunkings

SETTINGS = settings(max_examples=8, deadline=None)

#: 2 fields x 4 chunks + 1 field x 4 chunks = 12 chunks in the tree
TOTAL_CHUNKS = 12


def _tree(root):
    rng = np.random.default_rng(7)
    a = Dataset(name="alpha")
    for name in ("u", "v"):
        a.add(Field(name, rng.normal(5.0, 2.0, size=(10, 12, 12)).astype(np.float32)))
    save_bundle_chunked(a, root / "alpha", chunk_nz=3)
    b = Dataset(name="beta")
    b.add(Field("w", rng.normal(0.0, 1.0, size=(10, 12, 12)).astype(np.float32)))
    save_bundle_chunked(b, root / "nested" / "beta", chunk_nz=3)
    return root


@pytest.fixture(scope="module")
def audit_tree(tmp_path_factory):
    root = _tree(tmp_path_factory.mktemp("audit_tree"))
    ref = root / "reference.json"
    run_audit(root, out_path=ref, checkpoint_path=root / "ck_ref.json")
    return root, ref.read_bytes()


@SETTINGS
@given(kill_after=st.integers(min_value=1, max_value=TOTAL_CHUNKS - 1))
def test_kill_resume_report_byte_identical(audit_tree, kill_after):
    root, ref_bytes = audit_tree
    out = root / f"report_k{kill_after}.json"
    ck = root / f"ck_k{kill_after}.json"
    with pytest.raises(AuditInterrupted) as exc:
        run_audit(root, out_path=out, checkpoint_path=ck,
                  stop_after_chunks=kill_after)
    assert exc.value.chunks_processed == kill_after
    assert ck.exists()
    assert not out.exists()

    run_audit(root, out_path=out, checkpoint_path=ck)
    assert out.read_bytes() == ref_bytes
    assert not ck.exists()  # consumed on success


@SETTINGS
@given(kill_points=st.lists(
    st.integers(min_value=1, max_value=3), min_size=1, max_size=4,
))
def test_repeated_kills_still_converge(audit_tree, kill_points):
    """A run killed several times (each resume killed again after a few
    more chunks) still lands on the reference report."""
    root, ref_bytes = audit_tree
    out = root / "report_multi.json"
    ck = root / "ck_multi.json"
    ck.unlink(missing_ok=True)
    for step in kill_points:
        try:
            run_audit(root, out_path=out, checkpoint_path=ck,
                      stop_after_chunks=step)
        except AuditInterrupted:
            continue
        break
    run_audit(root, out_path=out, checkpoint_path=ck)
    assert out.read_bytes() == ref_bytes


def test_resume_rejects_changed_configuration(audit_tree):
    root, _ = audit_tree
    out = root / "report_cfg.json"
    ck = root / "ck_cfg.json"
    with pytest.raises(AuditInterrupted):
        run_audit(root, out_path=out, checkpoint_path=ck, stop_after_chunks=2)
    with pytest.raises(CheckerError, match="fresh"):
        run_audit(root, out_path=out, checkpoint_path=ck, chunk_nz=5)
    # --fresh semantics: resume=False discards the stale checkpoint
    run_audit(root, out_path=out, checkpoint_path=ck, chunk_nz=5, resume=False)
    assert out.exists()


# ---------------------------------------------------------------------------
# parallel audit: same contract, two worker processes
# ---------------------------------------------------------------------------

needs_processes = pytest.mark.skipif(
    not process_available(),
    reason="process pools unavailable on this host",
)

#: pool spawns are the dominant cost — few, deliberately chosen examples
PARALLEL_SETTINGS = settings(max_examples=3, deadline=None)


@needs_processes
def test_parallel_report_byte_identical_to_serial(audit_tree):
    """Worker count is invisible in the output: a two-worker audit of
    the tree produces the byte-for-byte serial report."""
    root, ref_bytes = audit_tree
    out = root / "report_par.json"
    run_audit(root, out_path=out, checkpoint_path=root / "ck_par.json",
              workers=2)
    assert out.read_bytes() == ref_bytes


@needs_processes
@PARALLEL_SETTINGS
@given(
    kill_after=st.integers(min_value=1, max_value=3),
    resume_workers=st.sampled_from(["serial", 2]),
)
def test_kill_mid_parallel_run_resumes_byte_identical(
    audit_tree, kill_after, resume_workers
):
    """Killing a *parallel* run (per-worker ``stop_after_chunks`` — the
    checkpoint plus worker part files on disk are exactly what a SIGKILL
    leaves) and resuming — serially or with workers again — lands on the
    reference bytes.  The serial-resume leg proves worker part files are
    readable by the plain loop, i.e. the two paths share one on-disk
    contract."""
    root, ref_bytes = audit_tree
    out = root / "report_park.json"
    ck = root / "ck_park.json"
    ck.unlink(missing_ok=True)
    out.unlink(missing_ok=True)
    with pytest.raises(AuditInterrupted):
        run_audit(root, out_path=out, checkpoint_path=ck, workers=2,
                  stop_after_chunks=kill_after)
    assert ck.exists()
    assert not out.exists()

    run_audit(root, out_path=out, checkpoint_path=ck, workers=resume_workers)
    assert out.read_bytes() == ref_bytes
    assert not ck.exists()
    assert not ck.with_name(ck.name + ".parts").exists()


@needs_processes
def test_kill_serial_run_resumes_parallel(audit_tree):
    root, ref_bytes = audit_tree
    out = root / "report_serk.json"
    ck = root / "ck_serk.json"
    with pytest.raises(AuditInterrupted):
        run_audit(root, out_path=out, checkpoint_path=ck, workers="serial",
                  stop_after_chunks=5)
    run_audit(root, out_path=out, checkpoint_path=ck, workers=2)
    assert out.read_bytes() == ref_bytes


# ---------------------------------------------------------------------------
# light checkpoints: the halo (SSIM ring + autocorrelation carry) is not
# persisted but re-derived from the chunks under it
# ---------------------------------------------------------------------------

LIGHT_SETTINGS = settings(max_examples=30, deadline=None)

#: the audited fields' depth — deep enough for an 8-window halo to span
#: three 3-slice chunks and for a stop to land before, inside and after it
NZ = 18


@st.composite
def light_cases(draw):
    window = draw(st.sampled_from([2, 3, 5, 8]))
    step = draw(st.integers(1, 3))
    max_lag = draw(st.integers(0, 6))
    cuts = draw(st.lists(st.integers(1, NZ - 1), unique=True, min_size=2, max_size=6))
    edges = [0, *sorted(cuts), NZ]
    ragged = [b - a for a, b in zip(edges, edges[1:])]
    name = draw(st.sampled_from([1, 3, window - 1, window, window + 1, "ragged"]))
    depths = _chunkings(NZ, window, ragged)[name]
    codec = draw(st.sampled_from(["sz", "zfp", "decimate"]))
    # the factor-2 decimator refuses chunks under three slices
    assume(codec != "decimate" or min(depths) >= 3)
    seed = draw(st.integers(0, 2**16))
    # chunks processed before the kill, counted across both fields
    stop = draw(st.integers(1, 2 * len(depths) - 1))
    return window, step, max_lag, depths, codec, seed, stop


def _halo_chunks(depths, chunks_done, halo):
    """How many of the first ``chunks_done`` chunks cover the ``halo``
    slices before the cursor (the resume's re-read bound)."""
    z = sum(depths[:chunks_done])
    starts = np.cumsum([0, *depths])[:chunks_done]
    return int((starts + np.asarray(depths[:chunks_done]) > z - halo).sum()) if halo else 0


def _ragged_tree(root, depths, seed):
    """One v2 bundle, two fields, chunked by ``depths`` (any depths — the
    manifest's chunk table is what the audit streams)."""
    rng = np.random.default_rng(seed)
    shape = (NZ, 11, 13)
    (root / "b").mkdir(parents=True)
    manifest = {
        "name": "b", "shape": list(shape), "fields": ["p", "q"],
        "format": "chunked-v2", "dtype": "float32", "endian": "little",
        "chunk_nz": max(depths), "chunks": {}, "file_sha256": {}, "stats": {},
    }
    for name in manifest["fields"]:
        data = rng.normal(3.0, 2.0, size=shape).astype(np.float32)
        writer = ChunkedFieldWriter(root / "b", name, shape)
        for z0, depth in zip(np.cumsum([0, *depths]), depths):
            writer.append(data[z0 : z0 + depth])
        entry = writer.close()
        manifest["chunks"][name] = entry["chunks"]
        manifest["file_sha256"][name] = entry["sha256"]
        manifest["stats"][name] = [entry["min"], entry["max"]]
    (root / "b" / "manifest.json").write_text(json.dumps(manifest))
    return root


def _light_session(window, step):
    config = CheckerConfig(
        pattern3=Pattern3Config(window=window, step=step, yrows=max(12, window))
    )
    return CheckerSession(config=config).open()


def _light_kwargs(codec, max_lag):
    return {"codec": codec, "max_lag": max_lag,
            "codec_args": {"rate": 8.0} if codec == "zfp" else None}


@LIGHT_SETTINGS
@given(case=light_cases())
@example(case=(8, 1, 3, [3] * 6, "decimate", 1, 4))  # halo of 7 over three chunks
@example(case=(8, 1, 6, [1] * 18, "sz", 2, 27))  # ... over seven, second field
@example(case=(5, 2, 2, [3] * 6, "zfp", 3, 1))  # stop inside the first halo slices
@example(case=(3, 1, 0, [4, 4, 4, 4, 2], "sz", 4, 5))  # stop on the field boundary
def test_light_checkpoint_resume_is_byte_identical(tmp_path_factory, case):
    """Whatever the chunking, window, lag count, codec and stop point —
    before the first ``halo`` slices (the whole prefix is replayed),
    inside a halo spanning three or more chunks, after it — the resumed
    report equals the uninterrupted one, the checkpoint stays tiny, and
    the resume replays exactly the chunks under the halo."""
    window, step, max_lag, depths, codec, seed, stop = case
    tmp = tmp_path_factory.mktemp("light")
    root = _ragged_tree(tmp / "tree", depths, seed)
    kwargs = _light_kwargs(codec, max_lag)
    session = _light_session(window, step)
    try:
        ref = tmp / "ref.json"
        run_audit(root, out_path=ref, checkpoint_path=tmp / "ck_ref.json",
                  workers="serial", session=session, **kwargs)

        out, ck = tmp / "out.json", tmp / "ck.json"
        with pytest.raises(AuditInterrupted):
            run_audit(root, out_path=out, checkpoint_path=ck, workers="serial",
                      session=session, stop_after_chunks=stop, **kwargs)
        assert ck.stat().st_size < 65536
        record = AuditCheckpoint(ck).load()["in_progress"]
        halo = max(window - 1, max_lag)
        expect = 0
        if record is not None:  # None: the stop fell on a field boundary
            stream = record["stream"]
            assert "fifo" not in stream["ssim"]
            assert "carry" not in stream["acc"]["arrays"]
            expect = _halo_chunks(depths, record["chunks_done"], halo)
            assert len(record["halo_crc"]) == expect

        events, tracer = [], Tracer()
        run_audit(root, out_path=out, checkpoint_path=ck, workers="serial",
                  session=session, tracer=tracer, **kwargs,
                  progress=lambda event, payload: events.append((event, payload)))
        assert events[0][0] == "resume"
        assert events[0][1].get("primed_chunks", 0) == expect
        primes = [s for s in tracer.spans if s.name == "halo_prime"]
        assert len(primes) == expect
        assert all(s.category == "chunk" and s.bytes > 0 and "z0" in s.attrs for s in primes)
        assert out.read_bytes() == ref.read_bytes()
    finally:
        session.close(wait=True)


@pytest.mark.parametrize(
    "window, max_lag, depths, stop",
    [
        (8, 3, [1] * NZ, 5),  # seven 1-slice chunks until the CRC run spans the halo
        (8, 3, [3] * 6, 2),  # ... three chunks; the field ends before it does
        (3, 9, [2] * 9, 6),  # the carry outlasts the ring: zeros would go unnoticed
        (5, 0, [3] * 6, 8),  # second field, halo one slice longer than a chunk
    ],
)
def test_full_state_checkpoint_survives_a_kill_after_every_chunk(
    tmp_path, monkeypatch, window, max_lag, depths, stop
):
    """A full-state record (no ``halo_crc``: what every writer before the
    light checkpoints left) resumed and killed again one chunk later, over
    and over: the CRC run restarts empty, so records stay full-state until
    it spans the halo — never a light record that primes too few slices."""
    root = _ragged_tree(tmp_path / "tree", depths, seed=11)
    kwargs = _light_kwargs("sz", max_lag)
    session = _light_session(window, 1)
    halo = max(window - 1, max_lag)
    try:
        ref = tmp_path / "ref.json"
        run_audit(root, out_path=ref, checkpoint_path=tmp_path / "ck_ref.json",
                  workers="serial", session=session, **kwargs)

        out, ck = tmp_path / "out.json", AuditCheckpoint(tmp_path / "ck.json")
        with monkeypatch.context() as legacy:
            full = StreamingChecker.state_dict
            legacy.setattr(StreamingChecker, "state_dict", lambda self, halo=True: full(self))
            with pytest.raises(AuditInterrupted):
                run_audit(root, out_path=out, checkpoint_path=ck.path, workers="serial",
                          session=session, stop_after_chunks=stop, **kwargs)
        doc = ck.load()
        del doc["format"], doc["in_progress"]["halo_crc"]
        ck.save(doc)
        resumed_at = doc["in_progress"]["chunks_done"]

        kinds = []
        while not out.exists():
            try:
                run_audit(root, out_path=out, checkpoint_path=ck.path, workers="serial",
                          session=session, stop_after_chunks=1, **kwargs)
            except AuditInterrupted:
                record = ck.load()["in_progress"]
                if record is None or record["chunks_done"] <= resumed_at:
                    resumed_at = 0  # next field: light from its first chunk
                    continue
                light = "halo_crc" in record
                assert light == ("fifo" not in record["stream"]["ssim"])
                if light:
                    first = record["chunks_done"] - len(record["halo_crc"])
                    assert first == 0 or sum(depths[first : record["chunks_done"]]) >= halo
                kinds.append(light)
        assert kinds[:1] == [False] and kinds == sorted(kinds)  # full ... then light
        assert out.read_bytes() == ref.read_bytes()
    finally:
        session.close(wait=True)


def test_light_record_with_too_few_chunks_is_a_typed_error(tmp_path):
    """A light record whose CRC run stops short of the halo (what the
    first light writer could leave after a full-state resume) is refused,
    not primed into an under-filled ring."""
    depths = [1] * NZ
    root = _ragged_tree(tmp_path / "tree", depths, seed=5)
    kwargs = _light_kwargs("sz", 3)
    session = _light_session(8, 1)
    try:
        out, ck = tmp_path / "out.json", AuditCheckpoint(tmp_path / "ck.json")
        with pytest.raises(AuditInterrupted):
            run_audit(root, out_path=out, checkpoint_path=ck.path, workers="serial",
                      session=session, stop_after_chunks=12, **kwargs)
        doc = ck.load()
        del doc["format"], doc["in_progress"]["halo_crc"][:-2]
        ck.save(doc)
        with pytest.raises(AuditResumeError, match="too few chunks.*--fresh"):
            run_audit(root, out_path=out, checkpoint_path=ck.path, workers="serial",
                      session=session, **kwargs)
        assert not out.exists() and ck.path.exists()
    finally:
        session.close(wait=True)


@needs_processes
@PARALLEL_SETTINGS
@given(case=light_cases(),
       direction=st.sampled_from([("serial", 2), (2, "serial")]))
@example(case=(8, 1, 3, [3] * 6, "decimate", 1, 4), direction=("serial", 2))
@example(case=(8, 1, 6, [1] * 18, "sz", 2, 9), direction=(2, "serial"))
def test_light_checkpoint_resume_across_worker_counts(
    tmp_path_factory, case, direction
):
    """serial → 2 workers and 2 workers → serial: parts, ``in_flight`` and
    ``in_progress`` all carry the same light record."""
    window, step, max_lag, depths, codec, seed, stop = case
    kill_workers, resume_workers = direction
    stop = min(stop, len(depths) - 1)  # a 2-worker kill counts per worker
    tmp = tmp_path_factory.mktemp("lightpar")
    root = _ragged_tree(tmp / "tree", depths, seed)
    kwargs = _light_kwargs(codec, max_lag)
    session = _light_session(window, step)
    try:
        ref = tmp / "ref.json"
        run_audit(root, out_path=ref, checkpoint_path=tmp / "ck_ref.json",
                  workers="serial", session=session, **kwargs)
        out, ck = tmp / "out.json", tmp / "ck.json"
        with pytest.raises(AuditInterrupted):
            run_audit(root, out_path=out, checkpoint_path=ck, session=session,
                      workers=kill_workers, stop_after_chunks=stop, **kwargs)
        sizes = [p.stat().st_size for p in [ck, *parts_dir_for(ck).glob(PART_GLOB)]]
        assert max(sizes) < 65536
        run_audit(root, out_path=out, checkpoint_path=ck, session=session,
                  workers=resume_workers, **kwargs)
        assert out.read_bytes() == ref.read_bytes()
        assert not ck.exists() and not parts_dir_for(ck).exists()
    finally:
        session.close(wait=True)


def _same_state(got, want):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _same_state(got[key], want[key])
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    else:
        assert type(got) is type(want) and got == want


@LIGHT_SETTINGS
@given(case=light_cases())
@example(case=(8, 1, 3, [3] * 6, "sz", 1, 4))
@example(case=(8, 2, 6, [1] * 18, "sz", 2, 3))
def test_prime_is_update_minus_accumulation(case):
    """``load_state(light)`` + ``prime`` over every chunk so far rebuilds
    the full ``state_dict()`` bit for bit; priming only the chunks under
    the halo leaves one difference — the ring slot the next slice
    overwrites — and the stream finishes on identical values."""
    window, step, max_lag, depths, _, seed, stop = case
    cut = min(stop, len(depths) - 1)  # chunks fed before the snapshot
    rng = np.random.default_rng(seed)
    orig = rng.normal(3.0, 2.0, size=(NZ, 11, 13)).astype(np.float32)
    dec = orig + rng.normal(0.0, 0.05, size=orig.shape).astype(np.float32)
    edges = np.cumsum([0, *depths])
    chunks = [(int(a), orig[a:b], dec[a:b]) for a, b in zip(edges, edges[1:])]

    def fresh():
        ssim = Pattern3Config(window=window, step=step, yrows=max(12, window),
                              dynamic_range=4.0)
        return StreamingChecker((11, 13), max_lag=max_lag, ssim=ssim)

    straight = fresh()
    for _, o, d in chunks[:cut]:
        straight.update(o, d)
    full, light = straight.state_dict(), straight.state_dict(halo=False)
    assert straight.halo == max(window - 1, max_lag)

    replayed = fresh()
    replayed.load_state(light)
    for z0, o, d in chunks[:cut]:
        replayed.prime(z0, o, d)
    _same_state(replayed.state_dict(), full)

    resumed = fresh()
    resumed.load_state(light)
    first = cut - _halo_chunks(depths, cut, straight.halo)
    for z0, o, d in chunks[first:cut]:
        resumed.prime(z0, o, d)
    z = int(edges[cut])
    got = resumed.state_dict()
    dead = z % window if z >= window else None
    live = [k for k in range(window) if k != dead]
    assert np.array_equal(got["ssim"]["fifo"]["buf"][live], full["ssim"]["fifo"]["buf"][live])
    got["ssim"].pop("fifo"), full["ssim"].pop("fifo")
    _same_state(got, full)  # carry included
    for _, o, d in chunks[cut:]:
        straight.update(o, d)
        resumed.update(o, d)
    want, have = straight.finalize(), resumed.finalize()
    assert have.ssim == want.ssim and have.scalars() == want.scalars()
    assert (have.autocorrelation is None) == (want.autocorrelation is None)
    if want.autocorrelation is not None:
        assert have.autocorrelation.tobytes() == want.autocorrelation.tobytes()
