import math
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gridcast import tensor_nn as tn
from gridcast import trainer
from gridcast.cli import main
from gridcast.movie_store import (
    MAGIC,
    MovieFormatError,
    MovieHeader,
    ingest,
    open_movie,
)


def make_movie(tmp_path, raw, city="Berlin", date="2019-01-02", name="m.tmm"):
    return ingest(np.asarray(raw, dtype=np.uint8), city, date, tmp_path / name)


def test_header_size_matches_layout():
    h = MovieHeader(1, 288, 3, 495, 436, "Berlin", "2019-01-02")
    assert h.size == 4 + 2 + 2 + 4 + 4 + 4 + 2 + 6 + 2 + 10
    assert h.frame_bytes == 3 * 495 * 436


def test_full_scale_zero_movie_size(tmp_path):
    raw = np.zeros((288, 3, 495, 436), dtype=np.uint8)
    path = make_movie(tmp_path, raw)
    header_size = MovieHeader(1, 288, 3, 495, 436, "Berlin", "2019-01-02").size
    assert path.stat().st_size == header_size + 288 * 3 * 495 * 436


def test_minimal_movie_single_byte(tmp_path):
    path = make_movie(tmp_path, np.full((1, 1, 1, 1), 7, dtype=np.uint8), city="x", date="d")
    blob = path.read_bytes()
    header_size = MovieHeader(1, 1, 1, 1, 1, "x", "d").size
    assert blob[:4] == MAGIC
    assert blob[header_size:] == b"\x07"


def test_roundtrip_random(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, size=(4, 3, 8, 8), dtype=np.uint8)
    with open_movie(make_movie(tmp_path, raw)) as m:
        assert np.array_equal(m.read_all(), raw)
        assert m.header.shape == (4, 3, 8, 8)
        assert m.header.city == "Berlin"


def test_ingest_non_contiguous_view(tmp_path):
    raw = np.random.default_rng(2).integers(0, 256, size=(3, 2, 4, 5), dtype=np.uint8)
    view = raw[:, ::-1]
    assert not view.flags.c_contiguous
    a = ingest(view, "c", "d", tmp_path / "view.tmm")
    b = ingest(np.ascontiguousarray(view), "c", "d", tmp_path / "copy.tmm")
    assert a.read_bytes() == b.read_bytes()
    with open_movie(a) as m:
        assert np.array_equal(m.read_frames(0, 3), view)


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.uint8,
        st.tuples(
            st.integers(1, 5), st.integers(1, 3), st.integers(1, 6), st.integers(1, 6)
        ),
    )
)
def test_roundtrip_property(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("movies") / "m.tmm"
    ingest(raw, "c", "d", path)
    with open_movie(path) as m:
        assert np.array_equal(m.read_all(), raw)


def test_ingest_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        ingest(np.zeros((3, 8, 8), dtype=np.uint8), "c", "d", tmp_path / "m.tmm")
    with pytest.raises(ValueError):
        ingest(np.zeros((2, 3, 8, 8), dtype=np.float32), "c", "d", tmp_path / "m.tmm")


def test_open_rejects_bad_magic(tmp_path):
    path = make_movie(tmp_path, np.zeros((2, 1, 2, 2), dtype=np.uint8))
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(MovieFormatError, match="magic"):
        open_movie(path)


def test_open_rejects_truncated_file(tmp_path):
    path = make_movie(tmp_path, np.zeros((2, 1, 2, 2), dtype=np.uint8))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(MovieFormatError, match="size"):
        open_movie(path)


def test_open_rejects_trailing_bytes(tmp_path):
    path = make_movie(tmp_path, np.zeros((2, 1, 2, 2), dtype=np.uint8))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(MovieFormatError, match="size"):
        open_movie(path)


def test_read_frames_whole_movie(tmp_path):
    raw = np.arange(288 * 1 * 2 * 2, dtype=np.uint32).astype(np.uint8).reshape(288, 1, 2, 2)
    with open_movie(make_movie(tmp_path, raw)) as m:
        frames = m.read_frames(0, 288)
        assert not frames.flags.writeable
        assert np.array_equal(frames, raw)


def test_read_frames_locality_accounting(tmp_path):
    rng = np.random.default_rng(1)
    raw = rng.integers(0, 256, size=(288, 3, 4, 5), dtype=np.uint8)
    with open_movie(make_movie(tmp_path, raw)) as m:
        assert m.payload_bytes_read == 0  # header only on open
        frames = m.read_frames(100, 15)
        assert m.payload_bytes_read == 15 * 3 * 4 * 5
        assert np.array_equal(frames, raw[100:115])
        m.read_frames(0, 1)
        assert m.payload_bytes_read == 16 * 3 * 4 * 5


def test_read_frames_and_read_all_return_read_only_views_of_one_day_buffer(tmp_path):
    raw = np.random.default_rng(2).integers(0, 256, size=(20, 3, 5, 7), dtype=np.uint8)
    with open_movie(make_movie(tmp_path, raw)) as m:
        reads = [(m.read_frames(4, 15), raw[4:19]), (m.read_frames(5, 3), raw[5:8]), (m.read_all(), raw)]
        for frames, expected in reads:
            assert frames.flags.c_contiguous and not frames.flags.owndata
            assert not frames.flags.writeable
            assert frames.dtype == np.uint8 and np.array_equal(frames, expected)
            assert type(frames.base) is np.ndarray and frames.base is reads[0][0].base
        day = reads[0][0].base
        assert day.shape == raw.shape and day.dtype == np.uint8
        assert np.shares_memory(reads[0][0], reads[1][0]) and np.shares_memory(reads[0][0], reads[2][0])
        assert m.payload_bytes_read == (15 + 3 + 20) * raw[0].nbytes  # held frames are read again


def test_a_re_read_leaves_earlier_views_equal_to_the_raw_frames(tmp_path):
    raw = np.random.default_rng(4).integers(0, 256, size=(30, 2, 4, 3), dtype=np.uint8)
    with open_movie(make_movie(tmp_path, raw)) as m:
        views = [(t0, m.read_frames(t0, 15)) for t0 in range(16)]
        views.append((0, m.read_all()))
        for t0, frames in views:
            assert np.array_equal(frames, raw[t0 : t0 + len(frames)])


def test_the_day_buffer_is_freed_once_no_view_is_alive(tmp_path):
    raw = np.random.default_rng(5).integers(0, 256, size=(20, 1, 3, 4), dtype=np.uint8)
    with open_movie(make_movie(tmp_path, raw)) as m:
        clip = m.read_frames(2, 15)
        day = weakref.ref(clip.base)
        inputs = clip[:12]
        del clip
        assert day() is not None  # the input view still holds it
        assert m.read_frames(0, 1).base is day()
        del inputs
        assert day() is None
        again = m.read_frames(3, 2)
        assert np.array_equal(again, raw[3:5]) and again.base.shape == raw.shape


def test_two_readers_of_one_file_do_not_share_a_buffer(tmp_path):
    raw = np.random.default_rng(6).integers(0, 256, size=(20, 3, 2, 2), dtype=np.uint8)
    path = make_movie(tmp_path, raw)
    with open_movie(path) as a, open_movie(path) as b:
        fa, fb = a.read_frames(0, 15), b.read_frames(0, 15)
        assert not np.shares_memory(fa, fb)
        assert np.array_equal(fa, raw[:15]) and np.array_equal(fb, raw[:15])


def test_read_frames_from_a_file_truncated_after_open(tmp_path):
    # 256 KiB frames are larger than a default file buffer; a whole 30-byte-frame
    # movie fits in one, so a buffered header read would also have read its payload
    for i, frame_shape in enumerate([(2, 256, 512), (1, 5, 6)]):
        raw = np.random.default_rng(3).integers(0, 256, size=(4, *frame_shape), dtype=np.uint8)
        path = make_movie(tmp_path, raw, name=f"m{i}.tmm")
        frame_bytes = math.prod(frame_shape)
        with open_movie(path) as m:
            with open(path, "r+b") as f:
                f.truncate(m.header.size + frame_bytes + 7)
            first = m.read_frames(0, 1)  # held: the failed reads below write into its day
            assert np.array_equal(first, raw[:1])
            with pytest.raises(MovieFormatError, match="short read"):
                m.read_frames(1, 2)
            assert m.payload_bytes_read == frame_bytes + 7  # the 1st frame, then the 7 bytes left
            with pytest.raises(MovieFormatError, match="short read"):
                m.read_frames(2, 2)
            with pytest.raises(MovieFormatError, match="short read"):
                m.read_all()
            assert m.payload_bytes_read == 2 * frame_bytes + 14
            assert np.array_equal(first, raw[:1])


def test_read_frames_out_of_range(tmp_path):
    raw = np.zeros((288, 1, 2, 2), dtype=np.uint8)
    with open_movie(make_movie(tmp_path, raw)) as m:
        with pytest.raises(ValueError):
            m.read_frames(280, 15)
        with pytest.raises(ValueError):
            m.read_frames(-1, 2)
        with pytest.raises(ValueError):
            m.read_frames(0, 0)


# ---------------------------------------------------------------------------
# malformed files

# Header fields of the movie below ("Berlin", "2019-01-02") as (offset, struct
# format), and the byte ranges of its two strings.
_FIELDS = {
    "version": [(4, "<H")],
    "dims": [(6, "<H"), (8, "<I"), (12, "<I"), (16, "<I")],
    "city_len": [(20, "<H")],
    "date_len": [(28, "<H")],
}
_STRINGS = {"city_bytes": (22, 28), "date_bytes": (30, 40)}
# bytes that never occur in UTF-8
_NOT_UTF8 = [0xC0, 0xC1, *range(0xF5, 0x100)]


def _corrupt(good: bytes, case: str, data) -> bytes:
    draw = data.draw
    if case == "prefix":
        return good[: draw(st.integers(0, len(good) - 1), label="length")]
    if case == "trailing":
        return good + draw(st.binary(min_size=1, max_size=8), label="tail")
    if case == "magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(lambda b: b != MAGIC), label="magic")
        return magic + good[4:]
    if case in _STRINGS:
        lo, hi = _STRINGS[case]
        i = draw(st.integers(lo, hi - 1), label="position")
        return good[:i] + bytes([draw(st.sampled_from(_NOT_UTF8), label="byte")]) + good[i + 1 :]
    off, fmt = draw(st.sampled_from(_FIELDS[case]), label="field")
    size = struct.calcsize(fmt)
    old = struct.unpack_from(fmt, good, off)[0]
    new = draw(st.integers(0, 2 ** (8 * size) - 1).filter(lambda v: v != old), label="value")
    return good[:off] + struct.pack(fmt, new) + good[off + size :]


@pytest.mark.parametrize("case", ["prefix", "trailing", "magic", *_FIELDS, *_STRINGS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corrupt_movie_is_rejected(tmp_path_factory, case, data):
    raw = np.random.default_rng(3).integers(0, 256, size=(3, 2, 4, 5), dtype=np.uint8)
    path = make_movie(tmp_path_factory.mktemp("fuzz"), raw)
    path.write_bytes(_corrupt(path.read_bytes(), case, data))
    with pytest.raises(MovieFormatError):
        open_movie(path).close()


# ---------------------------------------------------------------------------
# atomic writes


def _write_checkpoint(path, fail):
    params = tn.init_params(tn.UNetConfig(depth=2, in_channels=2, out_channels=3, base_channels=1), 1 + fail)
    if fail:  # the last tensor cannot be cast to float32, so the write fails after the other tensors
        params.tensors["head.b"] = np.array(["x"] * 3, dtype=object)
    tn.save_params(params, path)


def _write_movie(path, fail):
    ingest(np.full((2, 1, 3, 3), 4 + fail, dtype=np.uint8), "\ud800" if fail else "c", "d", path)


def _write_epoch_log(path, fail):
    rows = [trainer.EpochLog(0, 0.1, 1.0 + fail, 2.0, 3.0)]
    trainer.write_epoch_log(path, rows + [None] * fail)


def _write_report(path, fail):
    clips = path.parent.parent / "clips"  # one clip, the same as prediction and as truth
    for d in ("pred", "truth"):
        (clips / d).mkdir(parents=True, exist_ok=True)
        ingest(np.zeros((3, 1, 2, 2), dtype=np.uint8), "c", "d", clips / d / "a.tmm")
    argv = ["evaluate", "--pred", clips / "pred", "--truth", clips / "truth"]
    with pytest.MonkeyPatch.context() as mp:
        if fail:  # a float32 cannot be serialized, so the write stops inside per_city
            mp.setattr(trainer, "evaluate", lambda *a: trainer.Metrics(1.0, [1.0], [1.0], {"c": np.float32(1)}, 1))
        assert main([str(a) for a in argv + ["--report", path]]) == 0


@pytest.mark.parametrize(
    "write, error",
    [
        (_write_checkpoint, ValueError),
        (_write_movie, UnicodeEncodeError),
        (_write_epoch_log, AttributeError),
        (_write_report, TypeError),
    ],
    ids=["checkpoint", "movie", "epoch_log", "report"],
)
def test_failed_write_leaves_old_file(tmp_path, write, error):
    out = tmp_path / "out"
    out.mkdir()
    path = out / "file"
    write(path, False)
    before = path.read_bytes()
    with pytest.raises(error):
        write(path, True)
    assert path.read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["file"]
