"""Chunked binary container for day-long traffic grid movies (TMM1).

A movie is one day of rasterized traffic: ``t`` frames of ``c`` channels on an
``h x w`` grid of uint8 cells, stored uncompressed with one chunk per frame so
that any run of frames can be read with a single seek + read.

File layout (all integers little-endian):

    offset  size    field
    0       4       magic  b"TMM1"
    4       2       version (= 1)
    6       2       c   channels per frame
    8       4       t   frames per movie
    12      4       h   grid rows
    16      4       w   grid cols
    20      2       city_len, followed by city bytes (UTF-8)
    ..      2       date_len, followed by date bytes (UTF-8, ISO-8601)
    ..      t*c*h*w frame chunks, each c*h*w uint8 in (c, h, w) row-major order

The file size must equal header size + t*c*h*w exactly: no padding, no
compression, no trailing data.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"TMM1"
VERSION = 1

_FIXED = struct.Struct("<4sHHIII")


class MovieFormatError(ValueError):
    """Raised for files that violate the TMM1 layout (magic, version, size)."""


@dataclass(frozen=True)
class MovieHeader:
    version: int
    t: int
    c: int
    h: int
    w: int
    city: str
    date: str

    def __post_init__(self):
        if self.version != VERSION:
            raise MovieFormatError(f"unsupported version {self.version}")
        for name in ("t", "c", "h", "w"):
            if getattr(self, name) < 1:
                raise MovieFormatError(f"header field {name} must be >= 1")

    @property
    def frame_bytes(self) -> int:
        return self.c * self.h * self.w

    @property
    def payload_bytes(self) -> int:
        return self.t * self.frame_bytes

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.t, self.c, self.h, self.w)

    def encode(self) -> bytes:
        city = self.city.encode("utf-8")
        date = self.date.encode("utf-8")
        if len(city) > 0xFFFF or len(date) > 0xFFFF:
            raise ValueError("city/date string too long for u16 length prefix")
        return (
            _FIXED.pack(MAGIC, self.version, self.c, self.t, self.h, self.w)
            + struct.pack("<H", len(city))
            + city
            + struct.pack("<H", len(date))
            + date
        )

    @property
    def size(self) -> int:
        return len(self.encode())


@contextmanager
def _atomic_write(path: str | Path, mode: str = "wb", **open_kwargs):
    """Open ``<path>.part`` for writing and rename it over ``path`` when the
    block ends, so a failed write leaves any earlier file intact and no temp
    file behind."""
    tmp = Path(f"{path}.part")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def ingest(raw: np.ndarray, city: str, date: str, dest: str | Path) -> Path:
    """Write a dense (t, c, h, w) uint8 array as a TMM1 movie file."""
    raw = np.asarray(raw)
    if raw.ndim != 4:
        raise ValueError(f"expected (t, c, h, w) array, got shape {raw.shape}")
    if raw.dtype != np.uint8:
        raise ValueError(f"expected uint8 data, got {raw.dtype}")
    t, c, h, w = raw.shape
    header = MovieHeader(VERSION, t, c, h, w, city, date)
    dest = Path(dest)
    with _atomic_write(dest) as f:
        f.write(header.encode())
        f.write(np.ascontiguousarray(raw).data)  # the buffer itself, no bytes copy
    return dest


def _read_header(f) -> MovieHeader:
    fixed = f.read(_FIXED.size)
    if len(fixed) < _FIXED.size:
        raise MovieFormatError("file too short for fixed header")
    magic, version, c, t, h, w = _FIXED.unpack(fixed)
    if magic != MAGIC:
        raise MovieFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")

    def read_string():
        raw_len = f.read(2)
        if len(raw_len) < 2:
            raise MovieFormatError("truncated header string")
        (n,) = struct.unpack("<H", raw_len)
        data = f.read(n)
        if len(data) < n:
            raise MovieFormatError("truncated header string")
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MovieFormatError(f"header string is not UTF-8: {e}") from None

    city = read_string()
    date = read_string()
    return MovieHeader(version, t, c, h, w, city, date)


class MovieReader:
    """Handle over a TMM1 file: validated header, frame-granular lazy reads.

    ``payload_bytes_read`` counts exactly the frame-chunk bytes fetched so far,
    which lets tests and profiling verify read locality.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        # unbuffered: a payload byte never comes from a buffer that an earlier read filled
        self._file = open(self._path, "rb", buffering=0)
        self.payload_bytes_read = 0
        try:
            self.header = _read_header(self._file)
            self._data_offset = self.header.size
            actual = self._path.stat().st_size
            expected = self._data_offset + self.header.payload_bytes
            if actual != expected:
                raise MovieFormatError(
                    f"file size {actual} != header + payload {expected}"
                )
        except Exception:
            self._file.close()
            raise

    @property
    def path(self) -> Path:
        return self._path

    def read_frames(self, t_start: int, count: int) -> np.ndarray:
        """Read ``count`` consecutive frames starting at ``t_start`` as a
        read-only (count, c, h, w) uint8 array that owns its data.

        Touches only the bytes of the requested chunk range, which the file
        reads straight into a fresh numpy buffer (numpy asks the kernel for
        huge pages on large arrays, so a full-grid clip faults in a few pages,
        not thousands). MovieFormatError if the file ends inside the range.
        """
        h = self.header
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if t_start < 0 or t_start + count > h.t:
            raise ValueError(
                f"frame range [{t_start}, {t_start + count}) outside [0, {h.t})"
            )
        frames = np.empty((count, h.c, h.h, h.w), np.uint8)
        view = frames.reshape(-1).data
        self._file.seek(self._data_offset + t_start * h.frame_bytes)
        got = 0
        while got < len(view):  # a raw read may return less than asked before EOF
            n = self._file.readinto(view[got:])
            if not n:
                break
            got += n
        self.payload_bytes_read += got
        if got != frames.nbytes:
            raise MovieFormatError("short read inside payload")
        frames.flags.writeable = False
        return frames

    def read_all(self) -> np.ndarray:
        return self.read_frames(0, self.header.t)

    def close(self):
        self._file.close()

    def __enter__(self) -> "MovieReader":
        return self

    def __exit__(self, *exc):
        self.close()


def check_grid(movies, grid, of: str) -> None:
    """ValueError naming the first movie whose (c, h, w) is not ``grid``, the grid ``of`` something."""
    for m in movies:
        if m.header.shape[1:] != grid:
            raise ValueError(f"{m.path}: grid (c, h, w) {m.header.shape[1:]} differs from {of} {grid}")


def open_movie(path: str | Path) -> MovieReader:
    """Open a TMM1 file, parse and validate the header; no frame data is read."""
    return MovieReader(path)
