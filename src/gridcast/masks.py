"""Activity masks: pixels whose values ever exceed a threshold.

A mask marks grid cells that showed traffic above a threshold at any time in
any channel. Threshold 0 gives the "always stayed zero" variant (exceed is
strict).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .movie_store import MovieReader, ingest, open_movie


@dataclass(frozen=True)
class Mask:
    active: np.ndarray  # (h, w) bool
    threshold: int
    source_span: int    # number of frames scanned


def build_mask(movies: list[MovieReader], threshold: int) -> Mask:
    """Mark pixels where any scanned value, in any channel, is > threshold."""
    if not movies:
        raise ValueError("empty movie set")
    if not 0 <= threshold <= 255:
        raise ValueError(f"threshold must be a uint8 value, got {threshold}")
    first = movies[0].header
    peak = np.zeros((first.h, first.w), dtype=np.uint8)
    span = 0
    for m in movies:
        hdr = m.header
        if (hdr.h, hdr.w) != peak.shape:
            raise ValueError(f"grid {hdr.h}x{hdr.w} does not match {peak.shape}")
        # one statement: the day's buffer is freed once its max is taken
        np.maximum(peak, m.read_all().max(axis=(0, 1)), out=peak)
        span += hdr.t
    return Mask(peak > threshold, threshold, span)


def save_mask(mask: Mask, path: str | Path) -> Path:
    """Persist as a 1-frame, 1-channel TMM1 movie with values {0, 255}."""
    grid = np.where(mask.active, 255, 0).astype(np.uint8)[None, None]
    return ingest(grid, f"mask-thr{mask.threshold}-n{mask.source_span}", "MASK", path)


def load_mask(path: str | Path) -> Mask:
    """Read a mask written by ``save_mask``; ValueError unless the city field is
    exactly ``mask-thr<int>-n<int>`` and every value is 0 or 255."""
    with open_movie(path) as m:
        hdr = m.header
        if hdr.t != 1 or hdr.c != 1 or hdr.date != "MASK":
            raise ValueError(f"{path} is not a mask file")
        grid = m.read_all()[0, 0]
    meta = re.fullmatch(r"mask-thr([0-9]+)-n([0-9]+)", hdr.city)
    if meta is None:
        raise ValueError(f"{path}: mask metadata {hdr.city!r} is not mask-thr<int>-n<int>")
    if not np.isin(grid, (0, 255)).all():
        raise ValueError(f"{path}: mask values must be 0 or 255")
    return Mask(grid > 0, int(meta[1]), int(meta[2]))
