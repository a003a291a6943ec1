"""Grayscale frame container and frame I/O (PGM/PPM files, YUV4MPEG2 streams).

Frames are stored as float64 luminance in [0, 255], shape (height, width),
indexed ``data[y, x]``.  All functions here are pure; a GrayFrame is safe to
share between threads once constructed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError

__all__ = [
    "GrayFrame",
    "load_pnm",
    "save_pgm",
    "load_y4m",
    "load_frame_dir",
    "save_frame_dir",
]


@dataclass(frozen=True)
class GrayFrame:
    """A single grayscale frame.

    data is float64 with shape (height, width); values live in [0, 255].
    The array is marked read-only so a frame can be handed to worker code
    without defensive copies.
    """

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.shape != (self.height, self.width):
            raise ValueError(
                f"frame data shape {arr.shape} does not match "
                f"(height={self.height}, width={self.width})"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("frame data contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 255.0:
            raise ValueError("frame data outside [0, 255]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "GrayFrame":
        arr = np.asarray(arr, dtype=np.float64)
        h, w = arr.shape
        return cls(width=w, height=h, data=arr)


# --- PGM / PPM ---

_PNM_TOKEN = re.compile(rb"^\s*(?:#[^\n]*\n\s*)*(\S+)")


def _read_pnm_tokens(buf: bytes, count: int) -> tuple[list[bytes], int]:
    """Read `count` whitespace-separated header tokens, skipping # comments."""
    tokens = []
    pos = 0
    for _ in range(count):
        m = _PNM_TOKEN.match(buf[pos:])
        if m is None:
            raise ParseError("truncated PNM header")
        tokens.append(m.group(1))
        pos += m.end(1)
    return tokens, pos


def load_pnm(path: str | Path) -> GrayFrame:
    """Load a binary PGM (P5) or PPM (P6) file as a grayscale frame.

    Color input is reduced to Rec.601 luma (0.299 R + 0.587 G + 0.114 B).
    """
    buf = Path(path).read_bytes()
    try:
        (magic,), pos = _read_pnm_tokens(buf, 1)
    except ParseError:
        raise ParseError(f"{path}: not a PNM file") from None
    if magic not in (b"P5", b"P6"):
        raise ParseError(f"{path}: unsupported PNM magic {magic!r} (want P5 or P6)")
    toks, adv = _read_pnm_tokens(buf[pos:], 3)
    pos += adv
    try:
        width, height, maxval = (int(t) for t in toks)
    except ValueError:
        raise ParseError(f"{path}: bad PNM header") from None
    if width <= 0 or height <= 0:
        raise ParseError(f"{path}: bad PNM dimensions {width}x{height}")
    if maxval != 255:
        raise ParseError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    raster = buf[pos : pos + need]
    if len(raster) < need:
        raise ParseError(f"{path}: truncated raster ({len(raster)} of {need} bytes)")
    arr = np.frombuffer(raster, dtype=np.uint8).astype(np.float64)
    if channels == 1:
        gray = arr.reshape(height, width)
    else:
        rgb = arr.reshape(height, width, 3)
        gray = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
        gray = np.clip(gray, 0.0, 255.0)
    return GrayFrame(width=width, height=height, data=gray)


def save_pgm(frame: GrayFrame, path: str | Path) -> None:
    """Write a frame as binary PGM (P5), rounding to uint8."""
    u8 = np.clip(np.rint(frame.data), 0, 255).astype(np.uint8)
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + u8.tobytes())


# --- YUV4MPEG2 ---


def load_y4m(path: str | Path, max_frames: int | None = None) -> list[GrayFrame]:
    """Load the luma plane of every frame in an uncompressed YUV4MPEG2 stream.

    Supported chroma taggings: C420 (any variant), C422, C444, Cmono.
    Chroma planes are skipped; only Y is used.
    """
    buf = Path(path).read_bytes()
    nl = buf.find(b"\n")
    if nl < 0 or not buf.startswith(b"YUV4MPEG2"):
        raise ParseError(f"{path}: not a YUV4MPEG2 stream")
    header = buf[:nl].decode("ascii", "replace")
    width = height = 0
    chroma = "420"
    for field in header.split()[1:]:
        if field.startswith("W"):
            width = int(field[1:])
        elif field.startswith("H"):
            height = int(field[1:])
        elif field.startswith("C"):
            chroma = field[1:]
    if width <= 0 or height <= 0:
        raise ParseError(f"{path}: missing W/H in YUV4MPEG2 header")
    ysize = width * height
    if chroma.startswith("420"):
        frame_size = ysize + 2 * ((width // 2) * (height // 2))
    elif chroma.startswith("422"):
        frame_size = ysize + 2 * ((width // 2) * height)
    elif chroma.startswith("444"):
        frame_size = 3 * ysize
    elif chroma.startswith("mono"):
        frame_size = ysize
    else:
        raise ParseError(f"{path}: unsupported chroma subsampling C{chroma}")
    frames: list[GrayFrame] = []
    pos = nl + 1
    while pos < len(buf):
        fnl = buf.find(b"\n", pos)
        if fnl < 0:
            raise ParseError(f"{path}: truncated FRAME header at byte {pos}")
        if not buf[pos:fnl].startswith(b"FRAME"):
            raise ParseError(f"{path}: expected FRAME marker at byte {pos}")
        pos = fnl + 1
        if pos + frame_size > len(buf):
            raise ParseError(f"{path}: truncated frame payload at byte {pos}")
        y = np.frombuffer(buf[pos : pos + ysize], dtype=np.uint8)
        frames.append(
            GrayFrame(width=width, height=height,
                      data=y.reshape(height, width).astype(np.float64))
        )
        pos += frame_size
        if max_frames is not None and len(frames) >= max_frames:
            break
    if not frames:
        raise ParseError(f"{path}: stream holds no frames")
    return frames


# --- frame sequences on disk ---


def load_frame_dir(path: str | Path) -> list[GrayFrame]:
    """Load a frame sequence.

    `path` may be a directory of .pgm/.ppm files (sorted by filename, so a
    zero-padded index ordering is preserved) or a single .y4m file.  A
    missing path raises FileNotFoundError; any other file, ParseError.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{path}: no such file or directory")
    if p.is_file() and p.suffix.lower() == ".y4m":
        return load_y4m(p)
    if not p.is_dir():
        raise ParseError(f"{path}: expected a directory of .pgm/.ppm frames or a .y4m file")
    files = sorted(q for q in p.iterdir() if q.suffix.lower() in (".pgm", ".ppm"))
    if not files:
        raise ParseError(f"{path}: no .pgm/.ppm frames found")
    frames = [load_pnm(q) for q in files]
    w, h = frames[0].width, frames[0].height
    for q, f in zip(files, frames):
        if (f.width, f.height) != (w, h):
            raise ParseError(f"{q}: frame size {f.width}x{f.height} differs from first frame {w}x{h}")
    return frames


def save_frame_dir(frames: list[GrayFrame], path: str | Path, prefix: str = "frame") -> list[Path]:
    """Write frames as a zero-padded PGM sequence into a directory."""
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    out = []
    for i, f in enumerate(frames):
        q = p / f"{prefix}_{i:06d}.pgm"
        save_pgm(f, q)
        out.append(q)
    return out
