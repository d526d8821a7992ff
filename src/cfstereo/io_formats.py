"""PFM and binary PGM/PPM readers and writers.

PFM layout as written here: ``Pf\\n{width} {height}\\n-1.0\\n`` followed by
float32 rows stored bottom-to-top (negative scale = little-endian). PGM/PPM
are the binary Netpbm variants (P5/P6); samples above maxval 255 are two
bytes, big-endian. Reads of finite data round-trip bitwise through the
matching writer.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError
from .tensor_ops import DTYPE

_LUMA = (0.299, 0.587, 0.114)  # BT.601
_CHUNK = 1 << 20  # payload read size in bytes


def _read_token(fh, *, allow_comments: bool) -> bytes:
    """Next whitespace-delimited token; consumes exactly one trailing whitespace byte."""
    tok = b""
    while True:
        ch = fh.read(1)
        if not ch:
            if tok:
                return tok
            raise FormatError("truncated header")
        if allow_comments and ch == b"#" and not tok:
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def _int_token(fh, what: str, *, allow_comments: bool) -> int:
    tok = _read_token(fh, allow_comments=allow_comments)
    try:
        value = int(tok)
    except ValueError:
        raise FormatError(f"bad {what} in header: {tok!r}")
    if value <= 0:
        raise FormatError(f"{what} must be positive, got {value}")
    return value


def read_pfm(path) -> np.ndarray:
    """Read a grayscale PFM into a float64 (H, W) array. NaNs pass through."""
    with open(path, "rb") as fh:
        magic = _read_token(fh, allow_comments=False)
        if magic == b"PF":
            raise FormatError("color PFM ('PF') not supported; expected grayscale 'Pf'")
        if magic != b"Pf":
            raise FormatError(f"not a PFM file (magic {magic!r})")
        w = _int_token(fh, "width", allow_comments=False)
        h = _int_token(fh, "height", allow_comments=False)
        scale_tok = _read_token(fh, allow_comments=False)
        try:
            scale = float(scale_tok)
        except ValueError:
            raise FormatError(f"bad scale in header: {scale_tok!r}")
        if not np.isfinite(scale) or scale == 0:
            raise FormatError("scale must be finite and non-zero")
        rows = _read_samples(fh, w * h, "<f4" if scale < 0 else ">f4").reshape(h, w)
        return np.flipud(rows).astype(DTYPE)


def write_pfm(path, values: np.ndarray) -> None:
    """Write a (H, W) array as little-endian grayscale PFM (scale -1.0)."""
    a = np.asarray(values, dtype=DTYPE)
    if a.ndim != 2:
        raise FormatError(f"PFM writer needs a 2D map, got shape {a.shape}")
    h, w = a.shape
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{w} {h}\n".encode("ascii"))
        fh.write(b"-1.0\n")
        fh.write(np.flipud(a).astype("<f4").tobytes())


def _read_netpbm_header(fh, expected: bytes, name: str) -> tuple[int, int, int, str]:
    magic = fh.read(2)
    if magic in (b"P2", b"P3"):
        raise FormatError(
            f"ASCII {name} ({magic.decode()}) not supported; convert to binary {expected.decode()}"
        )
    if magic != expected:
        raise FormatError(f"not a binary {name} file (magic {magic!r})")
    w = _int_token(fh, "width", allow_comments=True)
    h = _int_token(fh, "height", allow_comments=True)
    maxval = _int_token(fh, "maxval", allow_comments=True)
    if maxval > 65535:
        raise FormatError(f"maxval {maxval} exceeds 65535")
    return w, h, maxval, ">u2" if maxval > 255 else "u1"


def _read_samples(fh, count: int, dtype: str) -> np.ndarray:
    """Read count samples in bounded chunks, so a header that claims more than
    the file or pipe holds fails after reading what is there, never by
    allocating the claimed size."""
    nbytes = count * np.dtype(dtype).itemsize
    chunks, got = [], 0
    while got < nbytes and (chunk := fh.read(min(_CHUNK, nbytes - got))):
        chunks.append(chunk)
        got += len(chunk)
    if got != nbytes:
        raise FormatError(f"truncated payload: expected {nbytes} bytes, got {got}")
    return np.frombuffer(b"".join(chunks), dtype=dtype)


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read binary PGM (P5); returns values normalized to [0, 1] plus maxval."""
    with open(path, "rb") as fh:
        w, h, maxval, dtype = _read_netpbm_header(fh, b"P5", "PGM")
        raw = _read_samples(fh, w * h, dtype)
        return raw.reshape(h, w) / maxval, maxval


def read_ppm(path) -> tuple[np.ndarray, int]:
    """Read binary PPM (P6) and convert to grayscale with BT.601 luma weights."""
    with open(path, "rb") as fh:
        w, h, maxval, dtype = _read_netpbm_header(fh, b"P6", "PPM")
        raw = _read_samples(fh, 3 * w * h, dtype).reshape(h, w, 3) / maxval
        return _LUMA[0] * raw[:, :, 0] + _LUMA[1] * raw[:, :, 1] + _LUMA[2] * raw[:, :, 2], maxval


def read_image(path) -> tuple[np.ndarray, int]:
    """Read a P5 or P6 file as a grayscale map in [0, 1]."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"P5":
        return read_pgm(path)
    if magic == b"P6":
        return read_ppm(path)
    raise FormatError(f"unsupported image magic {magic!r}; expected binary P5 or P6")


def write_pgm(path, values: np.ndarray, maxval: int = 255) -> None:
    """Write [0, 1] values as binary PGM, quantized to maxval steps."""
    a = np.asarray(values, dtype=DTYPE)
    if a.ndim != 2:
        raise FormatError(f"PGM writer needs a 2D map, got shape {a.shape}")
    if not 1 <= maxval <= 65535:
        raise FormatError(f"maxval must be in [1, 65535], got {maxval}")
    q = np.rint(np.clip(a, 0.0, 1.0) * maxval)
    h, w = a.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(q.astype(">u2" if maxval > 255 else "u1").tobytes())
