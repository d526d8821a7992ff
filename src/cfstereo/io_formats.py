"""PFM and binary PGM/PPM readers and writers.

PFM layout as written here: ``Pf\\n{width} {height}\\n-1.0\\n`` followed by
float32 rows stored bottom-to-top (negative scale = little-endian). PGM/PPM
are the binary Netpbm variants (P5/P6); samples above maxval 255 are two
bytes, big-endian. Reads of finite data round-trip bitwise through the
matching writer. A header must fit in `_HEADER_MAX` bytes, the payload must
end the file, and a message quotes at most `_QUOTE` bytes of the file.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import FormatError
from .tensor_ops import DTYPE

_LUMA = (0.299, 0.587, 0.114)  # BT.601
_CHUNK = 1 << 20  # payload read size in bytes
_HEADER_MAX = 4096  # header bytes after the magic, comments included
_QUOTE = 16  # most file bytes a message quotes
_BINARY = {b"P2": b"P5", b"P3": b"P6"}  # ASCII Netpbm magic -> binary form
_NAMES = {b"P5": "PGM", b"P6": "PPM"}
# a PFM scale: a decimal with optional exponent; no "_", "inf" or "nan"
_SCALE = re.compile(rb"[-+]?(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][-+]?\d+)?")


def _tokens(fh, *, comments: bool):
    """Whitespace-delimited header tokens, each read with exactly one trailing
    whitespace byte. The header may take at most `_HEADER_MAX` bytes, so a
    token or comment without end fails early."""
    tok = bytearray()
    in_comment = False
    for _ in range(_HEADER_MAX):
        ch = fh.read(1)
        if not ch:
            break
        if in_comment:
            in_comment = ch != b"\n"
        elif comments and ch == b"#" and not tok:
            in_comment = True
        elif not ch.isspace():
            tok += ch
        elif tok:
            yield bytes(tok)
            tok.clear()
    else:
        raise FormatError(f"header longer than {_HEADER_MAX} bytes")
    if tok:
        yield bytes(tok)
    raise FormatError("truncated header")


def _positive_int(tok: bytes, what: str) -> int:
    """A header number: ASCII digits only, so no sign, "_" or other digits."""
    if not tok.isdigit():
        raise FormatError(f"bad {what} in header: {tok[:_QUOTE]!r}")
    value = int(tok)
    if value <= 0:
        raise FormatError(f"{what} must be positive, got {tok[:_QUOTE]!r}")
    return value


def read_pfm(path) -> np.ndarray:
    """Read a grayscale PFM into a float64 (H, W) array. NaNs pass through."""
    with open(path, "rb") as fh:
        tokens = _tokens(fh, comments=False)
        magic = next(tokens)
        if magic == b"PF":
            raise FormatError("color PFM ('PF') not supported; expected grayscale 'Pf'")
        if magic != b"Pf":
            raise FormatError(f"not a PFM file (magic {magic[:_QUOTE]!r})")
        w = _positive_int(next(tokens), "width")
        h = _positive_int(next(tokens), "height")
        scale_tok = next(tokens)
        if not _SCALE.fullmatch(scale_tok) or not np.isfinite(scale := float(scale_tok)) or scale == 0:
            raise FormatError(
                f"bad scale in header: {scale_tok[:_QUOTE]!r}; scale must be finite and non-zero"
            )
        rows = _read_samples(fh, (h, w), "<f4" if scale < 0 else ">f4")
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


def _read_netpbm(path, accepted: tuple[bytes, ...]) -> tuple[np.ndarray, int]:
    """Read a file whose magic is one of the binary `accepted` (P5, P6) as a
    grayscale map in [0, 1] plus maxval; P6 converts with BT.601 luma weights.
    The file is opened once, so a pipe works too."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic not in accepted:
            binary = _BINARY.get(magic)
            if binary in accepted:
                raise FormatError(
                    f"ASCII {_NAMES[binary]} ({magic.decode()}) not supported; "
                    f"convert to binary {binary.decode()}"
                )
            names = " or ".join(_NAMES[m] for m in accepted)
            wanted = " or ".join(m.decode() for m in accepted)
            raise FormatError(f"not a binary {names} file (magic {magic!r}); expected {wanted}")
        tokens = _tokens(fh, comments=True)
        w = _positive_int(next(tokens), "width")
        h = _positive_int(next(tokens), "height")
        maxval_tok = next(tokens)
        maxval = _positive_int(maxval_tok, "maxval")
        if maxval > 65535:
            raise FormatError(f"maxval exceeds 65535: {maxval_tok[:_QUOTE]!r}")
        dtype = ">u2" if maxval > 255 else "u1"
        if magic == b"P5":
            return _read_samples(fh, (h, w), dtype) / maxval, maxval
        raw = _read_samples(fh, (h, w, 3), dtype) / maxval
        return _LUMA[0] * raw[:, :, 0] + _LUMA[1] * raw[:, :, 1] + _LUMA[2] * raw[:, :, 2], maxval


def _read_samples(fh, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    """Read the (h, w[, 3]) samples in bounded chunks, so a header that claims
    more than the file or pipe holds fails after reading what is there,
    never by allocating the claimed size. One more read must find the end of
    the file: a byte after the payload means that the payload does not
    start where the header ends (one extra newline shifts every sample)."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    chunks, got = [], 0
    while got < nbytes and (chunk := fh.read(min(_CHUNK, nbytes - got))):
        chunks.append(chunk)
        got += len(chunk)
    if got != nbytes:
        raise FormatError(f"truncated payload: expected {nbytes} bytes, got {got}")
    if fh.read(1):
        raise FormatError(f"bytes follow the {shape[1]}x{shape[0]} payload")
    return np.frombuffer(b"".join(chunks), dtype=dtype).reshape(shape)


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read binary PGM (P5); returns values normalized to [0, 1] plus maxval."""
    return _read_netpbm(path, (b"P5",))


def read_image(path) -> tuple[np.ndarray, int]:
    """Read a P5 or P6 file as a grayscale map in [0, 1]."""
    return _read_netpbm(path, (b"P5", b"P6"))


def write_pgm(path, values: np.ndarray, maxval: int = 255) -> None:
    """Write [0, 1] values as binary PGM, quantized to maxval steps; values
    outside [0, 1] are clipped, and a non-finite value is an error."""
    a = np.asarray(values, dtype=DTYPE)
    if a.ndim != 2:
        raise FormatError(f"PGM writer needs a 2D map, got shape {a.shape}")
    bad = int(np.count_nonzero(~np.isfinite(a)))
    if bad:
        raise FormatError(f"PGM writer got {bad} non-finite values")
    if not 1 <= maxval <= 65535:
        raise FormatError(f"maxval must be in [1, 65535], got {maxval}")
    q = np.rint(np.clip(a, 0.0, 1.0) * maxval)
    h, w = a.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(q.astype(">u2" if maxval > 255 else "u1").tobytes())
