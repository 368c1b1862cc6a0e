"""File ingestion and serialization: value/histogram CSV, binary PGM images,
8x8 block DCT extraction, and histogram construction."""

from __future__ import annotations

import io
import math
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, EmptyDataError, FormatError
from .fitsearch import Histogram

__all__ = [
    "CoefficientSet",
    "GrayImage",
    "block_dct8",
    "build_histogram",
    "dct8",
    "format_histogram_csv",
    "idct8",
    "load_histogram_csv",
    "load_pgm",
    "load_values_csv",
]


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image; pixels are a (height, width) uint8 array."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.uint8)
        if px.shape != (self.height, self.width):
            raise DomainError("pixel array does not match the declared size")
        object.__setattr__(self, "pixels", px)


@dataclass(frozen=True)
class CoefficientSet:
    """Absolute DCT coefficients."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size == 0 or not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise DomainError("coefficients must be a non-empty set of finite non-negative reals")
        object.__setattr__(self, "values", vals)


# numpy takes these ASCII separators for whitespace around a field, float()
# does not; a file holding one is left to the line scanner.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")

# From this size numpy parses a file faster by its name than from a stream.
_BY_NAME_BYTES = 1 << 20
# The suffixes numpy's DataSource decompresses by.
_COMPRESSED = (".bz2", ".gz", ".xz", ".lzma")


def _name_to_parse(path, size: int) -> str | None:
    """The absolute name of ``path`` if numpy may parse it in place of the
    ``size`` bytes read from it, else None.

    By name, numpy reads a file in chunks; from a stream, one ``str`` a line.
    numpy opens a name through its DataSource, which fetches a name with a
    URL scheme and network location (an absolute POSIX name has no scheme),
    decompresses by the ``_COMPRESSED`` suffixes, and on first use imports
    their modules: a cost that only pays from about ``_BY_NAME_BYTES``.  A
    pipe or FIFO (``/dev/stdin`` fed by one) is not a regular file, and a
    file whose size changed since it was read does not match ``size``: both
    keep the stream.  A rewrite to the same size in between is not seen.
    """
    if size < _BY_NAME_BYTES or not isinstance(path, (str, os.PathLike)):
        return None
    name = os.fspath(path)
    if not isinstance(name, str) or name.endswith(_COMPRESSED):
        return None
    try:
        # Joined, not normalized: ``link/..`` names what open() read.
        name = os.path.join(os.getcwd(), name)
        info = os.stat(name)
    except OSError:
        return None
    return name if stat.S_ISREG(info.st_mode) and info.st_size == size else None


def _read_csv(path, widths) -> tuple[bytes, np.ndarray | None]:
    """The bytes of ``path``, read once so that a pipe works, and the columns
    of its table, each contiguous as the scanners build them, that numpy
    parses in one pass: by the file's name where ``_name_to_parse`` allows,
    else from a text stream over the bytes.  The columns are None where the
    table is not ``widths`` wide or numpy cannot read the file as ``float``
    would: it has no rows, is ragged or not ASCII, or holds a field numpy
    does not parse or an ASCII separator byte.  The line scanner then runs on
    the same bytes; it raises the error of the first bad line, or reads the
    few lines that ``float`` accepts and numpy does not (whitespace-only
    lines, ``1_000``)."""
    with open(path, "rb") as fh:   # open() names the path as given
        data = fh.read()
    if not data or data.isspace() or not data.isascii() \
            or any(sep in data for sep in _SEPARATORS):
        return data, None
    # The bytes are ASCII, which utf-8, a codec the interpreter has already
    # loaded, decodes alike.
    source = _name_to_parse(path, len(data)) \
        or io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        table = np.loadtxt(source, delimiter=",", comments=None, ndmin=2, dtype=float,
                           encoding="ascii")
    except (ValueError, OSError):
        return data, None
    return data, (np.ascontiguousarray(table.T) if table.shape[1] in widths else None)


def _scan_lines(path, data: bytes):
    """``(lineno, stripped line)`` for every non-blank line of an ASCII file.

    A byte that is not ASCII decodes, as utf-8 or escaped, to a character
    that is not either, so the per-line check finds the line that holds it.
    """
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    for lineno, raw in enumerate(text, start=1):
        if not raw.isascii():
            raise FormatError(f"{path}: line {lineno}: not ASCII")
        line = raw.strip()
        if line:
            yield lineno, line


def load_values_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read `value` or `value,weight` lines; formats must not be mixed.

    Returns ``(values, weights)``, ``weights`` None for the one-column format.
    """
    data, columns = _read_csv(path, (1, 2))
    if columns is None:
        return _scan_values(path, data)
    values = columns[0]
    weights = columns[1] if len(columns) == 2 else None
    if not np.all((values >= 0.0) & (values < np.inf)) or (
            weights is not None and not np.all((weights > 0.0) & (weights < np.inf))):
        return _scan_values(path, data)
    return values, weights


def _scan_values(path, data: bytes) -> tuple[np.ndarray, np.ndarray | None]:
    """``load_values_csv`` line by line: the error of the first bad line."""
    values, weights, ncols = [], [], None
    for lineno, line in _scan_lines(path, data):
        parts = line.split(",")
        if ncols is None:
            ncols = len(parts)
            if ncols not in (1, 2):
                raise FormatError(f"{path}: line {lineno}: expected 1 or 2 columns")
        if len(parts) != ncols:
            raise FormatError(f"{path}: line {lineno}: mixed column counts")
        try:
            fields = [float(p) for p in parts]
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: not a number") from None
        if not math.isfinite(fields[0]) or fields[0] < 0.0:
            raise FormatError(f"{path}: line {lineno}: values must be finite and non-negative")
        values.append(fields[0])
        if ncols == 2:
            if not math.isfinite(fields[1]) or fields[1] <= 0.0:
                raise FormatError(f"{path}: line {lineno}: weights must be finite and positive")
            weights.append(fields[1])
    if not values:
        raise EmptyDataError(f"{path}: no data rows")
    return np.asarray(values), (np.asarray(weights) if ncols == 2 else None)


def load_histogram_csv(path) -> Histogram:
    """Read `bin_left,bin_right,count` rows with contiguous increasing bins;
    every error names ``path``.  A parsed table whose bins are not contiguous
    (a NaN is not) or that ``Histogram`` rejects goes to the line scanner."""
    data, columns = _read_csv(path, (3,))
    if columns is not None:
        left, right, counts = columns
        if np.all(left[1:] == right[:-1]):
            try:
                return Histogram(edges=np.concatenate((left[:1], right)), counts=counts)
            except DomainError:
                pass
    return _scan_histogram(path, data)


def _scan_histogram(path, data: bytes) -> Histogram:
    """``load_histogram_csv`` line by line: the error of the first bad line."""
    edges, counts = [], []
    for lineno, line in _scan_lines(path, data):
        parts = line.split(",")
        if len(parts) != 3:
            raise FormatError(f"{path}: line {lineno}: expected bin_left,bin_right,count")
        try:
            left, right, count = (float(p) for p in parts)
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: not a number") from None
        if not (math.isfinite(left) and math.isfinite(right) and right > left):
            raise FormatError(f"{path}: line {lineno}: bin edges must increase")
        if not math.isfinite(count) or count < 0.0:
            raise FormatError(f"{path}: line {lineno}: counts must be non-negative")
        if not edges:
            edges.append(left)
        elif left != edges[-1]:
            raise FormatError(f"{path}: line {lineno}: bins must be contiguous "
                              f"(expected left edge {edges[-1]!r}, got {left!r})")
        edges.append(right)
        counts.append(count)
    if not counts:
        raise EmptyDataError(f"{path}: no histogram rows")
    try:
        return Histogram(edges=np.asarray(edges), counts=np.asarray(counts))
    except DomainError as exc:   # an error of the whole table
        raise DomainError(f"{path}: {exc}") from None


def format_histogram_csv(hist: Histogram) -> str:
    lines = [
        f"{float(left)!r},{float(right)!r},{float(count)!r}"
        for left, right, count in zip(hist.edges[:-1], hist.edges[1:], hist.counts)
    ]
    return "\n".join(lines) + "\n"


def _pgm_token(path, buf: bytes, pos: int) -> tuple[bytes, int]:
    """The header token at or after ``pos`` and the position past it: the
    run of non-whitespace after any whitespace and ``#`` comments, each
    comment to the end of its line."""
    match = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)").match(buf, pos)
    if not match[1]:
        raise FormatError(f"{path}: truncated PGM header")
    return match[1], match.end()


def load_pgm(path) -> GrayImage:
    """Read a binary PGM ("P5") with maxval <= 255; header comments allowed."""
    buf = Path(path).read_bytes()
    magic, pos = _pgm_token(path, buf, 0)
    if magic != b"P5":
        raise FormatError(f"{path}: unsupported PGM magic {magic!r} (binary 'P5' required)")
    fields = []
    for _ in range(3):
        token, pos = _pgm_token(path, buf, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise FormatError(f"{path}: bad header token {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{path}: bad image size {width}x{height}")
    if not 1 <= maxval <= 255:
        raise FormatError(f"{path}: maxval {maxval} outside the supported 1..255")
    if not buf[pos:pos + 1].isspace():
        raise FormatError(f"{path}: missing whitespace before pixel data")
    if len(buf) - (pos + 1) < width * height:
        raise FormatError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(buf, np.uint8, width * height, pos + 1).reshape(height, width)
    return GrayImage(width=width, height=height, pixels=pixels)


def _dct_matrix() -> np.ndarray:
    u = np.arange(8)[:, None]
    x = np.arange(8)[None, :]
    m = np.cos((2 * x + 1) * u * np.pi / 16.0)
    scale = np.full(8, math.sqrt(2.0 / 8.0))
    scale[0] = math.sqrt(1.0 / 8.0)
    return scale[:, None] * m


_DCT8 = _dct_matrix()


def _dct_blocks(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of a stack of 8x8 blocks.

    Each block's mean is removed before the transform and its DC
    contribution (8 * mean) is restored afterwards, so constant blocks
    produce exactly zero AC coefficients instead of rounding noise.
    """
    means = blocks.mean(axis=(1, 2), keepdims=True)
    spectra = _DCT8 @ (blocks - means) @ _DCT8.T
    spectra[:, 0, 0] += 8.0 * means[:, 0, 0]
    return spectra


def dct8(block) -> np.ndarray:
    """Orthonormal 2-D DCT-II of one 8x8 block (see ``_dct_blocks``)."""
    arr = np.asarray(block, dtype=float)
    if arr.shape != (8, 8):
        raise DomainError("dct8 expects an 8x8 block")
    return _dct_blocks(arr[None])[0]


def idct8(coeffs) -> np.ndarray:
    """Inverse of :func:`dct8`."""
    arr = np.asarray(coeffs, dtype=float)
    if arr.shape != (8, 8):
        raise DomainError("idct8 expects an 8x8 block")
    return _DCT8.T @ arr @ _DCT8


def block_dct8(img: GrayImage, exclude_dc: bool = False) -> CoefficientSet:
    """Absolute DCT coefficients of every full 8x8 block of the image.

    Trailing rows/columns that do not fill a block are cropped.  Output order
    is deterministic: blocks in raster order, coefficients in (u, v) raster
    order within each block.
    """
    h8 = (img.height // 8) * 8
    w8 = (img.width // 8) * 8
    if h8 == 0 or w8 == 0:
        raise DomainError("image smaller than one 8x8 block")
    px = img.pixels[:h8, :w8].astype(float)
    blocks = px.reshape(h8 // 8, 8, w8 // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
    coeffs = np.abs(_dct_blocks(blocks)).reshape(-1, 64)
    if exclude_dc:
        coeffs = coeffs[:, 1:]
    return CoefficientSet(values=coeffs.reshape(-1))


def build_histogram(values, bins: int, value_range=None) -> tuple[Histogram, int]:
    """Equal-width histogram; out-of-range values are clipped into the end bins.

    ``values`` may be a CoefficientSet or any array-like.  Without an explicit
    range, [0, max] is used (widened to [0, 1] when every value is zero).
    Returns the histogram and the number of clipped values; a range that
    cannot hold ``bins`` finite, strictly increasing edges is a DomainError.
    """
    if isinstance(values, CoefficientSet):
        vals = values.values
    else:
        vals = np.asarray(values, dtype=float).ravel()
    if vals.size == 0:
        raise EmptyDataError("no values to bin")
    if not np.all(np.isfinite(vals)):
        raise DomainError("values must be finite")
    if int(bins) != bins or bins < 2:
        raise DomainError("need an integer bin count of at least 2")
    if value_range is None:
        lo, hi = 0.0, float(vals.max())
        if hi <= lo:
            hi = lo + 1.0
    else:
        lo, hi = float(value_range[0]), float(value_range[1])
    with np.errstate(all="ignore"):   # np.histogram's test, failed by a NaN or inf edge too
        edges = np.linspace(lo, hi, int(bins) + 1)
    if not np.all(edges[:-1] < edges[1:]):
        raise DomainError(f"range {lo!r}:{hi!r} cannot hold {int(bins)} bins of positive, finite width")
    clipped = int(np.count_nonzero((vals < lo) | (vals > hi)))
    counts, edges = np.histogram(np.clip(vals, lo, hi), bins=int(bins), range=(lo, hi))
    return Histogram(edges=edges, counts=counts.astype(float)), clipped
