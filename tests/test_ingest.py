"""File formats, the block DCT, and histogram construction."""

import gzip
import json
import math
import os
import threading
import urllib.request
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanfit import (
    CoefficientSet,
    DomainError,
    EmptyDataError,
    FitReport,
    FormatError,
    GrayImage,
    block_dct8,
    build_histogram,
    dct8,
    format_histogram_csv,
    idct8,
    load_histogram_csv,
    load_pgm,
    load_values_csv,
)
from meanfit import ingest
from meanfit.cli import _report_json
from meanfit.ingest import _scan_histogram, _scan_values


class TestValuesCsv:
    def test_single_column(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1\n2\n3\n")
        values, weights = load_values_csv(path)
        np.testing.assert_array_equal(values, [1.0, 2.0, 3.0])
        assert weights is None

    def test_two_columns(self, tmp_path):
        path = tmp_path / "vw.csv"
        path.write_text("1,2\n3,4\n")
        values, weights = load_values_csv(path)
        np.testing.assert_array_equal(values, [1.0, 3.0])
        np.testing.assert_array_equal(weights, [2.0, 4.0])

    def test_mixed_columns_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1\n2,3\n")
        with pytest.raises(FormatError, match="line 2"):
            load_values_csv(path)

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1\n-2\n")
        with pytest.raises(FormatError, match="line 2"):
            load_values_csv(path)

    def test_nonpositive_weight_rejected(self, tmp_path):
        path = tmp_path / "w0.csv"
        path.write_text("1,0\n")
        with pytest.raises(FormatError):
            load_values_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "txt.csv"
        path.write_text("1\nfoo\n")
        with pytest.raises(FormatError, match="line 2"):
            load_values_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyDataError):
            load_values_csv(path)


    def test_non_ascii_byte_located(self, tmp_path):
        path = tmp_path / "nbsp.csv"
        path.write_bytes(b"1,2\n1\xc2\xa0,2\n")
        with pytest.raises(FormatError, match="line 2: not ASCII"):
            load_values_csv(path)

    def test_lines_numpy_rejects_still_read(self, tmp_path):
        # float() takes digit underscores, and a whitespace-only line is
        # blank; numpy's reader rejects both, so the line scanner reads them.
        path = tmp_path / "odd.csv"
        path.write_text("1_000,2\n \t \n3,4\n")
        values, weights = load_values_csv(path)
        np.testing.assert_array_equal(values, [1000.0, 3.0])
        np.testing.assert_array_equal(weights, [2.0, 4.0])

    def test_reads_a_pipe(self, pipe):
        # A pipe can be read once; the line scanner (here for `1_000`) must
        # work on the bytes already read.
        values, weights = load_values_csv(pipe(b"1_000,2\n3,4\n"))
        np.testing.assert_array_equal(values, [1000.0, 3.0])
        np.testing.assert_array_equal(weights, [2.0, 4.0])

    def test_compressed_file_not_unpacked(self, tmp_path):
        path = tmp_path / "v.csv.gz"
        path.write_bytes(gzip.compress(b"1\n2\n"))
        with pytest.raises(FormatError, match="not ASCII"):
            load_values_csv(path)

    def test_url_is_a_local_file_name(self, tmp_path, monkeypatch):
        # Never fetched, and no copy or sibling file is looked up or written.
        def no_network(*args, **kwargs):
            raise AssertionError("network access")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "values.csv").write_text("1\n")
        with pytest.raises(FileNotFoundError):
            load_values_csv("http://localhost/values.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["values.csv"]


@pytest.mark.parametrize("load", [load_values_csv, load_histogram_csv])
def test_missing_file_named_as_given(load):
    with pytest.raises(FileNotFoundError, match="''"):
        load("")


class TestHistogramCsv:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("0,1,3\n1,2,1\n")
        hist = load_histogram_csv(path)
        np.testing.assert_array_equal(hist.edges, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(hist.counts, [3.0, 1.0])

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("0,1,3\n2,3,1\n")
        with pytest.raises(FormatError, match="contiguous"):
            load_histogram_csv(path)

    def test_decreasing_edges_rejected(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("1,0,3\n")
        with pytest.raises(FormatError):
            load_histogram_csv(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("0,1,-3\n")
        with pytest.raises(FormatError):
            load_histogram_csv(path)

    def test_non_ascii_byte_located(self, tmp_path):
        path = tmp_path / "nbsp.csv"
        path.write_bytes(b"0,1,3\n1,2,\xe9\n")
        with pytest.raises(FormatError, match="line 2: not ASCII"):
            load_histogram_csv(path)

    def test_reads_a_pipe(self, pipe):
        hist = load_histogram_csv(pipe(b"0,1,3\n1,2,1\n"))
        np.testing.assert_array_equal(hist.edges, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(hist.counts, [3.0, 1.0])

    def test_blank_file_rejected(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n\n")
        with pytest.raises(EmptyDataError):
            load_histogram_csv(path)

    def test_round_trip_exact(self, tmp_path, rng):
        draws = rng.exponential(1.0, 500)
        hist, _ = build_histogram(draws, bins=17, value_range=(0.0, 4.7))
        path = tmp_path / "rt.csv"
        path.write_text(format_histogram_csv(hist), encoding="utf-8")
        back = load_histogram_csv(path)
        np.testing.assert_array_equal(back.edges, hist.edges)
        np.testing.assert_array_equal(back.counts, hist.counts)


_PADS = ["", "", "", "", " ", "\t", "  "]
_ODD_PADS = ["\x0b", "\x0c", "\x1c", "\x1f"]
_ODD_FIELDS = ["", "0", "-1", "-0", "1_000", "1_0.5", "inf", "-inf", "nan", "#1", "abc",
               "1e400", ".5", "5.", "+2", "0x10", "1 2", "1\x00", "\u00a01"]
_ODD_LINES = [" ", "\t", " \t ", "#", "# note", "\x0c", "\x1c", ",", "1,2,3,4"]
_FORMATS = [repr, "{:g}".format, "{:.3e}".format]


@st.composite
def _field(draw, value, fmt, noisy):
    """One CSV field for ``value``, padded with whitespace; a noisy file also
    gets odd tokens, digit underscores and ASCII control padding."""
    pads = _PADS + _ODD_PADS if noisy else _PADS
    text = fmt(value)
    if noisy and draw(st.integers(0, 9)) == 0:
        text = draw(st.sampled_from(_ODD_FIELDS))
    elif noisy and value.is_integer() and value < 1e15 and draw(st.booleans()):
        text = f"{int(value):_}"
    return draw(st.sampled_from(pads)) + text + draw(st.sampled_from(pads))


@st.composite
def _csv_bytes(draw, rows):
    """``rows`` of floats as CSV text, LF, CRLF or CR, blank lines mixed in.  Half
    the files are noisy: odd fields, whitespace-only, comment and ragged
    lines, trailing commas and dropped fields."""
    noisy = draw(st.booleans())
    fmt = draw(st.sampled_from(_FORMATS))
    lines = []
    for row in rows:
        fields = [draw(_field(v, fmt, noisy)) for v in row]
        edit = draw(st.integers(0, 19)) if noisy else None
        if edit == 0:
            fields.append("")
        elif edit == 1 and len(fields) > 1:
            fields.pop()
        lines.append(",".join(fields))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(_ODD_LINES)) if noisy else "")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text.encode("utf-8")


@st.composite
def values_csv(draw):
    ncols = draw(st.sampled_from([1, 1, 2, 2, 2, 3]))
    row = st.tuples(st.floats(0.0, 1e6), *[st.floats(1e-3, 1e3)] * (ncols - 1))
    return draw(_csv_bytes(draw(st.lists(row, max_size=8))))


@st.composite
def histogram_csv(draw):
    """Contiguous increasing bins with non-negative counts, and now and then
    a gap, a decreasing bin, a negative count, or a NaN or infinite field;
    or, a fault of the whole table that only ``Histogram`` sees, every count
    zero or every count 1e308 (whose sum overflows)."""
    left = draw(st.floats(-10.0, 10.0))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        right = left + draw(st.floats(1e-3, 10.0))
        row = [left, right, draw(st.floats(0.0, 1e6))]
        fault = draw(st.integers(0, 29))
        if fault == 0:
            row[0] += draw(st.floats(1e-3, 1.0))    # a gap before this bin
        elif fault == 1:
            row[:2] = row[1], row[0]                # a decreasing bin
        elif fault == 2:
            row[2] = -row[2] - 1.0
        elif fault == 3:
            row[draw(st.integers(0, 2))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        rows.append(row)
        left = right
    whole = draw(st.sampled_from([None] * 8 + [0.0, 1e308]))
    if whole is not None:
        for row in rows:
            row[2] = whole
    return draw(_csv_bytes(rows))


def _outcome(load, path):
    """The arrays ``load`` returns, bit for bit and whether contiguous (a
    strided array sums in another order), or its error class and message."""
    try:
        arrays = load(path)
    except (FormatError, EmptyDataError, DomainError) as exc:
        return type(exc), str(exc)
    return [None if a is None else (a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())
            for a in arrays]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "data.csv"


def _histogram_arrays(load):
    def read(path):
        hist = load(path)
        return hist.edges, hist.counts
    return read


# Each property reads every file by name (gate 0) and as the real gate picks.
_GATES = (0, ingest._BY_NAME_BYTES)


class TestLoaderMatchesLineScanner:
    """The numpy readers of values and histogram CSVs against the line scanners
    they fall back on."""

    @given(data=values_csv())
    @settings(max_examples=200, deadline=None)
    def test_values(self, csv_path, data):
        csv_path.write_bytes(data)
        expected = _outcome(lambda path: _scan_values(path, data), csv_path)
        for gate in _GATES:
            with mock.patch.object(ingest, "_BY_NAME_BYTES", gate):
                assert _outcome(load_values_csv, csv_path) == expected

    @given(data=histogram_csv())
    @settings(max_examples=300, deadline=None)
    def test_histograms(self, csv_path, data):
        csv_path.write_bytes(data)
        expected = _outcome(_histogram_arrays(lambda path: _scan_histogram(path, data)), csv_path)
        for gate in _GATES:
            with mock.patch.object(ingest, "_BY_NAME_BYTES", gate):
                assert _outcome(_histogram_arrays(load_histogram_csv), csv_path) == expected


def _big_values_csv() -> bytes:
    rng = np.random.default_rng(5)
    rows = np.column_stack((rng.exponential(3.0, 40000), rng.uniform(1e-3, 1e3, 40000)))
    return "".join(f"{float(v)!r},{float(w)!r}\n" for v, w in rows).encode("ascii")


def _big_histogram_csv() -> bytes:
    edges = np.cumsum(np.random.default_rng(6).uniform(1e-3, 1.0, 25001))
    counts = np.random.default_rng(7).uniform(0.0, 1e6, 25000)
    return "".join(f"{float(l)!r},{float(r)!r},{float(c)!r}\n"
                   for l, r, c in zip(edges[:-1], edges[1:], counts)).encode("ascii")


# (loader, the line scanner of some bytes, file maker)
_BIG = [
    (load_values_csv, lambda data: lambda path: _scan_values(path, data), _big_values_csv),
    (_histogram_arrays(load_histogram_csv),
     lambda data: _histogram_arrays(lambda path: _scan_histogram(path, data)), _big_histogram_csv),
]


@pytest.fixture
def loadtxt_sources(monkeypatch):
    """Every first argument ``np.loadtxt`` is called with, in order."""
    sources = []
    loadtxt = np.loadtxt

    def spy(source, *args, **kwargs):
        sources.append(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return sources


@pytest.mark.parametrize("load, scan, make", _BIG, ids=["values", "histogram"])
class TestLargeFileByName:
    """A regular file of at least ``_BY_NAME_BYTES`` is parsed by its absolute
    name; any other source of the same bytes by a stream, to the same arrays."""

    def test_four_sources_read_alike(self, tmp_path, monkeypatch, loadtxt_sources,
                                     load, scan, make):
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs")
        data = make()
        assert len(data) >= ingest._BY_NAME_BYTES
        expected = _outcome(scan(data), "x.csv")
        assert all(contiguous for _, _, contiguous, _ in expected)

        def no_network(*args, **kwargs):
            raise AssertionError("network access")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        monkeypatch.chdir(tmp_path)

        plain = tmp_path / "big.csv"
        plain.write_bytes(data)
        assert _outcome(load, plain) == expected
        assert loadtxt_sources[-1] == str(plain)

        fifo = tmp_path / "fifo.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        assert _outcome(load, fifo) == expected
        writer.join(timeout=10)
        assert not isinstance(loadtxt_sources[-1], str)

        gz = tmp_path / "big.csv.gz"
        gz.write_bytes(data)
        assert _outcome(load, gz) == expected
        assert not isinstance(loadtxt_sources[-1], str)

        # A relative name that parses as a URL names a local file.
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "x.csv").write_bytes(data)
        assert _outcome(load, "http://host/x.csv") == expected
        assert loadtxt_sources[-1] == os.path.join(str(tmp_path), "http://host/x.csv")
        assert len(loadtxt_sources) == 4

    def test_small_or_resized_file_keeps_the_stream(self, tmp_path, loadtxt_sources,
                                                    load, scan, make):
        data = make()
        path = tmp_path / "big.csv"
        path.write_bytes(data)
        assert ingest._name_to_parse(path, len(data)) == str(path)
        # Appended to or truncated since it was read.
        assert ingest._name_to_parse(path, len(data) - 1) is None
        assert ingest._name_to_parse(path, len(data) + 1) is None
        # Removed since it was read.
        assert ingest._name_to_parse(tmp_path / "gone.csv", len(data)) is None
        small = data[:data.index(b"\n", 4096) + 1]
        path.write_bytes(small)
        assert _outcome(load, path) == _outcome(scan(small), path)
        assert not isinstance(loadtxt_sources[-1], str)


class TestReportJson:
    """The JSON report file the CLI writes for `fit --out` and prints for `sweep`."""

    def test_round_trip_with_nulls(self, tmp_path):
        report = FitReport(
            model="exponential", kernel="unit", beta=None, alpha=None,
            theta_hat=0.4129, mse=1.25e-4, loglik=-531.75, dropped_bins=2,
        )
        path = tmp_path / "report.json"
        path.write_text(_report_json(report))
        back = json.loads(path.read_text())
        assert back == {
            "model": "exponential", "kernel": "unit", "beta": None, "alpha": None,
            "theta_hat": 0.4129, "mse": 1.25e-4, "loglik": -531.75, "dropped_bins": 2,
        }

    def test_sweep_fields_serialized(self, tmp_path):
        report = FitReport(
            model="weibull", kernel="power", beta=-0.55, alpha=1.3,
            theta_hat=2.0, mse=0.5, loglik=-1.0, dropped_bins=0,
        )
        path = tmp_path / "report.json"
        path.write_text(_report_json(report))
        back = json.loads(path.read_text())
        assert back["beta"] == -0.55
        assert back["alpha"] == 1.3


def make_pgm(tmp_path, body: bytes, name="img.pgm"):
    path = tmp_path / name
    path.write_bytes(body)
    return path


class TestPgm:
    def test_basic_parse(self, tmp_path):
        path = make_pgm(tmp_path, b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_pgm(path)
        assert (img.width, img.height) == (2, 2)
        np.testing.assert_array_equal(img.pixels, [[0, 255], [128, 64]])

    def test_header_comments_skipped(self, tmp_path):
        body = b"P5\n# made by hand\n2 1\n# more\n255\n" + bytes([7, 9])
        img = load_pgm(make_pgm(tmp_path, body))
        np.testing.assert_array_equal(img.pixels, [[7, 9]])

    def test_ascii_pgm_rejected(self, tmp_path):
        path = make_pgm(tmp_path, b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(FormatError, match="P5"):
            load_pgm(path)

    def test_truncated_data_rejected(self, tmp_path):
        path = make_pgm(tmp_path, b"P5\n2 2\n255\n" + bytes([0, 1, 2]))
        with pytest.raises(FormatError, match="truncated"):
            load_pgm(path)

    def test_wide_maxval_rejected(self, tmp_path):
        path = make_pgm(tmp_path, b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(FormatError, match="maxval"):
            load_pgm(path)

    def test_bad_header_token_rejected(self, tmp_path):
        path = make_pgm(tmp_path, b"P5\ntwo 2\n255\n" + bytes(4))
        with pytest.raises(FormatError):
            load_pgm(path)

    @pytest.mark.parametrize("body, message", [
        (b"P5\n2 2\n", "truncated PGM header"),
        (b"P5\n0 2\n255\n", "bad image size 0x2"),
        (b"P5\n2 2\n255", "missing whitespace before pixel data")])
    def test_malformed_header_rejected(self, tmp_path, body, message):
        with pytest.raises(FormatError, match=message):
            load_pgm(make_pgm(tmp_path, body))

    @pytest.mark.parametrize("body, outcome", [
        (b"P5 \t\r\n\x0b\x0c2\x0b1\x0c255\r" + bytes([7, 9]), [[7, 9]]),
        (b"P5\n#one\r#two\n2 1\n255\n" + bytes([7, 9]), [[7, 9]]),
        (b"P5 2#x 1 255\n" + bytes(2), "bad header token b'2#x'"),
        (b"P5#c 2 1 255\n" + bytes(2), "unsupported PGM magic b'P5#c' (binary 'P5' required)"),
        (b"P5 2 1 255#\n" + bytes(2), "bad header token b'255#'"),
        (b"P5 2 1\n# no maxval", "truncated PGM header"),
        (b"", "truncated PGM header"),
    ], ids=["whitespace", "cr-comment", "hash-in-size", "hash-in-magic",
            "hash-in-maxval", "ends-in-comment", "empty"])
    def test_header_tokens(self, tmp_path, body, outcome):
        # A token runs to the next whitespace byte, '#' included; a comment
        # starts only where a token could, and ends at CR or LF.
        path = make_pgm(tmp_path, body)
        if isinstance(outcome, str):
            with pytest.raises(FormatError) as excinfo:
                load_pgm(path)
            assert str(excinfo.value) == f"{path}: {outcome}"
        else:
            np.testing.assert_array_equal(load_pgm(path).pixels, outcome)

    def test_pixels_must_match_the_size(self):
        with pytest.raises(DomainError, match="does not match the declared size"):
            GrayImage(width=2, height=2, pixels=np.zeros((2, 3), dtype=np.uint8))


class TestDct:
    def test_constant_block_spectrum(self):
        block = np.full((8, 8), 9.0)
        coeffs = dct8(block)
        assert coeffs[0, 0] == pytest.approx(72.0, rel=1e-14)
        others = coeffs.copy()
        others[0, 0] = 0.0
        assert np.max(np.abs(others)) < 1e-12

    def test_round_trip(self, rng):
        block = rng.uniform(0.0, 255.0, (8, 8))
        np.testing.assert_allclose(idct8(dct8(block)), block, atol=1e-10)

    @pytest.mark.parametrize("transform", [dct8, idct8])
    def test_block_must_be_8x8(self, transform):
        with pytest.raises(DomainError, match="expects an 8x8 block"):
            transform(np.zeros((8, 7)))

    def test_matches_scipy_orthonormal_dct(self, rng):
        # independent oracle for the transform definition
        from scipy.fft import dctn

        block = rng.uniform(0.0, 255.0, (8, 8))
        np.testing.assert_allclose(dct8(block), dctn(block, norm="ortho"), atol=1e-10)

    def test_parseval(self, rng):
        block = rng.uniform(0.0, 255.0, (8, 8))
        coeffs = dct8(block)
        assert np.sum(coeffs**2) == pytest.approx(np.sum(block**2), rel=1e-12)

    def test_block_dct_counts_and_order(self):
        # left block constant 10, right block constant 20: raster order means
        # the first 64 outputs belong to the left block
        pixels = np.hstack([np.full((8, 8), 10), np.full((8, 8), 20)]).astype(np.uint8)
        img = GrayImage(width=16, height=8, pixels=pixels)
        coeffs = block_dct8(img)
        assert coeffs.values.size == 128
        assert coeffs.values[0] == pytest.approx(80.0)
        assert coeffs.values[64] == pytest.approx(160.0)

    def test_exclude_dc(self):
        img = GrayImage(width=8, height=8, pixels=np.full((8, 8), 50, dtype=np.uint8))
        coeffs = block_dct8(img, exclude_dc=True)
        assert coeffs.values.size == 63
        assert np.max(coeffs.values) < 1e-12

    def test_partial_blocks_cropped(self, rng):
        pixels = rng.integers(0, 256, (9, 17), dtype=np.uint8).astype(np.uint8)
        img = GrayImage(width=17, height=9, pixels=pixels)
        coeffs = block_dct8(img)
        assert coeffs.values.size == 2 * 64

    def test_too_small_image_rejected(self):
        img = GrayImage(width=7, height=7, pixels=np.zeros((7, 7), dtype=np.uint8))
        with pytest.raises(DomainError):
            block_dct8(img)


class TestBuildHistogram:
    def test_direct_binning(self):
        hist, clipped = build_histogram([0.5, 1.5, 1.5], bins=2, value_range=(0.0, 2.0))
        np.testing.assert_array_equal(hist.counts, [1.0, 2.0])
        np.testing.assert_array_equal(hist.edges, [0.0, 1.0, 2.0])
        assert clipped == 0

    def test_constant_values_land_in_one_bin(self):
        hist, _ = build_histogram([3.0, 3.0, 3.0], bins=4)
        assert np.count_nonzero(hist.counts) == 1
        assert hist.total == 3.0

    def test_clipping_preserves_mass(self, rng):
        values = rng.exponential(1.0, 1000)
        hist, clipped = build_histogram(values, bins=10, value_range=(0.2, 2.0))
        assert hist.total == 1000.0
        assert clipped == int(np.count_nonzero((values < 0.2) | (values > 2.0)))
        assert clipped > 0

    def test_all_zero_values_fall_back_to_unit_range(self):
        hist, _ = build_histogram([0.0, 0.0], bins=3)
        np.testing.assert_allclose(hist.edges[-1], 1.0)
        assert hist.counts[0] == 2.0

    def test_accepts_coefficient_set(self):
        coeffs = CoefficientSet(values=np.array([0.5, 1.5]))
        hist, _ = build_histogram(coeffs, bins=2, value_range=(0.0, 2.0))
        assert hist.total == 2.0
        with pytest.raises(DomainError, match="non-empty set of finite non-negative"):
            CoefficientSet(values=np.array([]))

    def test_validation(self):
        with pytest.raises(EmptyDataError):
            build_histogram([], bins=4)
        with pytest.raises(DomainError):
            build_histogram([1.0], bins=1)
        with pytest.raises(DomainError):
            build_histogram([1.0], bins=4, value_range=(2.0, 1.0))
        with pytest.raises(DomainError, match="values must be finite"):
            build_histogram([1.0, math.nan], bins=4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value_range, bins, words", [
        ((-1.7e308, 1.7e308), 4, r"^range -1\.7e\+308:1\.7e\+308 cannot hold 4 bins"),
        ((1.0, 1.000000000000001), 100, "^range 1.0:1.000000000000001 cannot hold 100 bins"),
        (None, 10**6, "^range 0.0:5e-324 cannot hold 1000000 bins"),
    ], ids=["width-overflows", "edges-collide", "default-range"])
    def test_range_that_cannot_hold_its_bins(self, value_range, bins, words):
        with pytest.raises(DomainError, match=words):
            build_histogram([5e-324], bins=bins, value_range=value_range)
