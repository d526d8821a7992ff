import contextlib
import os
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cfstereo.errors import FormatError
from cfstereo.io_formats import _HEADER_MAX, read_image, read_pfm, read_pgm, write_pfm, write_pgm

f32 = st.floats(-1e6, 1e6, allow_nan=False, width=32)


@contextlib.contextmanager
def fifo_holding(path, data):
    """A named pipe that a thread fills with data once a reader opens it."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        yield path
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


class TestPfm:
    @given(a=arrays(np.float32, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12), elements=f32))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_bitwise(self, tmp_path_factory, a):
        path = tmp_path_factory.mktemp("pfm") / "m.pfm"
        write_pfm(path, a.astype(np.float64))
        back = read_pfm(path)
        assert back.astype(np.float32).tobytes() == a.tobytes()
        write_pfm(path, back)
        second = read_pfm(path)
        assert second.tobytes() == back.tobytes()

    def test_golden_single_pixel(self, tmp_path):
        # header and one little-endian float assembled by hand
        expected = b"Pf\n1 1\n-1.0\n" + struct.pack("<f", 3.5)
        path = tmp_path / "g.pfm"
        write_pfm(path, np.array([[3.5]]))
        assert path.read_bytes() == expected

    def test_bottom_to_top_rows(self, tmp_path):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "rows.pfm"
        write_pfm(path, a)
        raw = path.read_bytes()
        floats = struct.unpack("<4f", raw.split(b"-1.0\n", 1)[1])
        assert floats == (3.0, 4.0, 1.0, 2.0)  # bottom row first
        assert np.array_equal(read_pfm(path), a)

    def test_color_header_rejected(self, tmp_path):
        path = tmp_path / "c.pfm"
        path.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
        with pytest.raises(FormatError, match="grayscale"):
            read_pfm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 7)
        with pytest.raises(FormatError, match="truncated"):
            read_pfm(path)

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        path = tmp_path / "huge.pfm"
        path.write_bytes(b"Pf\n1000000 1000000\n-1.0\n" + b"\x00" * 16)
        with pytest.raises(FormatError, match="truncated payload: expected 4000000000000 bytes, got 16"):
            read_pfm(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_from_a_pipe(self, tmp_path):
        # a pipe has no size to check before the read
        with fifo_holding(tmp_path / "p.pfm", b"Pf\n1 1\n-1.0\n" + struct.pack("<f", 2.5)) as path:
            assert read_pfm(path)[0, 0] == 2.5

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_oversized_header_from_a_pipe(self, tmp_path):
        data = b"Pf\n1000000 1000000\n-1.0\n" + b"\x00" * 16
        with fifo_holding(tmp_path / "huge.pfm", data) as path:
            with pytest.raises(FormatError, match="truncated payload: expected 4000000000000 bytes, got 16"):
                read_pfm(path)

    def test_big_endian_scale(self, tmp_path):
        path = tmp_path / "be.pfm"
        path.write_bytes(b"Pf\n1 1\n1.0\n" + struct.pack(">f", 2.5))
        assert read_pfm(path)[0, 0] == 2.5

    @pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf", b"1e999", b"0", b"-0.0"])
    def test_nonfinite_or_zero_scale_rejected(self, tmp_path, scale):
        # a NaN scale is not < 0, so it would pick big-endian and misread the payload
        path = tmp_path / "s.pfm"
        path.write_bytes(b"Pf\n1 1\n" + scale + b"\n" + struct.pack("<f", 3.5))
        with pytest.raises(FormatError, match="scale must be finite and non-zero"):
            read_pfm(path)

    def test_nan_passes_through(self, tmp_path):
        path = tmp_path / "n.pfm"
        write_pfm(path, np.array([[np.nan, 1.0]]))
        out = read_pfm(path)
        assert np.isnan(out[0, 0]) and out[0, 1] == 1.0


class TestPgm:
    @given(
        h=st.integers(1, 6),
        w=st.integers(1, 6),
        maxval=st.sampled_from([255, 1000, 65535]),
        rnd=st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_file_roundtrip_bitwise(self, tmp_path_factory, h, w, maxval, rnd):
        path = tmp_path_factory.mktemp("pgm") / "m.pgm"
        raw = np.array([[rnd.randint(0, maxval) for _ in range(w)] for _ in range(h)])
        body = raw.astype(">u2" if maxval > 255 else "u1").tobytes()
        original = f"P5\n{w} {h}\n{maxval}\n".encode() + body
        path.write_bytes(original)
        values, mv = read_pgm(path)
        assert mv == maxval
        assert values.min() >= 0.0 and values.max() <= 1.0
        write_pgm(path, values, maxval=mv)
        assert path.read_bytes() == original

    def test_sixteen_bit_big_endian(self, tmp_path):
        path = tmp_path / "wide.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + struct.pack(">H", 30000))
        values, mv = read_pgm(path)
        assert mv == 65535
        assert values[0, 0] == pytest.approx(30000 / 65535)

    def test_ascii_rejected_with_guidance(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(FormatError, match="binary P5"):
            read_pgm(path)

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        path = tmp_path / "huge.pgm"
        path.write_bytes(b"P5\n1000000 1000000\n65535\n" + b"\x00" * 8)
        with pytest.raises(FormatError, match="truncated payload: expected 2000000000000 bytes, got 8"):
            read_pgm(path)

    def test_header_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
        values, mv = read_pgm(path)
        assert values[0, 1] == 1.0

    def test_nonfinite_values_rejected(self, tmp_path):
        path = tmp_path / "n.pgm"
        with pytest.raises(FormatError, match="2 non-finite values"):
            write_pgm(path, np.array([[np.nan, 0.5, np.inf]]))
        assert not path.exists()
        # finite values outside [0, 1] still clip
        write_pgm(path, np.array([[-3.0, 0.5, 7.0]]))
        assert path.read_bytes().endswith(bytes([0, 128, 255]))


class TestPpm:
    def test_pure_red_luma(self, tmp_path):
        path = tmp_path / "r.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\xff\x00\x00")
        gray, mv = read_image(path)
        assert gray[0, 0] == 0.299

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        path = tmp_path / "huge.ppm"
        path.write_bytes(b"P6\n1000000 1000000\n255\n" + b"\x00" * 6)
        with pytest.raises(FormatError, match="truncated payload: expected 3000000000000 bytes, got 6"):
            read_image(path)

    def test_read_image_dispatch(self, tmp_path):
        pgm = tmp_path / "x.pgm"
        write_pgm(pgm, np.array([[0.5]]))
        gray, _ = read_image(pgm)
        assert gray.shape == (1, 1)
        ppm = tmp_path / "x.ppm"
        ppm.write_bytes(b"P6\n1 1\n255\n\x00\xff\x00")
        gray, _ = read_image(ppm)
        assert gray[0, 0] == 0.587

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize(
        "data, want",
        [(b"P5\n2 1\n255\n\x00\xff", [[0.0, 1.0]]), (b"P6\n1 1\n255\n\x00\xff\x00", [[0.587]])],
    )
    def test_read_image_from_a_pipe(self, data, want):
        # a pipe can be read only once, so sniffing the magic must not reopen it
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            gray, _ = read_image(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert gray.tolist() == want

    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"XY")
        with pytest.raises(FormatError, match="P5 or P6"):
            read_image(path)


MB = 1 << 20


class TestHeaderBound:
    """A header, comments included, may take at most _HEADER_MAX bytes, so a
    header that never ends fails at once with a short message."""

    @pytest.mark.parametrize(
        "data, reader",
        [
            (b"Pf" + b"7" * MB, read_pfm),  # no whitespace at all
            (b"P5\n" + b"9" * MB + b" 1\n255\n\x00", read_pgm),  # 1 MB width token
            (b"P5\n#" + b"c" * MB + b"\n1 1\n255\n\x00", read_pgm),  # 1 MB comment
        ],
        ids=["pfm-no-whitespace", "pgm-width-token", "pgm-comment"],
    )
    def test_endless_header_fails_fast_and_short(self, tmp_path, data, reader):
        path = tmp_path / "endless"
        path.write_bytes(data)
        start = time.perf_counter()
        with pytest.raises(FormatError, match=f"header longer than {_HEADER_MAX} bytes") as err:
            reader(path)
        assert time.perf_counter() - start < 1.0
        assert len(str(err.value)) < 200

    def test_comment_up_to_the_bound_reads(self, tmp_path):
        path = tmp_path / "c.pgm"
        rest = b"\n1 1\n255\n"
        comment = b"#" + b"c" * (_HEADER_MAX - len(rest) - 2)
        path.write_bytes(b"P5\n" + comment + rest + b"\xff")  # header: exactly _HEADER_MAX bytes
        assert read_pgm(path)[0].tolist() == [[1.0]]
        path.write_bytes(b"P5\n" + comment + b"c" + rest + b"\xff")
        with pytest.raises(FormatError, match="header longer"):
            read_pgm(path)

    @pytest.mark.parametrize(
        "data, reader",
        [
            (b"Px" + b"y" * 100 + b"\n1 1\n-1.0\n", read_pfm),
            (b"Pf\n" + b"w" * 100 + b" 1\n-1.0\n", read_pfm),
            (b"Pf\n1 1\n" + b"s" * 100 + b"\n", read_pfm),
            (b"P5\n-" + b"9" * 100 + b" 1\n255\n", read_pgm),
            (b"P5\n1 1\n" + b"9" * 100 + b"\n", read_pgm),
        ],
        ids=["magic", "width", "scale", "negative-width", "maxval"],
    )
    def test_message_quotes_a_short_prefix(self, tmp_path, data, reader):
        path = tmp_path / "long-token"
        path.write_bytes(data)
        with pytest.raises(FormatError) as err:
            reader(path)
        assert len(str(err.value)) < 80


P2_GUIDANCE = "ASCII PGM (P2) not supported; convert to binary P5"
P3_GUIDANCE = "ASCII PPM (P3) not supported; convert to binary P6"


@pytest.mark.parametrize(
    "magic, reader, message",
    [
        (b"P2", read_pgm, P2_GUIDANCE),
        (b"P2", read_image, P2_GUIDANCE),
        (b"P3", read_image, P3_GUIDANCE),
        (b"P6", read_pgm, "not a binary PGM file (magic b'P6'); expected P5"),
        (b"Pf", read_image, "not a binary PGM or PPM file (magic b'Pf'); expected P5 or P6"),
    ],
)
def test_netpbm_readers_share_one_magic_check(tmp_path, magic, reader, message):
    # the readers differ only in the magics they accept
    path = tmp_path / "m"
    path.write_bytes(magic + b"\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(FormatError) as err:
        reader(path)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "magic, numbers, payload",
    [
        (b"P5", b"1_0 +1 0_255", 10),
        (b"P5", b"1_0 1 255", 10),
        (b"P5", b"10 +1 255", 10),
        (b"P5", b"10 1 +255", 10),
        (b"P6", b"1 1 0_255", 3),
        (b"P5", "\u0661 1 255".encode(), 1),  # ARABIC-INDIC DIGIT ONE
        (b"Pf", b"+2 1_0 -1_0.0", 80),
        (b"Pf", b"2 1 -1_0.0", 8),
        (b"Pf", b"2 1 1.", 8),
        (b"Pf", b"2 1 -1e", 8),
        (b"Pf", b"2 1 +-1", 8),
    ],
)
def test_header_numbers_are_plain_digits(tmp_path, magic, numbers, payload):
    # int() and float() would take a sign and "_" between digits
    path = tmp_path / "n"
    path.write_bytes(magic + b"\n" + numbers + b"\n" + bytes(payload))
    with pytest.raises(FormatError, match="bad"):
        (read_pfm if magic == b"Pf" else read_image)(path)


@pytest.mark.parametrize("scale", [b"1", b"-1", b"+1.0", b"-.5", b"1e0", b"-1E+0", b"2.5e-1"])
def test_plain_scale_spellings_read(tmp_path, scale):
    path = tmp_path / "s.pfm"
    order = "<f" if scale.startswith(b"-") else ">f"
    path.write_bytes(b"Pf\n1 1\n" + scale + b"\n" + struct.pack(order, 3.5))
    assert read_pfm(path)[0, 0] == 3.5


MAGICS = st.sampled_from([b"Pf", b"PF", b"P2", b"P3", b"P5", b"P6", b"", b"P", b"P7", b"\xffP"])
ODD_NUMBERS = st.sampled_from(
    [b"0", b"-0", b"-1", b"65536", b"70000", b"1e999", b"nan", b"x", b"+1", b"1_0", b"\xff",
     b"+2", b"0_255", b"-1_0.0", b"+1.0", b"1.", str(10**40).encode(), b"9" * 500]
)
SIZES = st.integers(1, 4).map(lambda v: str(v).encode()) | ODD_NUMBERS
MAXVALS_OR_SCALES = st.sampled_from([b"255", b"65535", b"-1.0", b"1.0"]) | ODD_NUMBERS
# mostly plain whitespace, so that many headers parse and reach the payload
SEPARATORS = st.sampled_from([b" ", b"\n", b" ", b"\n", b"\t", b"\r\n", b"#c\n", b"\n# c\n", b"", b" #"])


@st.composite
def headers(draw):
    """Magic, width, height and maxval or scale, with separators and comments
    between them and a payload after, truncated about half the time."""
    fields = [draw(MAGICS), draw(SIZES), draw(SIZES), draw(MAXVALS_OR_SCALES)]
    data = b"".join(f + draw(SEPARATORS) for f in fields) + draw(st.binary(max_size=64))
    cut = draw(st.none() | st.integers(0, len(data)))
    return data[:cut]


@given(data=headers())
@settings(max_examples=300, deadline=None)
@example(data=b"Pf\n2 1\n-1.0\n" + bytes(8))
@example(data=b"P5 # c\n2\t1\r\n65535\n" + bytes(4))
@example(data=b"P6\n1 1\n255 \xff\x00\x7f")
def test_fuzzed_headers_read_or_raise_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "h"
    path.write_bytes(data)
    for reader in (read_pfm, read_pgm, read_image):
        try:
            out = reader(path)
        except FormatError:
            continue
        if reader is read_pfm:
            assert out.ndim == 2 and out.dtype == np.float64 and out.size
        else:
            values, maxval = out
            assert 1 <= maxval <= 65535
            assert values.ndim == 2 and values.size
            assert values.min() >= 0.0 and values.max() <= 1.0
