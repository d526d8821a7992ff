import contextlib
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cfstereo.errors import FormatError
from cfstereo.io_formats import read_image, read_pfm, read_pgm, read_ppm, write_pfm, write_pgm

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


class TestPpm:
    def test_pure_red_luma(self, tmp_path):
        path = tmp_path / "r.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\xff\x00\x00")
        gray, mv = read_ppm(path)
        assert gray[0, 0] == 0.299

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        path = tmp_path / "huge.ppm"
        path.write_bytes(b"P6\n1000000 1000000\n255\n" + b"\x00" * 6)
        with pytest.raises(FormatError, match="truncated payload: expected 3000000000000 bytes, got 6"):
            read_ppm(path)

    def test_read_image_dispatch(self, tmp_path):
        pgm = tmp_path / "x.pgm"
        write_pgm(pgm, np.array([[0.5]]))
        gray, _ = read_image(pgm)
        assert gray.shape == (1, 1)
        ppm = tmp_path / "x.ppm"
        ppm.write_bytes(b"P6\n1 1\n255\n\x00\xff\x00")
        gray, _ = read_image(ppm)
        assert gray[0, 0] == 0.587

    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"XY")
        with pytest.raises(FormatError, match="P5 or P6"):
            read_image(path)
