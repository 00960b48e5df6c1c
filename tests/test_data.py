import math
import time
from pathlib import Path

import numpy as np
import pytest

import synth
from swinscan import data as D
from swinscan import segment as SEG
from swinscan.errors import (
    ConfigurationError,
    EmptyInputError,
    InputError,
    LabelError,
    PnmError,
)


def unit(decoded):
    """load_pnm's (pixels, maxval) as the 3xHxW float image in [0, 1]
    it decoded to before pixels stayed uint8, and gray one channel."""
    pixels, maxval = decoded
    assert pixels.dtype == np.uint8 and pixels.ndim == 3 and pixels.shape[2] in (1, 3)
    return np.broadcast_to(pixels.transpose(2, 0, 1), (3,) + pixels.shape[:2]) / float(maxval)


def unit_load_pnm(blob):
    return unit(D.load_pnm(blob))


def bilinear_oracle(img, th, tw):
    """Direct per-pixel interpolation formula, no vectorization."""
    c_n, h, w = img.shape
    out = np.zeros((c_n, th, tw))

    def at(c, y, x):
        return img[c, min(max(y, 0), h - 1), min(max(x, 0), w - 1)]

    for c in range(c_n):
        for i in range(th):
            for j in range(tw):
                sy = (i + 0.5) * h / th - 0.5
                sx = (j + 0.5) * w / tw - 0.5
                y0, x0 = math.floor(sy), math.floor(sx)
                ty, tx = sy - y0, sx - x0
                out[c, i, j] = (
                    at(c, y0, x0) * (1 - ty) * (1 - tx)
                    + at(c, y0 + 1, x0) * ty * (1 - tx)
                    + at(c, y0, x0 + 1) * (1 - ty) * tx
                    + at(c, y0 + 1, x0 + 1) * ty * tx
                )
    return out


class TestLoadPnm:
    def test_p5_single_gray_pixel(self):
        pixels, maxval = D.load_pnm(b"P5\n1 1\n255\n" + bytes([128]))
        assert pixels.shape == (1, 1, 1) and pixels.dtype == np.uint8 and maxval == 255
        assert np.all(pixels == 128)
        img = unit((pixels, maxval))
        assert img.shape == (3, 1, 1)
        assert np.all(img == 128 / 255)

    def test_p3_red_pixel(self):
        img = unit_load_pnm(b"P3\n1 1\n255\n255 0 0\n")
        assert np.array_equal(img[:, 0, 0], [1.0, 0.0, 0.0])

    def test_p6_known_pixels(self):
        # 2x2: red, green / blue, mid-gray
        payload = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 100, 100, 100])
        img = unit_load_pnm(b"P6\n2 2\n255\n" + payload)
        assert np.array_equal(img[:, 0, 0], [1.0, 0.0, 0.0])
        assert np.array_equal(img[:, 0, 1], [0.0, 1.0, 0.0])
        assert np.array_equal(img[:, 1, 0], [0.0, 0.0, 1.0])
        assert np.array_equal(img[:, 1, 1], np.full(3, 100 / 255))

    def test_p2_ascii_with_comment(self):
        img = unit_load_pnm(b"P2\n# a comment\n2 1\n255\n0 255\n")
        assert np.array_equal(img[0, 0], [0.0, 1.0])

    def test_low_maxval_scaling(self):
        pixels, maxval = D.load_pnm(b"P2\n1 1\n7\n7\n")
        assert maxval == 7 and np.all(pixels == 7)
        assert np.all(unit((pixels, maxval)) == 1.0)

    def test_bad_magic_offset_zero(self):
        with pytest.raises(PnmError) as err:
            D.load_pnm(b"P7\n1 1\n255\n\x00")
        assert err.value.offset == 0

    def test_maxval_too_large(self):
        with pytest.raises(PnmError, match="65535"):
            D.load_pnm(b"P5\n1 1\n65535\n\x00\x00")

    @pytest.mark.parametrize("blob, message, offset", [
        (b"P5 " + b"1" * 5000 + b" 1 255\n\x00", "width of 5000 digits is too large", 3),
        (b"P5 1 1 " + b"9" * 20 + b"\n\x00", "maxval of 20 digits is too large", 7),
    ])
    def test_header_number_longer_than_any_accepted(self, blob, message, offset):
        # int() would raise a plain ValueError past 4300 digits
        with pytest.raises(PnmError, match=message) as err:
            D.load_pnm(blob)
        assert err.value.offset == offset

    def test_header_leading_zeros_beyond_int_digit_limit(self):
        img = unit_load_pnm(b"P5 1 " + b"0" * 5000 + b"1 255\n\x07")
        assert img.shape == (3, 1, 1) and np.all(img == 7 / 255)

    def test_truncated_binary_payload(self):
        blob = b"P6\n2 2\n255\n" + bytes(5)
        with pytest.raises(PnmError) as err:
            D.load_pnm(blob)
        assert err.value.offset == len(blob)

    def test_truncated_ascii_payload(self):
        with pytest.raises(PnmError):
            D.load_pnm(b"P3\n2 1\n255\n255 0 0\n")

    @pytest.mark.parametrize("magic", [b"P2", b"P3"])
    def test_ascii_extents_beyond_body_rejected(self, magic):
        # 4e10 declared values must fail on the body length, not on a
        # 298 GiB allocation
        blob = magic + b"\n200000 200000\n255\n0 0\n"
        with pytest.raises(PnmError, match="truncated pixel data") as err:
            D.load_pnm(blob)
        assert err.value.offset == len(blob)

    def test_pixel_exceeds_maxval(self):
        with pytest.raises(PnmError):
            D.load_pnm(b"P2\n1 1\n10\n11\n")

    @pytest.mark.parametrize("blob, value, offset", [
        (b"P5\n2 1\n7\n\x03\xc8", 200, 10),
        (b"P6\n1 1\n7\n\x01\x02\x09", 9, 11),
    ])
    def test_binary_pixel_exceeds_maxval(self, blob, value, offset):
        # the same rule as for ASCII values, at the first offending byte
        with pytest.raises(PnmError, match=f"pixel value {value} exceeds maxval 7") as err:
            D.load_pnm(blob)
        assert err.value.offset == offset

    def test_empty_input(self):
        with pytest.raises(PnmError):
            D.load_pnm(b"")

    def test_header_reads_no_pixel_value(self):
        blob = b"P5 # c\n3 2 7\n" + bytes([0, 1, 2, 3, 4, 200])
        assert D.pnm_header(blob) == (b"P5", 3, 2, 7, 12)
        with pytest.raises(PnmError, match="pixel value 200 exceeds maxval 7"):
            D.load_pnm(blob)
        assert D.pnm_header(b"P2 2 1 255 x y") == (b"P2", 2, 1, 255, 10)


class PnmScanner:
    """The PNM token reader before the compiled header pattern: one byte
    at a time, skipping whitespace and '#' comments up to their newline."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def skip_space(self):
        blob = self.blob
        while self.pos < len(blob):
            c = blob[self.pos]
            if c in D._WS:
                self.pos += 1
            elif c == ord("#"):
                while self.pos < len(blob) and blob[self.pos] != ord("\n"):
                    self.pos += 1
            else:
                break

    def token(self, what: str):
        self.skip_space()
        start = self.pos
        blob = self.blob
        while self.pos < len(blob) and blob[self.pos] not in D._WS:
            self.pos += 1
        if self.pos == start:
            raise PnmError(f"missing {what}", offset=start)
        return start, blob[start : self.pos]

    def integer(self, what: str):
        start, tok = self.token(what)
        if not tok.isdigit():
            raise PnmError(f"{what} is not a decimal number: {tok[:8]!r}", offset=start)
        return start, int(tok)


def token_loop_values(blob, at, needed, maxval):
    """The P2/P3 body decoder before the bulk one: one token at a time."""
    scan = PnmScanner(blob)
    scan.pos = at
    values = np.empty(needed)
    for i in range(needed):
        start, v = scan.integer("pixel value")
        if v > maxval:
            raise PnmError(f"pixel value {v} exceeds maxval {maxval}", offset=start)
        values[i] = v
    return values


def scanner_load_pnm(blob):
    """load_pnm before the compiled header pattern: the header through
    PnmScanner, an ASCII body through the token loop."""
    scan = PnmScanner(blob)
    try:
        at, magic = scan.token("magic number")
    except PnmError:
        raise PnmError("empty input", offset=0)
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise PnmError(f"unsupported magic {magic[:2]!r}", offset=at)
    _, width = scan.integer("width")
    _, height = scan.integer("height")
    if width < 1 or height < 1:
        raise PnmError(f"degenerate image extents {width}x{height}", offset=at)
    max_at, maxval = scan.integer("maxval")
    if maxval < 1 or maxval > 255:
        raise PnmError(f"maxval {maxval} outside [1, 255]", offset=max_at)
    channels = 3 if magic in (b"P3", b"P6") else 1
    needed = width * height * channels
    if magic in (b"P5", b"P6"):
        if scan.pos >= len(blob) or blob[scan.pos] not in D._WS:
            raise PnmError("missing separator after maxval", offset=scan.pos)
        payload = blob[scan.pos + 1 : scan.pos + 1 + needed]
        if len(payload) < needed:
            raise PnmError(f"truncated pixel data: {len(payload)} of {needed} bytes",
                           offset=len(blob))
        values = np.frombuffer(payload, dtype=np.uint8)
        for i, v in enumerate(values):
            if v > maxval:
                raise PnmError(f"pixel value {v} exceeds maxval {maxval}",
                               offset=scan.pos + 1 + i)
    else:
        left = len(blob) - scan.pos
        if left < 2 * needed:
            raise PnmError(f"truncated pixel data: {left} bytes cannot hold {needed} values",
                           offset=len(blob))
        values = token_loop_values(blob, scan.pos, needed, maxval)
    planes = values.astype(np.float64).reshape(height, width, channels).transpose(2, 0, 1)
    return np.repeat(planes, 3 // channels, axis=0) / float(maxval)


def outcome(decode, blob, at, needed, maxval):
    try:
        return decode(blob, at, needed, maxval).tolist()
    except PnmError as exc:
        return str(exc), exc.offset, type(exc.offset)


HEADER = b"P2\n3 2\n255"  # the body starts right after the maxval digits


class TestAsciiBody:
    """_ascii_values against the token loop it replaced, on one header."""

    @pytest.mark.parametrize("body", [
        b"\n1 2 3\n4 5 6\n",
        b"\n1 # comment\n2 3\n# whole line\n4 5 6",
        b" 1#notcomment 2",  # '#' inside a token: not a decimal number
        b"\n1 2 3 4 5 6 # comment with # inside and no newline",
        b"\n1\t2\r\n3\x0b4\x0c5  6",
        b"\n007 0255 000 00 0 01",
        b"\n1 2 3 4 5 6 7 x # trailing tokens are ignored",
        b"\n#\n#x\n1 2 3 4 5 6\n",
        b"\n1 2 3 4 5 6#",  # the last token holds a '#'
        b"\n1 x 2 3 4 5",
        b"\n1 -2 3 4 5 6",
        b"\n1 +2 3 4 5 6",
        b"\n1 2 \xff 4 5 6",
        b"\n1 2 abcdefghijk 4 5 6",
        b"\n1 256 3 4 5 6",
        b"\n1 2 0256 4 5 6",
        b"\n1 2 0001000 4 5 6",
        b"\n1 2 3 " + b"9" * 25 + b" 5 6",
        b"\n1 999 x 4 5 6",  # the first bad token decides
        b"\n1 x 999 4 5 6",
        b"\n1 2 3 4 5",
        b"\n1 2 3 4 5 # only a comment left",
        b"\n1 2 3 4 5\n\n\t ",
        b"",
        b"   ",
    ])
    def test_matches_token_loop(self, body):
        blob = HEADER + body
        assert outcome(D._ascii_values, blob, len(HEADER), 6, 255) == outcome(
            token_loop_values, blob, len(HEADER), 6, 255
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_bodies_match_token_loop(self, seed):
        pieces = [b" ", b"\n", b"\t", b"\r", b"#", b"# c\n", b"#x", b"0", b"00", b"7",
                  b"12", b"99", b"255", b"256", b"0001", b"0000", b"1000", b"x", b"-1",
                  b"\xff", b"9" * 25, b"0" * 30 + b"5", b"1#", b"\n#a b\n"]
        rng = np.random.default_rng(seed)
        for _ in range(300):
            body = b" " + b"".join(pieces[i] for i in rng.integers(0, len(pieces), 20))
            needed = int(rng.integers(1, 8))
            maxval = int(rng.choice([1, 7, 99, 255]))
            blob = HEADER + body
            assert outcome(D._ascii_values, blob, len(HEADER), needed, maxval) == outcome(
                token_loop_values, blob, len(HEADER), needed, maxval
            ), body

    def test_leading_zeros_beyond_int_digit_limit(self):
        # int() refuses strings of over 4300 digits; the value is still 1
        blob = b"P2\n2 1\n255\n" + b"0" * 5000 + b"1 2\n"
        assert np.array_equal(unit_load_pnm(blob)[0, 0], [1 / 255, 2 / 255])

    def test_value_beyond_int_digit_limit_exceeds_maxval(self):
        head = b"P2\n2 1\n255\n1 "
        with pytest.raises(PnmError, match="pixel value of 5000 digits exceeds maxval 255") as err:
            D.load_pnm(head + b"9" * 5000 + b"\n")
        assert err.value.offset == len(head)

    @pytest.mark.parametrize("body, message, offset", [
        (b"\n1 12x\n", "pixel value is not a decimal number: b'12x'", 13),
        (b"\n1 # c\n300\n", "pixel value 300 exceeds maxval 255", 17),
        (b"\n1 # c\n     ", "missing pixel value", 22),
    ])
    def test_errors_through_load_pnm(self, body, message, offset):
        with pytest.raises(PnmError) as err:
            D.load_pnm(b"P2\n2 1\n255" + body)
        assert str(err.value).startswith(message)
        assert err.value.offset == offset


def pnm_outcome(decode, blob):
    """decode(blob) as (shape, bytes) of a 3xHxW float image, or the
    PnmError message and offset."""
    try:
        img = decode(blob)
        return img.shape, img.tobytes()
    except PnmError as exc:
        return str(exc), exc.offset


class TestPnmHeader:
    """load_pnm against scanner_load_pnm: the same array, or the same
    PnmError message and offset."""

    @pytest.mark.parametrize("blob, message", [
        (b"# c\nP5 2 1 255\n\x01\x02", None),
        (b"P5# c\n 2 1 255\n\x01\x02", "unsupported magic"),  # '#' inside the magic token
        (b"P5\n# c\n2 1 255\n\x01\x02", None),
        (b"P5 2\n# c\n1 255\n\x01\x02", None),
        (b"P5 2 1\n#c\n#\n\n# c 9\n255\n\x01\x02", None),
        (b"P5 2 1 255\n# c\n\x01\x02", None),  # after maxval a '#' is pixel data
        (b"P5\n#\n#\n2 #c\n1#c\n255\n\x01\x02", "height is not a decimal"),
        (b"P2 2 1 255 1 2 # a final comment with no newline", None),
        (b"P5 2 1 # a final comment with no newline", "missing maxval"),
        (b"P5 2# 1 255\n\x01\x02", "width is not a decimal"),
        (b"P5 2 1 255#\n\x01\x02", "maxval is not a decimal"),
        (b"", "empty input"),
        (b" \n\t# only a comment", "empty input"),
        (b"P5", "missing width"),
        (b"P5 2 # c\n", "missing height"),
        (b"P5 2 1", "missing maxval"),
        (b"P5 x 1 255\n\x01\x02", "width is not a decimal"),
        (b"P5 2 -1 255\n\x01\x02", "height is not a decimal"),
        (b"P5 2 1 +255\n\x01\x02", "maxval is not a decimal"),
        (b"P5 2 1 \xff\n\x01\x02", "maxval is not a decimal"),
        (b"P5 2\x1c1 255\n\x01\x02", "width is not a decimal"),  # 0x1c is no separator
        (b"P5 2 1 255", "missing separator after maxval"),
        (b"P6 1 1 255", "missing separator after maxval"),
        (b"P4 1 1 255\n\x00", "unsupported magic"),
        (b"P5 0 1 255\n", "degenerate image extents"),
        (b"P5 1 1 0\n\x00", "maxval 0 outside"),
    ])
    def test_matches_scanner(self, blob, message):
        got = pnm_outcome(unit_load_pnm, blob)
        assert got == pnm_outcome(scanner_load_pnm, blob)
        if message is None:
            assert isinstance(got[1], bytes)
        else:
            assert got[0].startswith(message)

    @pytest.mark.parametrize("ws", list(b" \t\r\n\x0b\x0c"))
    def test_each_whitespace_byte_separates(self, ws):
        sep = bytes([ws])
        blob = sep.join([b"P5", b"2", b"1", b"255", b"\x01\x02"])
        assert pnm_outcome(unit_load_pnm, blob) == pnm_outcome(scanner_load_pnm, blob)
        assert np.array_equal(unit_load_pnm(blob)[0, 0], [1 / 255, 2 / 255])

    @pytest.mark.parametrize("seed", range(3))
    def test_random_headers_match_scanner(self, seed):
        seps = [b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c", b"# c\n", b"#\n", b"#x#y\n",
                b"# 1 2\n", b"\n# q", b"#", b"\x1c", b""]
        fields = [[b"P5", b"P6", b"P2", b"P3", b"P5#", b"P7"], [b"1", b"2", b"x", b"0", b"02"],
                  [b"1", b"2", b"1#", b""], [b"255", b"7", b"1", b"256", b"0", b"9x"]]
        rng = np.random.default_rng(seed)

        def sep():
            return b"".join(seps[i] for i in rng.integers(0, len(seps), int(rng.integers(0, 4))))

        for _ in range(500):
            blob = sep() + b"".join(f[int(rng.integers(0, len(f)))] + sep() for f in fields)
            blob += rng.integers(0, 256, int(rng.integers(0, 14)), dtype=np.uint8).tobytes()
            assert pnm_outcome(unit_load_pnm, blob) == pnm_outcome(scanner_load_pnm, blob), blob

    @pytest.mark.parametrize("skipped, seconds", [
        (b"#" + b"x" * 6_000_000 + b"\n", 0.5),  # the byte scanner took 2.5 s
        (b"#\n" * 3_000_000, 1.0),  # the byte scanner took 3.8 s
    ], ids=["one-6MB-comment", "3M-comment-lines"])
    def test_long_header_comments_decode_in_one_pass(self, skipped, seconds):
        blob = b"P5\n" + skipped + b"1 1\n255\n\x07"
        start = time.perf_counter()
        img = unit_load_pnm(blob)
        assert time.perf_counter() - start < seconds
        assert np.all(img == 7 / 255)


class TestWritePnm:
    def test_roundtrip_all_formats(self):
        rng = np.random.default_rng(0)
        gray_plane = rng.integers(0, 256, size=(5, 4)) / 255.0
        gray = np.repeat(gray_plane[None], 3, axis=0)
        color = rng.integers(0, 256, size=(3, 5, 4)) / 255.0
        for fmt, img in [("P2", gray), ("P5", gray), ("P3", color), ("P6", color)]:
            back = unit_load_pnm(D.write_pnm(img, fmt))
            assert np.array_equal(back, img), fmt

    def test_gray_format_needs_equal_channels(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InputError):
            D.write_pnm(rng.random((3, 2, 2)), "P5")


class TestResize:
    def test_identity(self):
        rng = np.random.default_rng(2)
        pixels = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
        out = D.resize_bilinear(pixels, 255, 64)
        assert out.flags.c_contiguous
        assert np.array_equal(out, pixels.transpose(2, 0, 1) / 255.0)

    def test_constant_stays_constant(self):
        pixels = np.full((5, 7, 3), 37, dtype=np.uint8)
        out = D.resize_bilinear(pixels, 100, 64)
        assert np.all(out == 0.37)

    def test_row_upsample_closed_form(self):
        pixels = np.array([0, 255], dtype=np.uint8).reshape(1, 2, 1).repeat(3, axis=2)
        out = D.resize_bilinear(pixels, 255, 4)
        assert np.max(np.abs(out[0, 0] - [0.0, 0.25, 0.75, 1.0])) < 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        for (h, w, side, maxval) in [(5, 7, 64, 255), (100, 80, 64, 7), (3, 3, 8, 100),
                                     (3, 3, 2, 1)]:
            pixels = rng.integers(0, maxval + 1, size=(h, w, 3), dtype=np.uint8)
            got = D.resize_bilinear(pixels, maxval, side)
            oracle = bilinear_oracle(unit((pixels, maxval)), side, side)
            assert np.max(np.abs(got - oracle)) < 1e-12

    def test_zero_extent_rejected(self):
        with pytest.raises(EmptyInputError):
            D.resize_bilinear(np.zeros((0, 4, 3), dtype=np.uint8), 255, 64)


def float_resize_bilinear(image, target_size):
    """resize_bilinear before pixels stayed uint8: the whole 3xHxW
    [0, 1] float image in, a 3 x side x side image out."""
    _, h, w = image.shape
    if h == w == target_size:
        return image.copy()
    lo0, lo1, t = D._axis_positions(h, target_size)
    rows = image[:, lo0, :] * (1.0 - t)[None, :, None] + image[:, lo1, :] * t[None, :, None]
    lo0, lo1, t = D._axis_positions(w, target_size)
    return rows[:, :, lo0] * (1.0 - t)[None, None, :] + rows[:, :, lo1] * t[None, None, :]


def encode_pnm(values, fmt, maxval):
    """PNM bytes of (H, W, C) stored values, C = 1 for P2/P5, 3 for P3/P6."""
    h, w, _ = values.shape
    header = f"{fmt}\n{w} {h}\n{maxval}\n".encode("ascii")
    raster = values.reshape(h, -1)
    if fmt in ("P5", "P6"):
        return header + raster.tobytes()
    return header + "\n".join(" ".join(map(str, row)) for row in raster.tolist()).encode() + b"\n"


class TestStoredPixelsAgainstFloatPath:
    """The uint8 request path against the float path it replaced:
    scanner_load_pnm (the float decoder), float_resize_bilinear and
    rgb_from_unit must see the same bits."""

    @pytest.mark.parametrize("maxval", [255, 100])
    @pytest.mark.parametrize("fmt", ["P2", "P3", "P5", "P6"])
    @pytest.mark.parametrize("h, w", [(1, 1), (1, 97), (97, 1), (63, 63), (64, 64), (65, 65),
                                      (512, 256), (2048, 3)])
    def test_model_input_and_segmenter_bytes(self, h, w, fmt, maxval):
        rng = np.random.default_rng([h, w, maxval])
        channels = 3 if fmt in ("P3", "P6") else 1
        blob = encode_pnm(rng.integers(0, maxval + 1, size=(h, w, channels), dtype=np.uint8),
                          fmt, maxval)
        oracle = scanner_load_pnm(blob)
        pixels, got_maxval = D.load_pnm(blob)
        assert got_maxval == maxval and pixels.shape == (h, w, channels)
        model_input = D.resize_bilinear(pixels, maxval, 64)
        want = float_resize_bilinear(oracle, 64)
        assert model_input.shape == want.shape == (3, 64, 64)
        assert model_input.tobytes() == want.tobytes()
        # a gray picture stays one channel: the oracle's three are equal
        stored = SEG.rgb_from_stored(pixels, maxval)
        assert np.array_equal(np.broadcast_to(stored, (h, w, 3)), SEG.rgb_from_unit(oracle))


class TestNormalize:
    def test_unit_interval_maps_to_symmetric(self):
        img = np.zeros((3, 2, 2))
        img[:, 0, 0] = 1.0
        out = D.normalize(img)
        assert out[0, 0, 0] == 1.0
        assert out[0, 1, 1] == -1.0

    def test_mean_image_is_zero(self):
        img = np.full((2, 3, 4, 4), D.IMAGE_MEAN)
        assert np.all(D.normalize(img) == 0.0)


def _sample(img=None, label=0, task=D.TASK_DETECT):
    if img is None:
        img = np.zeros((3, 64, 64))
    return D.Sample(img, label, "mem", task)


def _manifest(per_class):
    entries = []
    for name, count in per_class.items():
        task = D.TASK_DETECT if name in D.DETECT_CLASSES else D.TASK_CLASSIFY
        for i in range(count):
            entries.append(D.ManifestEntry(f"{name}-{i}.pnm", task, name))
    return D.DatasetManifest(entries)


class TestBatches:
    def _samples(self, n):
        rng = np.random.default_rng(10)
        return [_sample(rng.random((3, 64, 64)), label=i % 2) for i in range(n)]

    def test_hundred_samples(self):
        batches = D.make_batches(self._samples(100), 32, range(100))
        assert [len(labels) for _, labels in batches] == [32, 32, 32, 4]

    def test_exactly_one_batch(self):
        batches = list(D.make_batches(self._samples(32), 32, range(32)))
        assert len(batches) == 1 and batches[0][0].shape == (32, 3, 64, 64)

    def test_label_multiset_preserved(self):
        samples = self._samples(77)
        order = np.random.default_rng(1).permutation(len(samples))
        batches = D.make_batches(samples, 32, order)
        got = sorted(l for _, labels in batches for l in labels)
        assert got == sorted(s.label for s in samples)

    def test_images_are_normalized_stack_in_order(self):
        samples = self._samples(10)
        order = np.random.default_rng(2).permutation(len(samples))
        batches = list(D.make_batches(samples, 4, order))
        assert [len(labels) for _, labels in batches] == [4, 4, 2]
        for at, (images, labels) in zip(range(0, 10, 4), batches):
            chunk = [samples[i] for i in order[at : at + 4]]
            expected = D.normalize(np.stack([s.image for s in chunk]))
            assert images.tobytes() == expected.tobytes()
            assert labels == [s.label for s in chunk]

    def test_bad_batch_size(self):
        with pytest.raises(ConfigurationError):
            list(D.make_batches(self._samples(4), 0, range(4)))


class TestManifestFile:
    def test_roundtrip(self, tmp_path):
        manifest = _manifest({"Yes": 2, "No": 1})
        path = str(tmp_path / "m.csv")
        synth.save_manifest(manifest, path)
        loaded = D.load_manifest(path)
        assert [e.path for e in loaded.entries] == [e.path for e in manifest.entries]

    def test_lf_line_endings(self, tmp_path):
        path = str(tmp_path / "m.csv")
        synth.save_manifest(_manifest({"Yes": 1}), path)
        raw = Path(path).read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"path,task,class\n")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("file,task,label\nx.pnm,detect,Yes\n")
        with pytest.raises(InputError):
            D.load_manifest(str(path))

    def test_bad_class_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("path,task,class\nx.pnm,detect,Maybe\n")
        with pytest.raises(InputError, match="line 2"):
            D.load_manifest(str(path))


class TestLoadSample:
    def test_bad_image_error_names_the_file_once_with_its_offset(self, tmp_path):
        (tmp_path / "scan.pnm").write_bytes(b"P5\n2 1\n255\n\x00")
        manifest = D.DatasetManifest(
            [D.ManifestEntry("scan.pnm", D.TASK_DETECT, "Yes")], base_dir=str(tmp_path)
        )
        with pytest.raises(PnmError) as err:
            D.load_sample(manifest, manifest.entries[0])
        message = str(err.value)
        assert message.startswith(str(tmp_path / "scan.pnm") + ": ")
        assert message.count("(byte offset") == 1
        assert message.endswith(f"(byte offset {err.value.offset})")


class TestSampleValidation:
    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            _sample(label=2, task=D.TASK_DETECT)

    def test_pixels_out_of_range(self):
        with pytest.raises(InputError):
            _sample(np.full((3, 4, 4), 1.5))


class TestPipelineDeterminism:
    def test_load_sample_bitwise_stable(self, tmp_path):
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, size=(3, 80, 90)) / 255.0
        img_path = tmp_path / "scan.pnm"
        img_path.write_bytes(D.write_pnm(img, "P6"))
        manifest = D.DatasetManifest(
            [D.ManifestEntry("scan.pnm", D.TASK_DETECT, "Yes")], base_dir=str(tmp_path)
        )
        a = D.load_sample(manifest, manifest.entries[0])
        b = D.load_sample(manifest, manifest.entries[0])
        assert a.image.tobytes() == b.image.tobytes()
        assert a.image.shape == (3, 64, 64)
        assert a.label == 1
