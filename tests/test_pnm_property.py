"""Property test of the PNM decoder.

Inputs start as valid write_pnm output in all four formats and are then
damaged: a header number replaced, bytes overwritten, the tail cut off.
Whatever the bytes, load_pnm returns uint8 pixels with the extents its
header declares and no value above maxval, or it raises PnmError at an
offset inside the input.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from swinscan import data as D  # noqa: E402
from swinscan.errors import PnmError  # noqa: E402

# header numbers: in and out of range, padded, signed, and longer than
# any accepted value
NUMBERS = st.one_of(
    st.integers(0, 300).map(str),
    st.integers(0, 2 ** 70).map(str),
    st.sampled_from(["", "00", "007", "4096", "-1", "+1", "0x10", "1" * 30, "0" * 40 + "3"]),
).map(str.encode)


@st.composite
def seeds(draw):
    """write_pnm bytes of a random image of at most 5 x 5 pixels."""
    fmt = draw(st.sampled_from(["P2", "P3", "P5", "P6"]))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    levels = draw(st.lists(st.integers(0, 255), min_size=3 * h * w, max_size=3 * h * w))
    image = np.array(levels, dtype=np.float64).reshape(3, h, w) / 255.0
    if fmt in ("P2", "P5"):
        image = np.repeat(image[:1], 3, axis=0)
    return D.write_pnm(image, fmt)


@st.composite
def damaged(draw):
    # write_pnm writes "<magic>\n<width> <height>\n255\n" and then the body
    magic, extents, maxval, body = draw(seeds()).split(b"\n", 3)
    fields = extents.split(b" ") + [maxval]
    # maxval is edited most often: below the largest pixel value it
    # must turn a decode into a PnmError
    for i, odds in enumerate((4, 4, 2)):
        if draw(st.integers(1, odds)) == 1:
            fields[i] = draw(NUMBERS)
    blob = bytearray(b"%s\n%s %s\n%s\n%s" % (magic, fields[0], fields[1], fields[2], body))
    for _ in range(draw(st.integers(0, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        del blob[draw(st.integers(0, len(blob))):]
    return bytes(blob)


@settings(max_examples=400, deadline=None)
@given(damaged())
def test_stored_pixels_within_the_header_or_pnm_error(blob):
    try:
        pixels, maxval = D.load_pnm(blob)
    except PnmError as exc:
        assert 0 <= exc.offset <= len(blob)
        return
    magic, width, height, header_maxval, _ = D.pnm_header(blob)
    assert maxval == header_maxval
    channels = 1 if magic in (b"P2", b"P5") else 3
    assert pixels.dtype == np.uint8 and pixels.shape == (height, width, channels)
    assert int(pixels.max()) <= maxval
