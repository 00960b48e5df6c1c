"""Property tests of the request decoder.

`swinscan predict` hands an image file's bytes and its options straight
to service._request; an HTTP body reaches the same checks through
parse_request's JSON and base64 steps.  Given the same fields, the two
paths return the same PredictRequest or raise the same RequestError.
And parse_request answers any damage to a valid body with a
PredictRequest or a RequestError, and nothing else.
"""

import base64
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from swinscan import service as SV  # noqa: E402
from test_pnm_property import damaged, seeds  # noqa: E402

# a value of every JSON type, in and out of (0, MAX_PIXEL_SPACING_MM]
SPACINGS = st.one_of(
    st.none(),
    st.floats(),  # NaN and both infinities included
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(10 ** 300, 10 ** 310),
    st.sampled_from([0, 0.0, -0.0, 1000, 1000.0, 1000.0000000000001, 5e-324]),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
PATIENT_REFS = st.one_of(
    st.none(),
    st.text(max_size=8),
    st.sampled_from(["Zoë", "\udc80", "\ud800x"]),  # lone surrogates survive JSON's \u escapes
    st.integers(),
)


def outcome(call):
    """What a request decode gave, in a form == compares field by field."""
    try:
        req = call()
    except SV.RequestError as exc:
        return "refused", exc.status, exc.code, str(exc)
    return ("accepted", req.pixels.dtype, req.pixels.shape, req.pixels.tobytes(), req.maxval,
            req.task, req.pixel_spacing_mm, req.patient_ref)


@settings(max_examples=300, deadline=None)
@given(damaged(), st.sampled_from(SV.VALID_TASKS), SPACINGS, PATIENT_REFS)
def test_cli_fields_decode_as_their_json_body_does(raw, task, spacing, patient_ref):
    body = json.dumps({"image": base64.b64encode(raw).decode("ascii"), "task": task,
                       "pixel_spacing_mm": spacing, "patient_ref": patient_ref})
    assert (outcome(lambda: SV._request(raw, task, spacing, patient_ref))
            == outcome(lambda: SV.parse_request(body.encode("utf-8"))))


@st.composite
def damaged_bodies(draw):
    """A valid request body with bytes flipped, inserted or deleted, its
    tail cut off, or a run of `[` put in."""
    body = bytearray(json.dumps({
        "image": base64.b64encode(draw(seeds())).decode("ascii"),
        "task": draw(st.sampled_from(SV.VALID_TASKS)),
        "pixel_spacing_mm": 0.5,
        "patient_ref": "case-7",
    }).encode("utf-8"))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(body)))
        edit = draw(st.sampled_from(["flip", "insert", "delete", "truncate", "nest"]))
        if edit == "flip" and at < len(body):
            body[at] = draw(st.integers(0, 255))
        elif edit == "insert":
            body[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif edit == "delete":
            del body[at:at + draw(st.integers(1, 8))]
        elif edit == "truncate":
            del body[at:]
        elif edit == "nest":
            body[at:at] = b"[" * draw(st.integers(1, 100_000))
    return bytes(body)


@settings(max_examples=1500, deadline=None)
@given(damaged_bodies())
def test_damaged_body_is_a_request_or_a_request_error(body):
    try:
        req = SV.parse_request(body)
    except SV.RequestError as exc:
        assert exc.status == 400
        return
    assert isinstance(req, SV.PredictRequest)
