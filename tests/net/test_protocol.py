"""Frame codec properties: bit-identical round trips under arbitrary
payloads and arbitrary TCP chunking (split and coalesced reads)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.protocol import (
    F_CHUNK,
    F_ERROR,
    F_GOODBYE,
    F_HELLO,
    F_REQUEST,
    F_RESPONSE,
    FRAME_NAMES,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    decode_frame_body,
    encode_frame,
)

FRAME_TYPES = sorted(FRAME_NAMES)

# the codec's value universe (scalars nest into rows, dicts, lists)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=10), inner, max_size=6),
    ),
    max_leaves=25,
)


def chunked(blob, rnd, max_chunk):
    """Split ``blob`` into random-sized chunks (the TCP read schedule)."""
    chunks = []
    offset = 0
    while offset < len(blob):
        size = rnd.randint(1, max_chunk)
        chunks.append(blob[offset:offset + size])
        offset += size
    return chunks


@settings(max_examples=200, deadline=None)
@given(values, st.sampled_from(FRAME_TYPES))
def test_frame_roundtrip_bit_identical(payload, ftype):
    blob = encode_frame(ftype, payload)
    got_type, got_payload = decode_frame_body(blob[4:])
    assert got_type == ftype
    assert got_payload == payload
    # canonical: re-encoding the decoded payload reproduces the bytes
    assert encode_frame(ftype, got_payload) == blob


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(FRAME_TYPES), values),
             min_size=1, max_size=8),
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=64),
)
def test_decoder_survives_any_chunking(frames, rnd, max_chunk):
    stream = b"".join(encode_frame(ftype, payload)
                      for ftype, payload in frames)
    decoder = FrameDecoder()
    decoded = []
    for chunk in chunked(stream, rnd, max_chunk):
        decoded.extend(decoder.feed(chunk))
    assert decoded == frames
    assert decoder.buffered == 0


def test_decoder_coalesced_single_feed():
    frames = [(F_REQUEST, {"id": 1, "op": "ping", "args": {}}),
              (F_RESPONSE, {"id": 1, "result": {}}),
              (F_GOODBYE, {})]
    stream = b"".join(encode_frame(f, p) for f, p in frames)
    assert FrameDecoder().feed(stream) == frames


def test_partial_frame_stays_buffered():
    blob = encode_frame(F_HELLO, {"proto": PROTOCOL_VERSION})
    decoder = FrameDecoder()
    assert decoder.feed(blob[:7]) == []
    assert decoder.buffered == 7
    assert decoder.feed(blob[7:]) == [(F_HELLO, {"proto": PROTOCOL_VERSION})]
    assert decoder.buffered == 0


def test_oversized_frame_is_protocol_error_not_allocation():
    decoder = FrameDecoder(max_frame_bytes=128)
    huge_header = struct.pack("<I", 1 << 30)
    with pytest.raises(ProtocolError):
        decoder.feed(huge_header)


def test_encode_respects_frame_limit():
    with pytest.raises(ProtocolError):
        encode_frame(F_CHUNK, {"rows": ["x" * 4096]}, max_frame_bytes=256)


def test_bad_version_rejected():
    blob = bytearray(encode_frame(F_HELLO, {}))
    blob[4] = PROTOCOL_VERSION + 1
    with pytest.raises(ProtocolError):
        decode_frame_body(bytes(blob[4:]))


def test_unknown_frame_type_rejected():
    blob = bytearray(encode_frame(F_HELLO, {}))
    blob[5] = 0x7F
    with pytest.raises(ProtocolError):
        decode_frame_body(bytes(blob[4:]))


def test_undecodable_payload_is_protocol_error():
    with pytest.raises(ProtocolError):
        decode_frame_body(bytes((PROTOCOL_VERSION, F_ERROR)) + b"\xff\xff")


# -- trace-context propagation -------------------------------------------------

# what a real client attaches: trace id string + integer span id
trace_ctxs = st.fixed_dictionaries({
    "trace": st.text(min_size=1, max_size=24),
    "span": st.integers(min_value=0, max_value=2 ** 32),
})

# arbitrary python values a span tree might carry (including things the
# codec cannot encode, which trace_to_wire must scrub to reprs)
wild = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
        st.floats(allow_nan=False),
        st.text(max_size=20),
        st.binary(max_size=20),
        st.just(object()),
        st.just({1, 2, 3}),
        st.just(complex(1, 2)),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=15,
)


@settings(max_examples=150, deadline=None)
@given(
    trace_ctxs,
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=48),
)
def test_trace_ctx_roundtrips_under_chunking(ctx, rnd, max_chunk):
    """A REQUEST carrying trace_ctx survives any TCP read schedule
    bit-identically — the wire contract the stitched traces ride on."""
    request = {"id": 7, "op": "exec", "args": {"source": "+p(1)."},
               "trace_ctx": ctx}
    response = {"id": 7, "result": {},
                "trace": {"sid": 1, "name": "net.request", "wall_s": 0.5,
                          "attrs": {"remote_parent": ctx["span"]},
                          "children": [{"sid": 2, "name": "service.exec",
                                        "wall_s": 0.25}]}}
    stream = encode_frame(F_REQUEST, request) \
        + encode_frame(F_RESPONSE, response)
    decoder = FrameDecoder()
    decoded = []
    for chunk in chunked(stream, rnd, max_chunk):
        decoded.extend(decoder.feed(chunk))
    assert decoded == [(F_REQUEST, request), (F_RESPONSE, response)]
    assert decoded[0][1]["trace_ctx"] == ctx


@settings(max_examples=150, deadline=None)
@given(wild)
def test_trace_to_wire_output_always_encodes(record):
    """trace_to_wire scrubs arbitrary span attributes into values the
    frame codec accepts — attaching a trace can never break a frame."""
    from repro.net.protocol import trace_to_wire

    scrubbed = trace_to_wire(record)
    blob = encode_frame(F_RESPONSE, {"id": 1, "trace": scrubbed})
    got_type, payload = decode_frame_body(blob[4:])
    assert got_type == F_RESPONSE
    # scrubbing is idempotent modulo tuples->lists: decoding returns
    # exactly what was attached
    assert payload["trace"] == trace_to_wire(scrubbed)


def test_trace_to_wire_preserves_span_shape():
    from repro.net.protocol import trace_to_wire

    record = {"sid": 3, "name": "net.request", "wall_s": 0.125,
              "attrs": {"op": "exec", "weird": object()},
              "counters": {"join.seeks": 4},
              "children": ({"sid": 4, "name": "commit", "wall_s": 0.1},)}
    wired = trace_to_wire(record)
    assert wired["sid"] == 3 and wired["counters"] == {"join.seeks": 4}
    assert isinstance(wired["children"], list)  # tuples become lists
    assert isinstance(wired["attrs"]["weird"], str)  # repr-scrubbed


# -- golden frames: the bytes on the wire did not move ------------------------


def test_every_verb_encodes_byte_identically_to_the_golden_frames():
    """One REQUEST and one RESPONSE (plus CHUNKs) per verb, recorded at
    the commit before stubs and dispatch were derived from the verb
    table, must come out of today's client and server unchanged."""
    import json

    from repro.net.protocol import VERBS
    from tests.net import golden_frames

    with open(golden_frames.FIXTURE) as fh:
        golden = json.load(fh)
    # every registered verb has a golden call
    assert {golden_frames.CALLS[label][0] for label in golden_frames.CALLS} \
        >= {spec.name for spec in VERBS.values()}
    # the one deliberate change: a net session now numbers its
    # transactions like a local one ("<session>/txn-N", was ".../txn")
    _, request = decode_frame_body(bytes.fromhex(golden["exec"]["request"])[4:])
    assert request["args"]["name"] == "golden/txn"
    request["args"]["name"] = "golden/txn-1"
    golden["exec"]["request"] = encode_frame(F_REQUEST, request).hex()
    # and one removal: shard_prepare no longer takes ``preflight`` (the
    # shard always stages); an older server defaults the absent key to
    # True, a newer one ignores it when an older client sends it
    _, request = decode_frame_body(
        bytes.fromhex(golden["shard_prepare"]["request"])[4:])
    assert request["args"].pop("preflight") is True
    golden["shard_prepare"]["request"] = encode_frame(F_REQUEST, request).hex()

    recorded = golden_frames.record()
    assert sorted(recorded) == sorted(golden)
    for label in sorted(golden):
        for side in ("request", "response"):
            assert recorded[label][side] == golden[label][side], (label, side)
