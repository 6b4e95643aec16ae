"""Parsers fail only with ParseError: checkpoints and PPM/PGM files under
random truncations, byte mutations and appended bytes, plus the hand-made
cases that used to escape as other exception types or parse silently. A
checkpoint that parses re-saves as the same bytes."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY
from reinlab.checkpoint import MAGIC, VERSION, Checkpoint
from reinlab.data import decode_pgm, decode_ppm, write_pgm, write_ppm
from reinlab.errors import ContractError, ParseError


def _checkpoint_bytes():
    return Checkpoint(
        tensors={"backbone.w": (np.arange(6, dtype="<f4").reshape(2, 3), "backbone"),
                 "head.b": (np.ones(2, dtype="<f4"), "head")},
        meta={"config": {"seed": 3}, "note": "é"}).to_bytes()


CKPT = _checkpoint_bytes()


def mutations(raw):
    """1-3 (offset, byte) replacements inside ``raw``."""
    edit = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
    return st.lists(edit, min_size=1, max_size=3)


def apply(raw, edits):
    out = bytearray(raw)
    for at, value in edits:
        out[at] = value
    return bytes(out)


@PROPERTY
@given(cut=st.integers(0, len(CKPT) - 1))
def test_checkpoint_truncation_raises_parse_error(cut):
    with pytest.raises(ParseError):
        Checkpoint.from_bytes(CKPT[:cut])


@PROPERTY
@given(edits=mutations(CKPT))
def test_checkpoint_mutation_parses_or_raises_parse_error(edits):
    try:
        ckpt = Checkpoint.from_bytes(apply(CKPT, edits))
    except ParseError as e:
        assert 0 <= e.offset <= len(CKPT)
        return
    assert ckpt.to_bytes() == apply(CKPT, edits)


def test_checkpoint_duplicate_tensor_name_rejected_at_its_offset():
    raw = Checkpoint(tensors={"head.a": (np.zeros(2, dtype="<f4"), "head"),
                              "head.b": (np.zeros(3, dtype="<f4"), "head")}).to_bytes()
    assert len(raw) == 70
    second = raw.index(b"head.b")
    with pytest.raises(ParseError, match="duplicate") as err:
        Checkpoint.from_bytes(raw.replace(b"head.b", b"head.a"))
    assert err.value.offset == second


def test_checkpoint_metadata_that_would_not_load_is_not_saved():
    # integer keys sort as numbers when saved but as strings when loaded
    with pytest.raises(ContractError, match="round trip"):
        Checkpoint(meta={2: "a", 10: "b"}).to_bytes()


def _header(name: bytes, ndim, dims):
    return (MAGIC + struct.pack("<II", VERSION, 1) + struct.pack("<H", len(name))
            + name + struct.pack("<BB", 0, ndim) + struct.pack(f"<{ndim}I", *dims))


def test_checkpoint_dims_product_beyond_int64_rejected():
    # 2**16 to the 4th is 2**64, which wraps to 0 in int64 arithmetic
    raw = _header(b"w", 4, (1 << 16,) * 4)
    with pytest.raises(ParseError, match="truncated") as err:
        Checkpoint.from_bytes(raw)
    assert err.value.offset == len(raw)


def test_checkpoint_non_utf8_name_rejected_at_its_offset():
    with pytest.raises(ParseError, match="utf-8") as err:
        Checkpoint.from_bytes(_header(b"a\xff", 1, (1,)) + b"\0" * 8)
    assert err.value.offset == len(MAGIC) + 8 + 2 + 1


@pytest.mark.parametrize("meta", [b"[1]", b"{\"a\":", b"\xff{}", b"1" * 5000,
                                  b"[" * 100_000, b"", b"{\"a\": 1}",
                                  b"{\"b\":1,\"a\":2}", b"{\"a\":1,\"a\":2}"],
                         ids=["not-an-object", "bad-json", "not-utf8", "long-int",
                              "deep-nesting", "empty", "space", "unsorted",
                              "repeated-key"])
def test_checkpoint_bad_metadata_rejected(meta):
    raw = MAGIC + struct.pack("<II", VERSION, 0) + struct.pack("<I", len(meta)) + meta
    with pytest.raises(ParseError, match="metadata") as err:
        Checkpoint.from_bytes(raw)
    assert len(MAGIC) + 12 <= err.value.offset <= len(raw)


# ---------------------------------------------------------------------------
# PPM / PGM


DECODE = {"ppm": decode_ppm, "pgm": decode_pgm}


@pytest.fixture(scope="module")
def pnm(tmp_path_factory):
    """Bytes of a 5x4 PPM and PGM as ``write_ppm``/``write_pgm`` store them."""
    root = tmp_path_factory.mktemp("pnm")
    rng = np.random.default_rng(0)
    write_ppm(root / "a.ppm", rng.integers(0, 256, (3, 4, 5), dtype=np.uint8))
    write_pgm(root / "a.pgm", rng.integers(0, 6, (4, 5)))
    return {kind: (root / f"a.{kind}").read_bytes() for kind in DECODE}


@pytest.mark.parametrize("kind", ["ppm", "pgm"])
@PROPERTY
@given(data=st.data())
def test_pnm_truncation_raises_parse_error(pnm, kind, data):
    cut = data.draw(st.integers(0, len(pnm[kind]) - 1))
    with pytest.raises(ParseError):
        DECODE[kind](pnm[kind][:cut])


@pytest.mark.parametrize("kind", ["ppm", "pgm"])
@PROPERTY
@given(data=st.data())
def test_pnm_mutation_parses_or_raises_parse_error(pnm, kind, data):
    raw = pnm[kind]
    try:
        DECODE[kind](apply(raw, data.draw(mutations(raw))))
    except ParseError as e:
        assert 0 <= e.offset <= len(raw)


@pytest.mark.parametrize("kind", ["ppm", "pgm"])
@PROPERTY
@given(suffix=st.binary(min_size=1, max_size=16))
def test_pnm_trailing_bytes_raise_parse_error(pnm, kind, suffix):
    with pytest.raises(ParseError, match="trailing") as err:
        DECODE[kind](pnm[kind] + suffix)
    assert err.value.offset == len(pnm[kind])


def test_pgm_trailing_bytes_rejected_at_their_offset():
    head = b"P5\n2 2\n255\n"
    with pytest.raises(ParseError, match="4 trailing bytes") as err:
        decode_pgm(head + bytes(4) + b"junk")
    assert err.value.offset == len(head) + 4


@pytest.mark.parametrize("size", [b"-5 -4", b"0 4"], ids=["negative", "zero"])
def test_pnm_non_positive_size_rejected(size):
    with pytest.raises(ParseError, match="size"):
        decode_pgm(b"P5\n" + size + b"\n255\n" + b"\0" * 20)


def test_pnm_header_comments_do_not_recurse():
    # a header may hold any number of comment lines
    raw = b"P5\n" + b"# note\n" * 5000 + b"2 #w\n2\n255\n" + bytes([1, 2, 3, 4])
    np.testing.assert_array_equal(decode_pgm(raw), [[1, 2], [3, 4]])
