"""Differential oracle for the raw-line rewrite path.

``merge_cache_entries`` and ``canonicalize_cache_file`` copy valid lines
verbatim, re-encode only lines that took the fallback decode, and decode
an existing line only when an incoming key collides with it.  The
reference below is the rewrite they replaced: decode every line, then
re-encode every entry.  It lives only in this file.  On seeded inputs
built from committed bench lines (shuffles, duplicates, blank lines,
torn tails, flipped payload and CRC bits, suffix-less lines and
valid-CRC lines not in canonical shape), both must leave the same
bytes and return the same :class:`MergeStats`, and a load must count
the same corrupt and CRC lines in its report.

The reference reads text (UTF-8 with ``surrogateescape``, universal
newlines, ``str.strip``); the scan under test reads bytes.  A second
set of inputs pins the lines where the two could disagree: lone
``\r`` and CRLF line ends, non-ASCII and ``\x1c``-``\x1f`` whitespace
at a line's edges, bytes that are not UTF-8, and keys with escapes.
"""

from __future__ import annotations

import json
import random
import re
import zlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.sim.resultcache import (
    CacheFileReport,
    MergeStats,
    cache_file_name,
    canonicalize_cache_file,
    frame_line,
    load_cache_entries,
    merge_cache_entries,
    scan_cache_file,
)

COMMITTED = (
    Path(__file__).resolve().parents[2] / ".repro_cache" / cache_file_name("bench")
)

#: Each rewrite warns once per file; the returned counts are compared.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.sim.resultcache.CorruptCacheLineWarning"
)

SEEDS = range(30)

# ----------------------------------------------------------------------
# The decode-all reference.
# ----------------------------------------------------------------------

_CRC_SUFFIX_RE = re.compile(r"#([0-9a-f]{8})$")


def _crc(payload: str) -> str:
    raw = payload.encode("utf-8", "surrogateescape")
    return f"{zlib.crc32(raw) & 0xFFFFFFFF:08x}"


def _ref_encode(key: str, result: dict) -> str:
    payload = json.dumps({"key": key, "result": result}, sort_keys=True)
    return f"{payload}#{_crc(payload)}"


def _ref_decode(line: str) -> tuple[str, str | None, dict | None]:
    match = _CRC_SUFFIX_RE.search(line)
    if match is None:
        return "corrupt", None, None
    payload = line[: match.start()]
    if _crc(payload) != match.group(1):
        return "crc", None, None
    try:
        entry = json.loads(payload)
    except json.JSONDecodeError:
        return "corrupt", None, None
    if (
        not isinstance(entry, dict)
        or not isinstance(entry.get("key"), str)
        or not isinstance(entry.get("result"), dict)
    ):
        return "corrupt", None, None
    return "ok", entry["key"], entry["result"]


class _Reference:
    """Decode-all read, merge and canonicalize; records what it did."""

    def __init__(self) -> None:
        self.corrupt = 0
        self.crc = 0
        self.rewrote = False
        self.report: CacheFileReport | None = None

    def read(self, path: Path) -> tuple[list[str], dict[str, dict], bool]:
        order: list[str] = []
        values: dict[str, dict] = {}
        dirty = False
        lines = blank = corrupt = crc = 0
        with path.open(encoding="utf-8", errors="surrogateescape") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    dirty = True
                    blank += 1
                    continue
                lines += 1
                status, key, result = _ref_decode(line)
                if status != "ok":
                    dirty = True
                    corrupt += 1
                    crc += status == "crc"
                    continue
                if key in values:
                    dirty = True
                else:
                    order.append(key)
                values[key] = result
        self.corrupt += corrupt
        self.crc += crc
        entries = lines - corrupt
        self.report = CacheFileReport(
            path=path,
            lines=lines,
            entries=entries,
            crc_failures=crc,
            corrupt_lines=corrupt - crc,
            duplicate_keys=entries - len(values),
            blank_lines=blank,
        )
        return order, values, dirty

    def write(self, path: Path, entries) -> None:
        self.rewrote = True
        path.write_text("".join(_ref_encode(k, r) + "\n" for k, r in entries))

    def merge(self, path: Path, items) -> MergeStats:
        order, values, dirty = self.read(path)
        existing = len(order)
        new = 0
        for key, result in items:
            if key not in values:
                order.append(key)
                values[key] = result
                new += 1
        if new or dirty:
            self.write(path, ((key, values[key]) for key in order))
        return MergeStats(new, existing, self.corrupt, self.crc, 0)

    def canonicalize(self, path: Path) -> MergeStats:
        order, values, dirty = self.read(path)
        ordered = sorted(values)
        if dirty or order != ordered:
            self.write(path, ((key, values[key]) for key in ordered))
        return MergeStats(0, len(values), self.corrupt, self.crc, 0)


# ----------------------------------------------------------------------
# Seeded inputs.
# ----------------------------------------------------------------------


def _flip(line: str, start: int, stop: int, rng: random.Random) -> str:
    """``line`` with one low bit of one character in ``[start, stop)`` flipped.

    Only bits 0-4 flip, so a printable character stays printable and a
    flip never splits the line.
    """
    index = rng.randrange(start, stop)
    char = chr(ord(line[index]) ^ (1 << rng.randrange(5)))
    return line[:index] + char + line[index + 1 :]


def _off_shape(key: str, result: dict, rng: random.Random) -> str:
    """A valid-CRC line that is not in canonical shape (valid entry or not)."""
    payload = rng.choice(
        [
            # Valid entries the load must decode in full.
            json.dumps({"result": result, "key": key}),
            json.dumps({"key": key, "result": result}, separators=(",", ":")),
            json.dumps({"key": key + "\\", "result": result}, sort_keys=True),
            json.dumps({"key": key + "é", "result": result}, sort_keys=True),
            json.dumps({"key": key, "result": result, "z": 1}, sort_keys=True),
            # Structurally wrong lines, as a torn write can leave them.
            json.dumps(["not", "a", "dict"]),
            json.dumps({"result": {"no": "key"}}),
            json.dumps({"key": 42, "result": {}}),
            json.dumps({"key": key}),
            json.dumps({"key": key, "result": []}),
        ]
    )
    return frame_line(payload)


def _mutate(line: str, rng: random.Random) -> list[str]:
    """Zero or more lines standing in for one committed ``line``."""
    kind = rng.choice(
        [
            "keep",
            "keep",
            "keep",
            "padded",
            "duplicate",
            "blank",
            "torn",
            "payload-bit",
            "crc-bit",
            "no-suffix",
            "off-shape",
        ]
    )
    suffix = len(line) - len("#00000000")
    if kind == "padded":
        return ["  " + line + "\t"]
    if kind == "duplicate":
        return [line, line]
    if kind == "blank":
        return [line, rng.choice(["", "   "])]
    if kind == "torn":
        return [line[: rng.randrange(1, len(line))]]
    if kind == "payload-bit":
        return [_flip(line, 0, suffix, rng)]
    if kind == "crc-bit":
        return [_flip(line, suffix + 1, len(line), rng)]
    if kind == "no-suffix":
        return [line[:suffix]]
    if kind == "off-shape":
        entry = json.loads(line[:suffix])
        return [_off_shape(entry["key"], entry["result"], rng)]
    return [line]


def _seeded_input(
    seed: int, committed: list[str]
) -> tuple[str, list[tuple[str, dict]]]:
    """One cache file's text and one batch of incoming merge items."""
    rng = random.Random(seed)
    picked = rng.sample(committed, 24)
    held, spare = picked[:16], picked[16:]
    lines = [out for line in held for out in _mutate(line, rng)]
    rng.shuffle(lines)
    text = "".join(line + "\n" for line in lines)
    if rng.random() < 0.5:
        tail = rng.choice(spare)
        text += tail[: rng.randrange(1, len(tail))]  # torn, no newline
    # Incoming items: some collide with valid held entries, always with
    # the off-shape ones, carrying a result the existing entry must beat;
    # the rest are new.
    held_keys = {json.loads(line[: -len("#00000000")])["key"] for line in held}
    stripped = (line.strip() for line in lines)
    valid = [key for status, key, _ in map(_ref_decode, stripped) if status == "ok"]
    colliding = {key for key in valid if key not in held_keys}
    colliding.update(rng.sample(valid, min(4, len(valid))))
    items = [(key, {"incoming": seed}) for key in sorted(colliding)]
    for line in spare[:4]:
        entry = json.loads(line[: -len("#00000000")])
        items.append((entry["key"], entry["result"]))
    rng.shuffle(items)
    return text, items


@pytest.fixture(scope="module")
def committed() -> list[str]:
    return COMMITTED.read_text().splitlines()


def _pair(tmp_path: Path, text: str | bytes) -> tuple[Path, Path]:
    data = text.encode() if isinstance(text, str) else text
    ref, raw = tmp_path / "ref.jsonl", tmp_path / "raw.jsonl"
    ref.write_bytes(data)
    raw.write_bytes(data)
    return ref, raw


class _Inode:
    """Whether one call replaced ``path`` (a rewrite lands a new inode)."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.inode = path.stat().st_ino

    def rewrote(self) -> bool:
        return self.path.stat().st_ino != self.inode


@pytest.mark.parametrize("seed", SEEDS)
def test_load_matches_decode_all_reference(seed, committed, tmp_path):
    """The load's report plus its first-use rejections count every bad line."""
    text, _ = _seeded_input(seed, committed)
    ref_path, raw_path = _pair(tmp_path, text)
    reference = _Reference()
    _, values, _ = reference.read(ref_path)
    store = load_cache_entries(raw_path)
    rejected = []
    store.on_reject = lambda: rejected.append(1)
    assert dict(store) == values
    report = store.report
    assert (report.skipped + len(rejected), report.crc_failures) == (
        reference.corrupt,
        reference.crc,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_matches_decode_all_reference(seed, committed, tmp_path):
    text, items = _seeded_input(seed, committed)
    ref_path, raw_path = _pair(tmp_path, text)
    reference = _Reference()
    expected = reference.merge(ref_path, items)
    inode = _Inode(raw_path)
    stats = merge_cache_entries(raw_path, items)
    assert raw_path.read_bytes() == ref_path.read_bytes()
    assert stats == expected
    assert inode.rewrote() == reference.rewrote


@pytest.mark.parametrize("seed", SEEDS)
def test_canonicalize_matches_decode_all_reference(seed, committed, tmp_path):
    text, _ = _seeded_input(seed, committed)
    ref_path, raw_path = _pair(tmp_path, text)
    reference = _Reference()
    expected = reference.canonicalize(ref_path)
    inode = _Inode(raw_path)
    assert canonicalize_cache_file(raw_path) == expected
    assert raw_path.read_bytes() == ref_path.read_bytes()
    assert inode.rewrote() == reference.rewrote


def test_canonicalize_whole_committed_cache_matches_reference(tmp_path):
    """The full 1,560-line bench cache, reversed and with one duplicate."""
    lines = COMMITTED.read_text().splitlines(keepends=True)
    text = "".join(reversed(lines)) + lines[len(lines) // 2]
    ref_path, raw_path = _pair(tmp_path, text)
    reference = _Reference()
    expected = reference.canonicalize(ref_path)
    assert canonicalize_cache_file(raw_path) == expected
    assert expected.existing_entries == len(lines)
    assert raw_path.read_bytes() == ref_path.read_bytes()
    assert reference.rewrote


# ----------------------------------------------------------------------
# Bytes where a binary scan and the text reference could disagree.
# ----------------------------------------------------------------------


def _frame_bytes(payload: bytes) -> bytes:
    """A framed line over raw payload bytes, which need not be UTF-8."""
    return payload + b"#%08x" % zlib.crc32(payload)


def _edge_file(case: str, committed: list[str]) -> bytes:
    """Three committed lines around one of the scan's edge cases."""
    a, b, c = (line.encode() for line in committed[:3])
    entry = json.loads(committed[3][: -len("#00000000")])
    key, result = entry["key"], entry["result"]
    body = json.dumps(result, sort_keys=True).encode()
    cut = len(a) // 2
    flipped = bytearray(a)
    flipped[cut] ^= 0x80
    if case == "lone-cr-in-payload":
        return a[:cut] + b"\r" + a[cut:] + b"\n" + b + b"\n"
    if case == "lone-cr-ends-lines":
        return a + b"\r" + b + b"\r\r" + c + b"\r"
    if case == "crlf":
        return a + b"\r\n" + b + b"\r\n\r\n" + c + b"\r\n"
    if case == "trailing-x1c":
        return a + b"\x1c\n" + b + b"\x1f \n" + c + b"\n"
    if case == "trailing-nel":
        return a + "\u0085".encode() + b"\n" + b + b"\n"
    if case == "trailing-nbsp":
        return a + "\u00a0".encode() + b"\n" + b + "\u3000\n".encode()
    if case == "leading-edges":
        return b"\x1e" + a + b"\n" + "\u00a0\u2028".encode() + b + b"\n"
    if case == "trailing-lone-x85":  # not UTF-8: a surrogate, not whitespace
        return a + b"\x85\n" + b + b"\n"
    if case == "high-bit-flip":
        return bytes(flipped) + b"\n" + b + b"\n"
    if case == "non-utf8-valid-crc":
        odd = b'{"result": ' + body + b', "key": "' + key.encode() + b'\xff"}'
        return a + b"\n" + _frame_bytes(odd) + b"\n" + b + b"\n"
    if case == "non-utf8-off-json":
        odd = b'{"key": "' + key.encode() + b'", "result": ' + body + b"\xff}"
        return a + b"\n" + _frame_bytes(odd) + b"\n" + b + b"\n"
    for name, odd_key in (
        ("escaped-quote-key", key + '"'),
        ("escaped-unicode-key", key + "\u00e9"),
        ("escaped-backslash-key", key + "\\"),
        ("escaped-result-open-key", key + '", "result": {'),
    ):
        if case == name:
            odd = json.dumps({"key": odd_key, "result": result}, sort_keys=True)
            return a + b"\n" + _frame_bytes(odd.encode()) + b"\n" + b + b"\n"
    raise ValueError(case)


EDGE_CASES = [
    "lone-cr-in-payload",
    "lone-cr-ends-lines",
    "crlf",
    "trailing-x1c",
    "trailing-nel",
    "trailing-nbsp",
    "leading-edges",
    "trailing-lone-x85",
    "high-bit-flip",
    "non-utf8-valid-crc",
    "non-utf8-off-json",
    "escaped-quote-key",
    "escaped-unicode-key",
    "escaped-backslash-key",
    "escaped-result-open-key",
]


@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_bytes_match_decode_all_reference(case, committed, tmp_path):
    """Load, verify, merge and canonicalize each see what the text read sees."""
    data = _edge_file(case, committed)
    ref_path, raw_path = _pair(tmp_path, data)
    reference = _Reference()
    _, values, _ = reference.read(ref_path)
    report = replace(reference.report, path=raw_path)
    store = load_cache_entries(raw_path)
    assert dict(store) == values
    assert store.report == report
    assert scan_cache_file(raw_path) == report

    # Every valid key collides with an incoming entry, and two are new.
    spare = [json.loads(line[: -len("#00000000")]) for line in committed[4:6]]
    items = [(key, {"incoming": 1}) for key in values]
    items += [(entry["key"], entry["result"]) for entry in spare]
    for write in ("merge", "canonicalize"):
        ref_path, raw_path = _pair(tmp_path, data)
        reference = _Reference()
        inode = _Inode(raw_path)
        if write == "merge":
            expected = reference.merge(ref_path, items)
            assert merge_cache_entries(raw_path, items) == expected
        else:
            expected = reference.canonicalize(ref_path)
            assert canonicalize_cache_file(raw_path) == expected
        assert raw_path.read_bytes() == ref_path.read_bytes()
        assert inode.rewrote() == reference.rewrote


#: What the fuzzed files are cut from besides committed lines: line
#: ends, whitespace only ``str.strip`` knows, bytes that are not UTF-8,
#: and a stray suffix mark.
_FUZZ_TOKENS = [
    b"\n",
    b"\r",
    b"\r\n",
    b" ",
    b"\t",
    b"\x0b",
    b"\x1c",
    b"\x1f",
    "\u0085".encode(),
    "\u00a0".encode(),
    "\u2028".encode(),
    b"\xc2",
    b"\xff",
    b"#",
]


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_bytes_load_as_the_text_read_does(seed, committed, tmp_path):
    rng = random.Random(seed)
    data = b"".join(
        rng.choice(committed).encode()
        if rng.random() < 0.3
        else rng.choice(_FUZZ_TOKENS)
        for _ in range(40)
    )
    ref_path, raw_path = _pair(tmp_path, data)
    reference = _Reference()
    _, values, _ = reference.read(ref_path)
    report = replace(reference.report, path=raw_path)
    store = load_cache_entries(raw_path)
    assert dict(store) == values
    assert store.report == report
    assert scan_cache_file(raw_path) == report
