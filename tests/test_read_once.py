"""Reading each corpus file once: tree digests, timestamp parsing, file
reads and the directory loader's error contract.

The tree digest and the timestamp parser each have a fast path; the code
they replaced is kept in _support as the oracle. The loader fuzz builds
malformed conversation directories and checks that only RumorVetError
escapes, and that the CLI answers with an exit code, never a traceback.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rumorvet import cli, manifest
from rumorvet.corpus import (
    find_conversation_dirs,
    load_split,
    parse_json,
    parse_timestamp,
    post_from_dict,
    read_json,
)
from rumorvet.errors import MalformedStructure, ModelFormatError, RumorVetError
from rumorvet.manifest import checksum, sha256_tree
from rumorvet.synthetic import write_conversation_dir

from ._support import make_conv, parse_timestamp_oracle, sha256_tree_oracle

FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# "a", "a-b" and "a.b" order differently as strings than as path parts.
_NAMES = st.sampled_from(["a", "a-b", "a.b", "b", ".hidden", "x.json", "A", "é", "z z"])
_trees = st.dictionaries(
    _NAMES,
    st.recursive(st.binary(max_size=40), lambda kids: st.dictionaries(_NAMES, kids, max_size=3), max_leaves=10),
    max_size=4,
)


def _write(root: Path, tree: dict) -> None:
    for name, node in tree.items():
        if isinstance(node, dict):
            (root / name).mkdir()
            _write(root / name, node)
        else:
            (root / name).write_bytes(node)


def _files(root: Path) -> list[str]:
    return sorted(str(p) for p in root.rglob("*") if p.is_file())


# Which symlinks to add: a file link, an in-tree directory link (its files
# would be counted twice if followed), an outside directory link and a
# dangling link.
_links = st.fixed_dictionaries({kind: st.booleans() for kind in ("file", "dir", "outside", "dangling")})


def _add_links(root: Path, outside: Path, links: dict) -> None:
    files = [Path(p) for p in _files(root)]
    dirs = sorted(p for p in root.rglob("*") if p.is_dir())
    if links["file"] and files:
        (root / "link-file").symlink_to(files[0])
    if links["dir"] and dirs:
        (root / "link-dir").symlink_to(dirs[0], target_is_directory=True)
    if links["outside"]:
        (outside / "f").write_bytes(b"outside")
        (root / "a-link").symlink_to(outside, target_is_directory=True)
    if links["dangling"]:
        (root / "b-dangling").symlink_to(root / "no-such-file")


@FUZZ
@given(tree=_trees, links=_links, known=st.sets(st.integers(0, 30)))
def test_tree_digest_equals_oracle(tree, links, known):
    with tempfile.TemporaryDirectory() as tmp:
        root, outside = Path(tmp) / "root", Path(tmp) / "outside"
        root.mkdir()
        outside.mkdir()
        _write(root, tree)
        _add_links(root, outside, links)
        want = sha256_tree_oracle(root)
        assert sha256_tree(root) == want
        files = _files(root)
        digests = {
            p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for i, p in enumerate(files)
            if i in known
        }
        with mock.patch.object(manifest, "sha256_file", wraps=manifest.sha256_file) as opened:
            assert sha256_tree(root, digests) == want
        hashed = sorted(call.args[0] for call in opened.call_args_list)
        assert hashed == [p for p in files if p not in digests]


def test_tree_digest_order_is_by_path_parts(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "b").write_bytes(b"1")
    (tmp_path / "a-b").write_bytes(b"2")
    (tmp_path / ".hidden").write_bytes(b"")
    assert sha256_tree(tmp_path) == sha256_tree_oracle(tmp_path)


def test_supplied_digests_are_used_unread(tmp_path):
    (tmp_path / "x.json").write_bytes(b"{}")
    wrong = {str(tmp_path / "x.json"): "0" * 64}
    assert sha256_tree(tmp_path, wrong) != sha256_tree_oracle(tmp_path)


@FUZZ
@given(replies=st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_loader_digests_give_the_oracle_tree_digest(replies):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "split"
        for i, n in enumerate(replies):
            _write_thread(root / "nested" / f"t{i}", f"t{i}", n, frozenset(), 0)
        (root / "README").write_text("not a post\n", encoding="utf-8")
        digests = {}
        loaded = load_split(root, digests=digests)
        assert [len(c.replies) for c in loaded] == replies
        assert sorted(digests) == [p for p in _files(root) if not p.endswith("README")]
        with mock.patch.object(manifest, "sha256_file", wraps=manifest.sha256_file) as opened:
            assert checksum(root, digests) == "tree:" + sha256_tree_oracle(root)
        assert [call.args[0] for call in opened.call_args_list] == [str(root / "README")]


def test_conversation_dirs_skip_symlinked_directories(tmp_path):
    write_conversation_dir(make_conv("t1"), tmp_path / "real")
    (tmp_path / "linked").symlink_to(tmp_path / "real", target_is_directory=True)
    assert find_conversation_dirs(tmp_path) == [str(tmp_path / "real" / "t1")]
    assert find_conversation_dirs(tmp_path) == [
        str(p.parent) for p in sorted(tmp_path.rglob("structure.json")) if (p.parent / "source-tweet").is_dir()
    ]


# -- timestamps ----------------------------------------------------------------

_offsets = st.integers(-23 * 60, 23 * 60).map(lambda m: timezone(timedelta(minutes=m)))
_aware = st.builds(
    lambda dt, tz: dt.replace(tzinfo=tz),
    st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)),
    _offsets,
)
_iso = st.one_of(
    st.builds(
        lambda dt, sep, spec: dt.isoformat(sep=sep, timespec=spec),
        st.one_of(_aware, st.datetimes()),
        st.sampled_from(["T", " "]),
        st.sampled_from(["seconds", "milliseconds", "microseconds", "minutes", "hours"]),
    ),
    _aware.map(lambda dt: dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")),
    st.dates().map(lambda d: d.isoformat()),
)
_twitter = _aware.map(lambda dt: dt.strftime("%a %b %d %H:%M:%S %z %Y"))
_epochs = st.one_of(
    st.integers(-(10**12), 10**12),
    st.floats(),
    st.integers(-(10**11), 10**11).map(str),
    st.floats().map(repr),
    st.sampled_from(["20150107", "1_000", " 42 ", "1e400", "nan", "-inf", "0x10"]),
)
_junk = st.one_of(
    st.text(max_size=30),
    st.sampled_from(["", "Z", "2015-01-07Z", "Wed Jan 07 11:06:08 +0000 2015Z", "wed jan 07 11:06:08 +0000 2015"]),
    st.sampled_from([None, True, [], {}]),
)


def _outcome(parse, value):
    try:
        dt = parse(value)
    except Exception as exc:  # the exception class is part of the contract
        return type(exc)
    return dt, dt.isoformat()


@FUZZ
@given(value=st.one_of(_iso, _twitter, _epochs, _junk))
def test_parse_timestamp_equals_oracle(value):
    assert _outcome(parse_timestamp, value) == _outcome(parse_timestamp_oracle, value)


@pytest.mark.parametrize(
    "value",
    ["20150107", "1_000", "2019-01-01T00:00:00Z", "2019-01-01 06:30:00.250+05:30", "Wed Jan 07 11:06:08 +0100 2015"],
)
def test_parse_timestamp_examples_equal_oracle(value):
    assert _outcome(parse_timestamp, value) == _outcome(parse_timestamp_oracle, value)
    assert not isinstance(_outcome(parse_timestamp, value), type)  # each one parses


@pytest.mark.parametrize(
    "value",
    [
        "2015-01-07T11:06:08+00:00",
        "2015-01-07T11:06:08Z",
        "2015-01-07T11:06:08+05:30",
        "2015-01-07T11:06:00.000001+00:00",
        "2015-01-07T11:06:08",
        "20150107",
    ],
)
def test_jsonl_timestamps_equal_oracle(value):
    want = _outcome(parse_timestamp_oracle, value)
    record = {"id": "p", "text_raw": "a", "text_clean": "a", "platform": "twitter"}
    assert _outcome(parse_timestamp, value) == want
    assert _outcome(lambda v: post_from_dict({**record, "created_at": v}).created_at, value) == want


# -- reading one file ----------------------------------------------------------------


def test_read_json_reads_every_chunk(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"text": "x" * 200_000}), encoding="utf-8")
    digests = {}
    assert read_json(str(path), digests) == {"text": "x" * 200_000}
    assert digests == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


@pytest.mark.parametrize(
    "data,says",
    [
        ("[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
        ('{"a": 1', "invalid JSON: Expecting"),
        ('{"a": 1}'.encode("utf-16"), "invalid JSON: 'utf-8' codec can't decode"),
        ('{"a": 1}'.encode("utf-32-le"), "invalid JSON: Expecting property name"),
    ],
    ids=["too_deep", "truncated", "utf16_with_bom", "utf32_without_bom"],
)
def test_parse_json_reports_through_the_given_class(data, says):
    """Nesting past the decoder's limit is an error like any other, and bytes
    are UTF-8 only: json.loads alone would decode UTF-16 and UTF-32."""
    with pytest.raises(ModelFormatError) as raised:
        parse_json(data, ModelFormatError, "m.json")
    assert str(raised.value).startswith(f"m.json: {says}")
    with pytest.raises(MalformedStructure, match=f"^c.jsonl: line 7 is {says}"):
        parse_json(data, MalformedStructure, "c.jsonl", 7)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("kind", ["directory", "missing"])
def test_unreadable_file_message_and_no_open_fd(tmp_path, kind):
    path = tmp_path / "x.json"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(OSError) as opened:  # the loader read through open() before
        open(path, "rb")
    want = f"{path}: cannot read: {opened.value.strerror}"
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(MalformedStructure) as raised:
        read_json(str(path))
    assert str(raised.value) == want
    assert sorted(os.listdir("/proc/self/fd")) == before


# -- malformed conversation directories ---------------------------------------

_MALFORMATIONS = (
    "no_source", "two_sources", "structure_not_object", "non_utf8", "dangling_id", "json_dir", "non_string_text"
)
_TEXT_FIELDS = ("full_text", "text", "title", "selftext", "body")
_non_strings = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.text(max_size=3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _post(post_id: str) -> bytes:
    return json.dumps({"id_str": post_id, "text": "a post", "created_at": "2019-01-07T12:00:00+00:00"}).encode()


def _write_thread(d: Path, tid: str, n_replies: int, faults: frozenset, victim: int, bad_text=None) -> None:
    (d / "source-tweet").mkdir(parents=True)
    (d / "replies").mkdir()
    replies = [f"{tid}-r{i}" for i in range(n_replies)]
    if "no_source" not in faults:
        (d / "source-tweet" / f"{tid}.json").write_bytes(_post(tid))
    if "two_sources" in faults:
        (d / "source-tweet" / "extra.json").write_bytes(_post(tid + "x"))
    for rid in replies:
        (d / "replies" / f"{rid}.json").write_bytes(_post(rid))
    structure = {tid: {rid: {} for rid in replies}}
    if "dangling_id" in faults:
        structure[tid]["ghost"] = {}
    (d / "structure.json").write_text(json.dumps(structure), encoding="utf-8")
    if "structure_not_object" in faults:
        (d / "structure.json").write_text(["[]", "1", '"x"', "null"][victim % 4], encoding="utf-8")
    if "non_string_text" in faults:  # bad_text is (field, value)
        posts = sorted(p for p in d.rglob("*.json") if p.is_file() and p.name != "structure.json")
        if posts:  # none only with no_source, which the loader rejects
            target = posts[victim % len(posts)]
            target.write_text(json.dumps({**json.loads(target.read_bytes()), bad_text[0]: bad_text[1]}))
    if "non_utf8" in faults:
        files = sorted(p for p in d.rglob("*.json") if p.is_file())
        target = files[victim % len(files)]
        target.write_bytes(b"\xff" + target.read_bytes())
    if "json_dir" in faults:
        (d / "replies" / "zz.json").mkdir()


@st.composite
def _malformed_split(draw):
    """Thread specs (id, replies, faults, victim index, non-string text
    field); at least one thread carries a fault the strict loader must reject."""
    n = draw(st.integers(1, 4))
    bad = draw(st.integers(0, n - 1))
    specs = []
    for i in range(n):
        faults = frozenset(draw(st.sets(st.sampled_from(_MALFORMATIONS), min_size=1 if i == bad else 0)))
        bad_text = draw(st.tuples(st.sampled_from(_TEXT_FIELDS), _non_strings))
        specs.append((f"t{i}", draw(st.integers(0, 3)), faults, draw(st.integers(0, 20)), bad_text))
    return specs


@FUZZ
@given(specs=_malformed_split())
def test_loader_fuzz_only_rumorvet_errors(specs):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "split"
        for tid, n_replies, faults, victim, bad_text in specs:
            _write_thread(root / tid, tid, n_replies, faults, victim, bad_text)
        with pytest.raises(RumorVetError):
            load_split(root)
        try:
            load_split(root, lenient=True)
        except RumorVetError:
            pass
        for argv in (
            ["ingest", str(root), str(Path(tmp) / "out.jsonl")],
            ["classify", str(root), "--model-dir", str(Path(tmp) / "models"), "--out", str(Path(tmp) / "p.jsonl")],
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            assert rc == 2, err.getvalue()
            assert len(err.getvalue().splitlines()) == 1
        assert not os.path.exists(Path(tmp) / "out.jsonl")
