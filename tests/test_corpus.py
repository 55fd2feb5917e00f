"""Ingestion, cleaning, windows, and the canonical serialization."""

import json
from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rumorvet.corpus import (
    Conversation,
    clean_text,
    conversation_from_dict,
    conversation_to_dict,
    filter_window,
    find_conversation_dirs,
    gold_labels,
    load_conversation,
    load_conversations_jsonl,
    load_key_file,
    load_split,
    parse_timestamp,
    post_from_json,
    primary_pairs,
    save_conversations_jsonl,
)
from rumorvet.errors import MalformedStructure, UnparseableTimestamp

from ._support import conversations, make_conv


class TestCleanText:
    def test_drops_hashtag_tokens(self):
        assert clean_text("fire at #sydneysiege now") == "fire at now"

    def test_drops_urls_any_case(self):
        assert clean_text("see http://x.co/a and HTTPS://B.CO") == "see and"

    def test_bare_hash_kept(self):
        assert clean_text("ranked # 1 overall") == "ranked # 1 overall"

    def test_collapses_whitespace(self):
        assert clean_text("  a \t b \n c ") == "a b c"

    def test_empty_after_cleaning(self):
        assert clean_text("#a #b http://c") == ""

    @given(st.text(max_size=80))
    def test_idempotent(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once


class TestParseTimestamp:
    def test_epoch_int(self):
        assert parse_timestamp(1546300800) == datetime(2019, 1, 1, tzinfo=timezone.utc)

    def test_epoch_numeric_string(self):
        assert parse_timestamp("1546300800") == datetime(2019, 1, 1, tzinfo=timezone.utc)

    def test_twitter_format(self):
        dt = parse_timestamp("Wed Jan 07 11:06:08 +0000 2015")
        assert dt == datetime(2015, 1, 7, 11, 6, 8, tzinfo=timezone.utc)

    def test_twitter_format_nonzero_offset(self):
        dt = parse_timestamp("Wed Jan 07 11:06:08 +0100 2015")
        assert dt == datetime(2015, 1, 7, 10, 6, 8, tzinfo=timezone.utc)

    def test_iso_with_z(self):
        dt = parse_timestamp("2019-01-01T00:00:00Z")
        assert dt == datetime(2019, 1, 1, tzinfo=timezone.utc)

    def test_iso_naive_assumed_utc(self):
        dt = parse_timestamp("2019-01-01T06:30:00")
        assert dt == datetime(2019, 1, 1, 6, 30, tzinfo=timezone.utc)

    def test_microseconds_truncated(self):
        assert parse_timestamp(1546300800.75).microsecond == 0

    def test_rejects_garbage(self):
        for bad in ("not a date", "", None, True, [1]):
            with pytest.raises(UnparseableTimestamp):
                parse_timestamp(bad)


class TestPostFromJson:
    def test_twitter_fields(self):
        post = post_from_json(
            {"id_str": "42", "text": "hello #x", "created_at": "Wed Jan 07 11:06:08 +0000 2015"}
        )
        assert post.id == "42"
        assert post.platform == "twitter"
        assert post.text_clean == "hello"

    def test_reddit_listing_envelope(self):
        obj = {
            "kind": "Listing",
            "data": {"children": [{"data": {"id": "abc", "body": "a reply", "created_utc": 1546300800}}]},
        }
        post = post_from_json(obj)
        assert post.id == "abc"
        assert post.platform == "reddit"
        assert post.text_raw == "a reply"

    def test_reddit_title_selftext(self):
        post = post_from_json({"id": "r1", "title": "t", "selftext": "s", "created_utc": 1})
        assert post.text_raw == "t s"

    def test_missing_id(self):
        with pytest.raises(MalformedStructure):
            post_from_json({"text": "x", "created_at": 1})

    def test_missing_timestamp(self):
        with pytest.raises(UnparseableTimestamp):
            post_from_json({"id_str": "1", "text": "x"})


def _write_post(path, post_id, text="some text", created="2019-01-07T12:00:00+00:00"):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"id_str": post_id, "text": text, "created_at": created}), encoding="utf-8"
    )


def _write_thread_dir(root, thread_id="t1", reply_specs=(), structure=None):
    """reply_specs: (reply_id, created); structure defaults to all primary."""
    d = root / thread_id
    _write_post(d / "source-tweet" / f"{thread_id}.json", thread_id)
    for reply_id, created in reply_specs:
        _write_post(d / "replies" / f"{reply_id}.json", reply_id, created=created)
    if structure is None:
        structure = {thread_id: {rid: {} for rid, _ in reply_specs}}
    (d / "structure.json").write_text(json.dumps(structure), encoding="utf-8")
    return d


class TestLoadConversation:
    def test_nested_structure_flags_primary(self, tmp_path):
        d = _write_thread_dir(
            tmp_path,
            reply_specs=[("r1", "2019-01-07T12:05:00+00:00"), ("r2", "2019-01-07T12:10:00+00:00")],
            structure={"t1": {"r1": {"r2": {}}}},
        )
        conv = load_conversation(d)
        assert conv.thread.id == "t1"
        by_id = {r.post.id: r for r in conv.replies}
        assert by_id["r1"].is_primary and by_id["r1"].parent_id == "t1"
        assert not by_id["r2"].is_primary and by_id["r2"].parent_id == "r1"

    def test_replies_sorted_by_time_then_id(self, tmp_path):
        d = _write_thread_dir(
            tmp_path,
            reply_specs=[
                ("rb", "2019-01-07T12:05:00+00:00"),
                ("ra", "2019-01-07T12:05:00+00:00"),
                ("rc", "2019-01-07T12:01:00+00:00"),
            ],
        )
        conv = load_conversation(d)
        assert [r.post.id for r in conv.replies] == ["rc", "ra", "rb"]

    def test_gold_label_attached(self, tmp_path):
        d = _write_thread_dir(tmp_path)
        conv = load_conversation(d, labels={"t1": "false"})
        assert conv.gold_label == "false"

    def test_no_matching_label_is_none(self, tmp_path):
        d = _write_thread_dir(tmp_path)
        assert load_conversation(d, labels={"other": "true"}).gold_label is None

    def test_missing_source(self, tmp_path):
        d = _write_thread_dir(tmp_path)
        (d / "source-tweet" / "t1.json").unlink()
        with pytest.raises(MalformedStructure):
            load_conversation(d)

    def test_two_sources(self, tmp_path):
        d = _write_thread_dir(tmp_path)
        _write_post(d / "source-tweet" / "t2.json", "t2")
        with pytest.raises(MalformedStructure):
            load_conversation(d)

    def test_missing_structure(self, tmp_path):
        d = _write_thread_dir(tmp_path)
        (d / "structure.json").unlink()
        with pytest.raises(MalformedStructure):
            load_conversation(d)

    def test_invalid_structure_json_names_path(self, tmp_path):
        d = _write_thread_dir(tmp_path)
        (d / "structure.json").write_text("{broken", encoding="utf-8")
        with pytest.raises(MalformedStructure) as exc:
            load_conversation(d)
        assert "structure.json" in str(exc.value)

    def test_structure_root_must_be_source_id(self, tmp_path):
        d = _write_thread_dir(tmp_path, structure={"other": {}})
        with pytest.raises(MalformedStructure):
            load_conversation(d)

    def test_structure_extra_root_rejected(self, tmp_path):
        d = _write_thread_dir(tmp_path, structure={"t1": {}, "t9": {}})
        with pytest.raises(MalformedStructure):
            load_conversation(d)

    def test_structure_missing_reply_file_strict(self, tmp_path):
        d = _write_thread_dir(tmp_path, structure={"t1": {"ghost": {}}})
        with pytest.raises(MalformedStructure):
            load_conversation(d)

    def test_lenient_drops_missing_subtree(self, tmp_path):
        # ghost has a real child; lenient mode must drop both.
        d = _write_thread_dir(
            tmp_path,
            reply_specs=[("r1", "2019-01-07T12:05:00+00:00")],
            structure={"t1": {"ghost": {"r1": {}}}},
        )
        conv = load_conversation(d, lenient=True)
        assert conv.replies == ()

    def test_unreferenced_reply_strict(self, tmp_path):
        d = _write_thread_dir(tmp_path, reply_specs=[("r1", "2019-01-07T12:05:00+00:00")], structure={"t1": {}})
        with pytest.raises(MalformedStructure):
            load_conversation(d)

    def test_unreferenced_reply_lenient(self, tmp_path):
        d = _write_thread_dir(tmp_path, reply_specs=[("r1", "2019-01-07T12:05:00+00:00")], structure={"t1": {}})
        conv = load_conversation(d, lenient=True)
        assert conv.replies == ()

    def test_duplicate_structure_id(self, tmp_path):
        d = _write_thread_dir(
            tmp_path,
            reply_specs=[("r1", "2019-01-07T12:05:00+00:00")],
            structure={"t1": {"r1": {"r1": {}}}},
        )
        with pytest.raises(MalformedStructure):
            load_conversation(d)


class TestLoadSplit:
    def test_sorted_by_thread_id(self, tmp_path):
        for tid in ("tb", "ta", "tc"):
            _write_thread_dir(tmp_path, thread_id=tid)
        convs = load_split(tmp_path)
        assert [c.thread.id for c in convs] == ["ta", "tb", "tc"]

    def test_ignores_non_conversation_dirs(self, tmp_path):
        _write_thread_dir(tmp_path, thread_id="t1")
        (tmp_path / "misc").mkdir()
        (tmp_path / "misc" / "structure.json").write_text("{}", encoding="utf-8")
        assert len(find_conversation_dirs(tmp_path)) == 1

    def test_empty_root(self, tmp_path):
        assert load_split(tmp_path) == []


class TestKeyFile:
    def test_nested_form(self, tmp_path):
        p = tmp_path / "key.json"
        p.write_text(json.dumps({"subtaskbenglish": {"t1": "True", "t2": "false"}}))
        assert load_key_file(p) == {"t1": "true", "t2": "false"}

    def test_flat_form(self, tmp_path):
        p = tmp_path / "key.json"
        p.write_text(json.dumps({"t1": "unverified"}))
        assert load_key_file(p) == {"t1": "unverified"}


class TestPrimaryPairs:
    def test_only_primary_in_order(self):
        conv = make_conv(
            replies=[("first", 10, True), ("nested", 20, False), ("second", 30, True)]
        )
        pairs = primary_pairs(conv)
        assert [p.reply_text for p in pairs] == ["first", "second"]
        assert all(p.thread_text == "a thread" for p in pairs)

    def test_no_primary_replies(self):
        assert primary_pairs(make_conv()) == []


class TestFilterWindow:
    def test_boundary_inclusive(self):
        conv = make_conv(replies=[("on", 86400, True), ("past", 86401, True)])
        kept = filter_window(conv, 1)
        assert [r.post.id for r in kept.replies] == ["t1-r0"]

    def test_exact_multiple_day_boundary(self):
        conv = make_conv(replies=[("r", 3 * 86400, True)])
        assert len(filter_window(conv, 3).replies) == 1
        assert len(filter_window(conv, 2).replies) == 0

    def test_thread_and_gold_untouched(self):
        conv = make_conv(replies=[("r", 999999, True)], gold="true")
        out = filter_window(conv, 1)
        assert out.thread == conv.thread
        assert out.gold_label == "true"
        assert out.replies == ()

    def test_bad_window(self):
        with pytest.raises(ValueError):
            filter_window(make_conv(), 0)

    @given(conversations())
    def test_windows_nest(self, conv):
        ids = lambda c: {r.post.id for r in c.replies}
        w1, w3, w5 = (ids(filter_window(conv, d)) for d in (1, 3, 5))
        assert w1 <= w3 <= w5 <= ids(conv)

    @given(conversations(), st.integers(min_value=1, max_value=9))
    def test_idempotent(self, conv, days):
        once = filter_window(conv, days)
        assert filter_window(once, days) == once


class TestSerialization:
    @given(conversations())
    def test_round_trip(self, conv):
        assert conversation_from_dict(conversation_to_dict(conv)) == conv

    def test_jsonl_round_trip(self, tmp_path):
        convs = [
            make_conv("t1", "first", [("r", 5, True)], gold="true"),
            make_conv("t2", "second", gold=None),
        ]
        path = tmp_path / "convs.jsonl"
        save_conversations_jsonl(convs, path)
        assert load_conversations_jsonl(path) == convs

    def test_gold_labels_skips_unlabeled(self):
        convs = [make_conv("t1", gold="true"), make_conv("t2", gold=None)]
        assert gold_labels(convs) == {"t1": "true"}
