"""Conversation-tree ingestion and preprocessing.

Reads rumor-thread directories in the SemEval-2019 Task 7 layout (one
directory per thread holding source-tweet/, replies/ and structure.json),
cleans the texts, flags primary replies, builds thread-reply pairs, and
applies reply time-window restrictions. Loaded conversations round-trip
through a line-delimited JSON dump that serves as the pipeline's canonical
intermediate format.

All loaders are pure functions of the filesystem (apart from filling a
digests dict the caller passes) and every returned value is immutable, so
they are safe to call from parallel workers. Each file is read once.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import MalformedStructure, UnparseableTimestamp
from .probs import VERACITY_CLASSES

logger = logging.getLogger(__name__)

PLATFORM_TWITTER = "twitter"
PLATFORM_REDDIT = "reddit"

SECONDS_PER_DAY = 86400

_HASHTAG_RE = re.compile(r"#\w")
_TWITTER_TIME_FORMAT = "%a %b %d %H:%M:%S %z %Y"


@dataclass(frozen=True)
class Post:
    """One social-media post: the source thread or a single reply."""

    id: str
    text_raw: str
    text_clean: str
    created_at: datetime
    platform: str


@dataclass(frozen=True)
class Reply:
    post: Post
    parent_id: str
    is_primary: bool


@dataclass(frozen=True)
class Conversation:
    """A source thread plus its reply forest, sorted by (created_at, id)."""

    thread: Post
    replies: tuple[Reply, ...]
    gold_label: str | None = None

    def primary_replies(self) -> tuple[Reply, ...]:
        return tuple(r for r in self.replies if r.is_primary)


def clean_text(raw: str) -> str:
    """Drop hashtag tokens and web addresses, collapse whitespace.

    A token is dropped when it starts with '#' followed by a word character
    or when it starts with 'http' in any casing. The whole token goes, not
    just the marker, since fragments distort short thread texts.
    """
    kept = [
        tok
        for tok in raw.split()
        if not (tok.lower().startswith("http") or _HASHTAG_RE.match(tok))
    ]
    return " ".join(kept)


def parse_timestamp(value) -> datetime:
    """Parse a post timestamp to an aware UTC datetime at seconds precision.

    Accepts epoch seconds (int/float), the classic Twitter string format
    ('Wed Jan 07 11:06:08 +0000 2015'), and ISO 8601.
    """
    if isinstance(value, bool):
        raise UnparseableTimestamp(f"not a timestamp: {value!r}")
    if isinstance(value, (int, float)):
        try:
            dt = datetime.fromtimestamp(float(value), tz=timezone.utc)
        except (OverflowError, OSError, ValueError) as exc:
            raise UnparseableTimestamp(f"bad epoch value {value!r}") from exc
        return dt.replace(microsecond=0)
    if isinstance(value, str):
        text = value.strip()
        if not text:
            raise UnparseableTimestamp("empty timestamp")
        # ISO is tried once, first: no string is both aware ISO and a float,
        # and what the JSONL dump writes comes back as is. A naive ISO
        # string may be an epoch ("20150107"), so the float goes first there.
        try:
            dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError:
            dt = None
        if dt is not None and dt.tzinfo is not None:
            if dt.tzinfo is timezone.utc and not dt.microsecond:
                return dt
            return dt.astimezone(timezone.utc).replace(microsecond=0)
        try:
            return parse_timestamp(float(text))
        except (ValueError, UnparseableTimestamp):
            pass
        if dt is None:  # ISO before Twitter: no string matches both
            try:
                dt = datetime.strptime(text, _TWITTER_TIME_FORMAT)
            except ValueError as exc:
                raise UnparseableTimestamp(f"unrecognized timestamp {value!r}") from exc
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.astimezone(timezone.utc).replace(microsecond=0)
    raise UnparseableTimestamp(f"not a timestamp: {value!r}")


def _unwrap_reddit(obj: dict) -> tuple[dict, bool]:
    """Peel the Listing/children envelope reddit dumps often carry."""
    wrapped = False
    current = obj
    for _ in range(4):
        data = current.get("data")
        if isinstance(data, dict):
            wrapped = True
            children = data.get("children")
            if isinstance(children, list) and children and isinstance(children[0], dict):
                current = children[0]
                continue
            current = data
            continue
        break
    return current, wrapped


def post_from_json(obj: dict, fallback_id: str | None = None) -> Post:
    """Build a Post from one raw platform JSON object.

    Twitter objects carry id_str/text/created_at; reddit objects carry
    id/created_utc and either body (replies) or title+selftext (sources),
    possibly inside a Listing envelope.
    """
    if not isinstance(obj, dict):
        raise MalformedStructure(f"post JSON is not an object: {type(obj).__name__}")
    inner, wrapped = _unwrap_reddit(obj)

    raw_id = inner.get("id_str") or inner.get("id") or fallback_id
    if raw_id is None or str(raw_id) == "":
        raise MalformedStructure("post has no id")

    if "created_utc" in inner or wrapped:
        platform = PLATFORM_REDDIT
    else:
        platform = PLATFORM_TWITTER

    for key in ("full_text", "text", "title", "selftext", "body"):
        if inner.get(key) is not None and not isinstance(inner[key], str):
            raise MalformedStructure(f"post {raw_id}: {key} must be a string, not {type(inner[key]).__name__}")
    text = inner.get("full_text") or inner.get("text")
    if text is None:
        parts = [inner.get("title"), inner.get("selftext"), inner.get("body")]
        text = " ".join(p for p in parts if p) or ""

    stamp = None
    for key in ("created_utc", "created_at", "created"):
        if key in inner and inner[key] is not None:
            stamp = inner[key]
            break
    if stamp is None:
        raise UnparseableTimestamp(f"post {raw_id} has no timestamp field")

    return Post(
        id=str(raw_id),
        text_raw=text,
        text_clean=clean_text(text),
        created_at=parse_timestamp(stamp),
        platform=platform,
    )


def _walk_structure(node, parent_id: str, seen: set[str], out: list[tuple[str, str]], path):
    """Collect (child_id, parent_id) edges from a nested structure node in
    pre-order. A stack stands in for recursion, so any depth the JSON
    decoder accepts is walked."""
    stack = []
    while True:
        if isinstance(node, dict):
            stack.extend((child, grandchildren, parent_id) for child, grandchildren in reversed(node.items()))
        elif isinstance(node, list):
            stack.extend((child, None, parent_id) for child in reversed(node))
        elif node is not None:
            raise MalformedStructure(f"unexpected structure node {node!r}", path=path)
        if not stack:
            return
        child, node, parent = stack.pop()
        if not isinstance(child, str):
            raise MalformedStructure(f"structure id {child!r} is not a string", path=path)
        if child in seen:
            raise MalformedStructure(f"duplicate id {child} in structure", path=path)
        seen.add(child)
        out.append((child, parent))
        parent_id = child


def load_conversation(
    dir_path,
    labels: Mapping[str, str] | None = None,
    lenient: bool = False,
    digests: dict[str, str] | None = None,
) -> Conversation:
    """Load one conversation directory into a validated Conversation.

    Expects source-tweet/ with exactly one JSON file, an optional replies/
    directory, and structure.json whose root key is the source post id.
    Strict mode raises MalformedStructure when structure ids have no reply
    file or reply files are missing from the structure; lenient mode drops
    the offenders with a warning instead. With digests, the sha256 of each
    file read is recorded there under its path.
    """
    d = os.fspath(dir_path)
    src_files = _scan_dir(os.path.join(d, "source-tweet"), ".json")
    if len(src_files) != 1:
        raise MalformedStructure(
            f"expected exactly one source post file, found {len(src_files)}", path=d
        )
    structure_path = os.path.join(d, "structure.json")
    if not os.path.isfile(structure_path):
        raise MalformedStructure("missing structure.json", path=d)
    structure = read_json(structure_path, digests)
    if not isinstance(structure, dict):
        raise MalformedStructure("structure.json root is not an object", path=structure_path)

    thread = _read_post(src_files[0], digests)

    posts: dict[str, Post] = {}
    for f in _scan_dir(os.path.join(d, "replies"), ".json"):
        post = _read_post(f, digests)
        if post.id == thread.id or post.id in posts:
            raise MalformedStructure(f"duplicate post id {post.id}", path=d)
        posts[post.id] = post

    if thread.id not in structure:
        raise MalformedStructure(
            f"structure root does not contain source id {thread.id}", path=structure_path
        )
    if len(structure) != 1:
        extra = sorted(set(structure) - {thread.id})
        raise MalformedStructure(f"unexpected root ids in structure: {extra}", path=structure_path)

    edges: list[tuple[str, str]] = []
    _walk_structure(structure[thread.id], thread.id, {thread.id}, edges, structure_path)

    known = set(posts)
    kept_edges = []
    dropped: set[str] = set()
    for child, parent in edges:
        if parent in dropped:
            dropped.add(child)
            continue
        if child not in known:
            if not lenient:
                raise MalformedStructure(
                    f"structure references {child} but replies/{child}.json is missing", path=d
                )
            logger.warning("%s: dropping %s (referenced in structure, no reply file)", d, child)
            dropped.add(child)
            continue
        kept_edges.append((child, parent))

    structured = {child for child, _ in kept_edges} | dropped
    orphans = sorted(known - structured)
    if orphans:
        if not lenient:
            raise MalformedStructure(
                f"reply files not referenced in structure: {orphans}", path=d
            )
        logger.warning("%s: ignoring unreferenced reply files %s", d, orphans)

    replies = tuple(
        sorted(
            (
                Reply(post=posts[child], parent_id=parent, is_primary=parent == thread.id)
                for child, parent in kept_edges
            ),
            key=lambda r: (r.post.created_at, r.post.id),
        )
    )
    gold = labels.get(thread.id) if labels else None
    return Conversation(thread=thread, replies=replies, gold_label=gold)


def read_json(path, digests: dict[str, str] | None = None, error=MalformedStructure):
    """Parse one JSON file from a single read of its bytes; with digests,
    record their sha256 under path. A file that cannot be read, or is not
    UTF-8 JSON, is an error of the class given (a RumorVetError)."""
    try:
        # Per small file, os.read costs about half of open().read() and two
        # thirds of open(buffering=0).readall().
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        raise error(f"cannot read: {exc.strerror or exc}", path=path) from exc
    data = b"".join(chunks)
    if digests is not None:
        digests[path] = hashlib.sha256(data).hexdigest()
    return parse_json(data, error, path)


def parse_json(data, error, path, line=None):
    """The JSON value in data: text, or bytes decoded here as UTF-8 (so the
    decoder never guesses UTF-16 or UTF-32). Data that is not JSON, or is
    nested deeper than the decoder can follow, is an error(..., path=path)
    naming the line when one is given. The package's only JSON parse."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        where = "invalid JSON" if line is None else f"line {line} is invalid JSON"
        raise error(f"{where}: {exc}", path=path) from exc


def read_jsonl(path, record, what: str) -> list:
    """record(obj) for the JSON object on each non-blank line of a UTF-8
    file, read line by line. A line that is not JSON, or whose object
    record rejects with KeyError, TypeError or ValueError, raises
    MalformedStructure naming the line."""
    out = []
    lineno = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    out.append(record(parse_json(line, MalformedStructure, path, lineno)))
    except UnicodeDecodeError as exc:
        raise MalformedStructure(f"not UTF-8 text after line {lineno}: {exc}", path=path) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedStructure(f"line {lineno} is not a {what} record: {exc!r}", path=path) from exc
    return out


def _read_post(entry: os.DirEntry, digests: dict[str, str] | None) -> Post:
    # The fallback id is the file's Path.stem, which keeps a bare ".json" whole.
    obj = read_json(entry.path, digests)
    try:
        return post_from_json(obj, fallback_id=entry.name[:-5] or entry.name)
    except (MalformedStructure, UnparseableTimestamp) as exc:  # name the file
        raise type(exc)(str(exc), path=entry.path) from exc


def _scan_dir(path, suffix: str = "") -> list[os.DirEntry]:
    """The entries of one directory whose names end with suffix, sorted by
    name; none when path cannot be listed as a directory (as with glob)."""
    try:
        with os.scandir(path) as it:
            return sorted((e for e in it if e.name.endswith(suffix)), key=lambda e: e.name)
    except OSError:
        return []


def walk_tree(root, rel: str = "") -> Iterator[tuple[str, os.DirEntry]]:
    """Every entry below root with its '/'-joined path relative to root, in
    order of path parts. Hidden and symlinked entries are listed;
    directories reached through a symlink are not descended into."""
    for entry in _scan_dir(root):
        yield rel + entry.name, entry
        if entry.is_dir(follow_symlinks=False):
            yield from walk_tree(entry.path, rel + entry.name + "/")


def find_conversation_dirs(root) -> list[str]:
    """All directories below root that look like conversation directories,
    as paths joined onto root (the keys load_split records digests under)."""
    structures = [e.path for _, e in walk_tree(root) if e.name == "structure.json"]
    dirs = [os.path.dirname(p) for p in structures if os.path.exists(p)]
    return [d for d in dirs if os.path.isdir(os.path.join(d, "source-tweet"))]


def load_split(
    root,
    labels: Mapping[str, str] | None = None,
    lenient: bool = False,
    digests: dict[str, str] | None = None,
) -> list[Conversation]:
    """Load every conversation below root, sorted by thread id; digests as
    in load_conversation."""
    convs = [load_conversation(d, labels, lenient, digests) for d in find_conversation_dirs(root)]
    convs.sort(key=lambda c: c.thread.id)
    return convs


def load_key_file(path) -> dict[str, str]:
    """Read gold veracity labels from a flat {id: label} key file, or from
    the nested form's "subtaskbenglish" (or "subtaskb") object. A root with
    an object under any "subtask..." key is nested: other tasks' objects
    are ignored, and any entry beside them that is not an object is an
    error. A label that is an object is an error in either form."""
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise MalformedStructure("key file root is not an object", path=path)
    if any(k.startswith("subtask") and isinstance(v, dict) for k, v in obj.items()):
        stray = [k for k, v in obj.items() if not isinstance(v, dict)]
        if stray:
            raise MalformedStructure(f"entry {stray[0]!r} beside the task keys is not an object", path=path)
        obj = obj.get("subtaskbenglish", obj.get("subtaskb", {}))
    labels = {}
    for tid, value in obj.items():
        if isinstance(value, dict):
            raise MalformedStructure(f"thread {tid!r}: gold label is an object", path=path)
        labels[tid] = label = str(value).lower()
        if label not in VERACITY_CLASSES:
            raise MalformedStructure(f"thread {tid!r}: gold label {label!r} not in {VERACITY_CLASSES}", path=path)
    return labels


def primary_pairs(conv: Conversation) -> list[tuple[str, str]]:
    """One cleaned (thread text, reply text) pair per primary reply, in
    reply order: the input a pair backend takes.

    Non-primary replies produce nothing; a conversation without primary
    replies yields an empty list.
    """
    return [(conv.thread.text_clean, r.post.text_clean) for r in conv.replies if r.is_primary]


def filter_window(conv: Conversation, window_days: int) -> Conversation:
    """Keep only replies posted within window_days of the thread.

    The boundary is inclusive: a reply at exactly window_days * 86400
    seconds after the thread survives. Thread and gold label are unchanged;
    a conversation may come back with an empty reply list.
    """
    if window_days <= 0:
        raise ValueError(f"window_days must be positive, got {window_days}")
    limit = window_days * SECONDS_PER_DAY
    kept = tuple(
        r
        for r in conv.replies
        if (r.post.created_at - conv.thread.created_at).total_seconds() <= limit
    )
    return replace(conv, replies=kept)


def post_to_dict(post: Post) -> dict:
    return {
        "id": post.id,
        "text_raw": post.text_raw,
        "text_clean": post.text_clean,
        "created_at": post.created_at.isoformat(),
        "platform": post.platform,
    }


def _typed(obj: dict, key: str, kind: type):
    """obj[key], which the dump wrote as a kind; TypeError otherwise."""
    value = obj[key]
    if not isinstance(value, kind):
        raise TypeError(f"{key} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def post_from_dict(obj: dict) -> Post:
    return Post(
        id=_typed(obj, "id", str),
        text_raw=_typed(obj, "text_raw", str),
        text_clean=_typed(obj, "text_clean", str),
        created_at=parse_timestamp(obj["created_at"]),
        platform=_typed(obj, "platform", str),
    )


def conversation_to_dict(conv: Conversation) -> dict:
    return {
        "thread": post_to_dict(conv.thread),
        "replies": [
            {
                "post": post_to_dict(r.post),
                "parent_id": r.parent_id,
                "is_primary": r.is_primary,
            }
            for r in conv.replies
        ],
        "gold_label": conv.gold_label,
    }


def conversation_from_dict(obj: dict) -> Conversation:
    """The record conversation_to_dict wrote. A reply's is_primary must be
    the bool parent_id == thread id, as the directory loader derives it."""
    thread = post_from_dict(obj["thread"])
    replies = []
    for r in _typed(obj, "replies", list):
        parent = _typed(r, "parent_id", str)
        if _typed(r, "is_primary", bool) != (parent == thread.id):
            raise TypeError(f"is_primary must be {parent == thread.id} for parent_id {parent!r}")
        replies.append(Reply(post=post_from_dict(r["post"]), parent_id=parent, is_primary=parent == thread.id))
    gold = None if obj.get("gold_label") is None else _typed(obj, "gold_label", str)
    if gold not in (None, *VERACITY_CLASSES):
        raise ValueError(f"gold_label {gold!r} not in {VERACITY_CLASSES}")
    return Conversation(thread=thread, replies=tuple(replies), gold_label=gold)


def save_conversations_jsonl(convs: Iterable[Conversation], path) -> None:
    """Write conversations to the canonical line-delimited JSON dump."""
    with open(path, "w", encoding="utf-8") as fh:
        for conv in convs:
            fh.write(json.dumps(conversation_to_dict(conv), sort_keys=True))
            fh.write("\n")


def load_conversations_jsonl(path) -> list[Conversation]:
    """Read the canonical dump; a line that is not a conversation record
    raises MalformedStructure naming the line."""
    return read_jsonl(path, conversation_from_dict, "conversation")


def gold_labels(convs: Sequence[Conversation]) -> dict[str, str]:
    """thread id -> gold label, for the conversations that carry one."""
    return {c.thread.id: c.gold_label for c in convs if c.gold_label is not None}
