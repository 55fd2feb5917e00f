"""Provenance manifests: checksums, serialization, timestamp policy."""

import hashlib
import json

from rumorvet.manifest import (
    build_manifest,
    checksum,
    sha256_file,
    sha256_tree,
    write_manifest,
)


class TestChecksums:
    def test_file_digest_matches_hashlib(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"payload bytes")
        assert sha256_file(p) == hashlib.sha256(b"payload bytes").hexdigest()

    def test_tree_digest_ignores_mtime(self, tmp_path):
        (tmp_path / "a.txt").write_text("one")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "b.txt").write_text("two")
        before = sha256_tree(tmp_path)
        (tmp_path / "a.txt").touch()
        assert sha256_tree(tmp_path) == before

    def test_tree_digest_sees_content(self, tmp_path):
        (tmp_path / "a.txt").write_text("one")
        before = sha256_tree(tmp_path)
        (tmp_path / "a.txt").write_text("changed")
        assert sha256_tree(tmp_path) != before

    def test_tree_digest_sees_renames(self, tmp_path):
        (tmp_path / "a.txt").write_text("one")
        before = sha256_tree(tmp_path)
        (tmp_path / "a.txt").rename(tmp_path / "b.txt")
        assert sha256_tree(tmp_path) != before

    def test_checksum_prefixes(self, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("x")
        assert checksum(f).startswith("file:")
        assert checksum(tmp_path).startswith("tree:")


class TestBuildManifest:
    def test_digests_named_paths_and_skips_none(self, tmp_path):
        data = tmp_path / "data.tsv"
        data.write_text("a\tb\n")
        m = build_manifest(
            command="train",
            argv=("train", "--seed", "0"),
            config={"seed": 0},
            inputs={"corpus": data, "optional": None},
            models={},
            outputs=None,
        )
        assert m.inputs == {"corpus": checksum(data)}
        assert m.models == {} and m.outputs == {}
        assert m.command == "train"
        assert m.tool_version

    def test_created_at_is_utc_seconds(self):
        m = build_manifest("x", (), {})
        assert m.created_at.endswith("+00:00")
        assert "." not in m.created_at

    def test_round_trip(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("content")
        m = build_manifest("classify", ("classify", "in"), {"mode": "double"}, inputs={"in": data})
        path = write_manifest(m, tmp_path / "out" / "manifest.json")
        assert json.loads(path.read_text(encoding="utf-8")) == m.to_dict()

    def test_written_form_is_sorted_json(self, tmp_path):
        m = build_manifest("x", (), {"b": 1, "a": 2})
        path = write_manifest(m, tmp_path / "manifest.json")
        doc = json.loads(path.read_text())
        assert list(doc) == sorted(doc)
        assert doc["config"] == {"a": 2, "b": 1}
