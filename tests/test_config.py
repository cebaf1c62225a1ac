"""Tests for the REPRO_* flag registry and the atomic write helpers."""

import glob
import os
import re
import threading

import pytest

from repro import config
from repro.ioutil import atomic_write_json, atomic_write_text, read_json


class TestFlagRegistry:
    def test_every_flag_read_in_src_is_documented(self):
        """Any ``REPRO_*`` name mentioned in the source tree must be a
        declared flag (the whole point of the registry)."""
        src_root = os.path.join(os.path.dirname(config.__file__))
        found = set()
        for path in glob.glob(os.path.join(src_root, "**", "*.py"),
                              recursive=True):
            with open(path, encoding="utf-8") as f:
                found |= set(re.findall(r"REPRO_[A-Z_]+", f.read()))
        assert found  # the scan saw the tree
        assert found <= set(config.FLAGS), (
            f"undocumented flags: {sorted(found - set(config.FLAGS))}"
        )

    def test_no_stray_environment_reads(self):
        """``os.environ.get("REPRO_...`` belongs in config.py only
        (writes, e.g. the bench engine override, are allowed)."""
        src_root = os.path.dirname(config.__file__)
        offenders = []
        for path in glob.glob(os.path.join(src_root, "**", "*.py"),
                              recursive=True):
            if os.path.basename(path) == "config.py":
                continue
            with open(path, encoding="utf-8") as f:
                if re.search(r"environ\.get\(\s*[\"']REPRO_", f.read()):
                    offenders.append(os.path.relpath(path, src_root))
        assert not offenders, f"direct REPRO_* reads outside config: {offenders}"

    def test_describe_covers_all_flags(self):
        rows = config.describe()
        assert {r["flag"] for r in rows} == set(config.FLAGS)
        for r in rows:
            assert r["description"] and r["default"]

    def test_raw_reflects_environment(self, monkeypatch):
        flag = config.FLAGS["REPRO_CHECKPOINT_EVERY"]
        monkeypatch.delenv("REPRO_CHECKPOINT_EVERY", raising=False)
        assert flag.raw is None
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "4")
        assert flag.raw == "4"


class TestAccessors:
    def test_path_flags_default_to_none(self, monkeypatch):
        for name, accessor in [
            ("REPRO_TRACE", config.trace_path),
            ("REPRO_REGISTRY_DIR", config.registry_dir),
            ("REPRO_RESULT_DIR", config.result_dir),
        ]:
            monkeypatch.delenv(name, raising=False)
            assert accessor() is None
            monkeypatch.setenv(name, "")
            assert accessor() is None  # empty string means unset
            monkeypatch.setenv(name, "/some/where")
            assert accessor() == "/some/where"

    def test_native_disabled_is_truthiness(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
        assert not config.native_disabled()
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert config.native_disabled()
        monkeypatch.setenv("REPRO_NO_NATIVE", "")
        assert not config.native_disabled()

    def test_stream_engine(self, monkeypatch):
        monkeypatch.delenv("REPRO_STREAM_ENGINE", raising=False)
        assert config.stream_engine() is None
        monkeypatch.setenv("REPRO_STREAM_ENGINE", "reference")
        assert config.stream_engine() == "reference"

    def test_native_build_dir_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_BUILD_DIR", raising=False)
        assert config.native_build_dir("/d") == "/d"
        monkeypatch.setenv("REPRO_NATIVE_BUILD_DIR", "/e")
        assert config.native_build_dir("/d") == "/e"


class TestAtomicWrites:
    def test_roundtrip_and_cleanup(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"a": 1, "pi": 3.141592653589793})
        assert read_json(path) == {"a": 1, "pi": 3.141592653589793}
        assert os.listdir(tmp_path) == ["doc.json"]  # no temp debris

    def test_creates_parent_dirs(self, tmp_path):
        path = str(tmp_path / "a" / "b" / "doc.txt")
        atomic_write_text(path, "hello")
        assert open(path).read() == "hello"

    def test_replace_is_all_or_nothing(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"v": 1})

        class Exploding:
            """json.dumps cannot serialize this -> write fails mid-way."""

        with pytest.raises(TypeError):
            atomic_write_json(path, {"v": Exploding()})
        assert read_json(path) == {"v": 1}  # old content intact
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_read_json_misses_never_raise(self, tmp_path):
        assert read_json(str(tmp_path / "absent.json")) is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"half": ')
        assert read_json(str(torn)) is None

    def test_concurrent_writers_never_tear(self, tmp_path):
        """What the registry, the result store and the checkpoints rely on
        (a plan or result file has several writers: scheduler workers,
        replicating nodes): many threads rewriting one path, and every
        read observes one complete payload, never a splice."""
        path = str(tmp_path / "cache.json")
        payloads = [{"writer": i, "fill": "x" * 4096} for i in range(8)]
        stop = threading.Event()
        errors = []

        def writer(payload):
            while not stop.is_set():
                try:
                    atomic_write_json(path, payload)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=writer, args=(p,))
                   for p in payloads]
        for t in threads:
            t.start()
        try:
            import time

            seen = set()
            deadline = time.monotonic() + 30.0
            # Read until we have provably raced >= 2 distinct writers
            # (bounded by a generous deadline, not a fixed read count --
            # a loaded machine can starve the writer threads).
            while len(seen) < 2 and time.monotonic() < deadline:
                doc = read_json(path)
                if doc is not None:
                    assert doc["fill"] == "x" * 4096  # complete, untorn
                    seen.add(doc["writer"])
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
        assert not errors
        assert len(seen) >= 2  # the readers really raced multiple writers
        leftovers = [f for f in os.listdir(tmp_path) if f != "cache.json"]
        assert not leftovers  # every temp file was consumed by os.replace
