"""Tests for the REPRO_* flag registry and the atomic write helpers."""

import glob
import os
import re
import threading

import pytest

from repro import config, telemetry
from repro.ioutil import atomic_write_json, atomic_write_text, read_json


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(config.__file__)

#: Every flag that exists: name -> (default, a malformed value or ``None``
#: where the kind has none -- any string is a boolean).
ROWS = {
    "REPRO_NO_NATIVE": (False, None),
    "REPRO_NATIVE_BUILD_DIR": (os.path.join(SRC, "machine", "_build"), ""),
    "REPRO_TRACE": (None, ""),
    "REPRO_FAULTS": (None, ""),
    "REPRO_TELEMETRY": (None, None),
    "REPRO_CHECKPOINT_EVERY": (0, "four"),
    "REPRO_CHECKPOINT_DIR": (None, ""),
    "REPRO_NODE_ID": (None, ""),
}

#: Where a ``REPRO_*`` name may appear besides ``src/repro``: a document
#: or a scrub list that names a flag nothing reads is a dead route.
#: (``benchmarks/ledger`` is pinned and still exports one ignored name.)
DOCUMENTS = ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md",
             ".github/workflows/ci.yml", "tests/*.py", "benchmarks/*.py"]

#: The only modules that touch ``os.environ``: the flag reader, the
#: compiler's ``CC``, ``patched_env`` and the fleet child's environment.
ENVIRON_USERS = {"config.py", "nativelib.py",
                 os.path.join("resilience", "faults.py"),
                 os.path.join("fleet", "local.py")}


def _sources():
    return glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)


def _flags_named_in(paths):
    found = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for name in re.findall(r"REPRO_[A-Z_]+", f.read()):
                found.setdefault(name, os.path.relpath(path, ROOT))
    return found


class TestFlagRegistry:
    def test_every_flag_read_in_src_is_documented(self):
        """Any ``REPRO_*`` name in the source tree, the documents, CI,
        the tests or the benchmarks must be a declared flag (the whole
        point of the registry)."""
        found = _flags_named_in(_sources())
        assert found  # the scan saw the tree
        documents = [path for pattern in DOCUMENTS
                     for path in glob.glob(os.path.join(ROOT, pattern))]
        assert len(documents) > len(DOCUMENTS)
        found.update(_flags_named_in(documents))
        undeclared = {name: where for name, where in found.items()
                      if name not in config.FLAGS}
        assert not undeclared, f"dead or undocumented flags: {undeclared}"

    def test_no_stray_environment_reads(self):
        """``os.environ`` belongs to ``config.py`` and the three modules
        that build or patch an environment, nowhere else."""
        offenders = []
        for path in _sources():
            rel = os.path.relpath(path, SRC)
            with open(path, encoding="utf-8") as f:
                if rel not in ENVIRON_USERS and re.search(
                        r"os\.environ|getenv", f.read()):
                    offenders.append(rel)
        assert not offenders, f"environment access outside config: {offenders}"

    def test_describe_covers_all_flags(self):
        rows = config.describe()
        assert [r["flag"] for r in rows] == list(config.FLAGS)
        for r in rows:
            assert r["description"] and r["default"]

    def test_raw_reflects_environment(self, monkeypatch):
        flag = config.FLAGS["REPRO_CHECKPOINT_EVERY"]
        monkeypatch.delenv("REPRO_CHECKPOINT_EVERY", raising=False)
        assert flag.raw is None
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "4")
        assert flag.raw == "4" and config.get("REPRO_CHECKPOINT_EVERY") == 4

    def test_the_table_is_these_rows(self):
        assert set(config.FLAGS) == set(ROWS)
        with pytest.raises(KeyError):
            config.get("REPRO_")

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_unset_and_malformed_read_as_the_default(self, name, monkeypatch):
        default, malformed = ROWS[name]
        monkeypatch.delenv(name, raising=False)
        assert config.get(name) == default
        assert config.FLAGS[name].default == default
        if malformed is not None:
            monkeypatch.setenv(name, malformed)
            assert config.get(name) == default


class TestAccessors:
    """``config.get``, kind by kind."""

    def test_path_flags_default_to_none(self, monkeypatch):
        for name in ("REPRO_TRACE", "REPRO_CHECKPOINT_DIR", "REPRO_FAULTS",
                     "REPRO_NODE_ID"):
            monkeypatch.delenv(name, raising=False)
            assert config.get(name) is None
            monkeypatch.setenv(name, "")
            assert config.get(name) is None  # empty string means unset
            monkeypatch.setenv(name, "/some/where")
            assert config.get(name) == "/some/where"

    def test_native_disabled_is_truthiness(self, monkeypatch):
        """The veto is the flag's truth value under the one grammar:
        ``=0`` used to *disable* compiled code ("any non-empty value")
        while it meant off for the other two booleans."""
        from repro import nativelib

        monkeypatch.setattr(nativelib, "_build", lambda name: "/nonexistent")
        for raw, vetoed in [("1", True), ("", False), ("0", False)]:
            monkeypatch.setenv("REPRO_NO_NATIVE", raw)
            assert config.get("REPRO_NO_NATIVE") is vetoed
            degraded = telemetry.resilience_counts().get("native_degraded", 0)
            assert nativelib._open("_lru_kernel") is None
            # Not vetoed: the load was attempted (and failed on the path).
            after = telemetry.resilience_counts().get("native_degraded", 0)
            assert after - degraded == (0 if vetoed else 1)

    @pytest.mark.parametrize("name", ["REPRO_NO_NATIVE", "REPRO_TELEMETRY"])
    def test_one_boolean_grammar(self, name, monkeypatch):
        for off in ("", "0", "off", "false", "no", "OFF", "False", " no "):
            monkeypatch.setenv(name, off)
            assert config.get(name) is False, off
        for on in ("1", "on", "true", "yes", "YES", "anything"):
            monkeypatch.setenv(name, on)
            assert config.get(name) is True, on

    def test_negative_cadence_is_malformed(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "-3")
        assert config.get("REPRO_CHECKPOINT_EVERY") == 0

    def test_native_build_dir_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_BUILD_DIR", "/e")
        assert config.get("REPRO_NATIVE_BUILD_DIR") == "/e"


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
