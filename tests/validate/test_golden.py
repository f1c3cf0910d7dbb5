"""Golden-trace regression store: digests, round-trips, staleness, and the
committed entries under tests/golden."""

import json

import pytest

from repro.sim import Engine, Tracer
from repro.validate.golden import (
    CANONICAL_CONFIGS,
    GoldenStore,
    default_golden_dir,
    golden_entry,
    trace_digest,
)


def _entry(name="charm-d"):
    return golden_entry(CANONICAL_CONFIGS[name])


# ---------------------------------------------------------------------------
# trace_digest
# ---------------------------------------------------------------------------


def test_digest_stable_for_identical_runs():
    eng1, eng2 = Engine(), Engine()
    t1, t2 = Tracer().attach(eng1), Tracer().attach(eng2)
    for eng, t in ((eng1, t1), (eng2, t2)):
        t.emit("gpu.compute", "node0.gpu0", op="update", duration=1e-5)
        t.emit("net.send", "pe0", dst=1, size=4096, tag=(0, "x+"))
    assert trace_digest(t1) == trace_digest(t2)


def test_digest_sensitive_to_any_field():
    eng = Engine()
    base = Tracer().attach(eng)
    base.emit("gpu.compute", "node0.gpu0", op="update", duration=1e-5)
    for mutation in (
        dict(category="gpu.copy_d2h"),
        dict(actor="node0.gpu1"),
        dict(op="pack"),
        dict(duration=2e-5),
    ):
        other = Tracer().attach(Engine())
        kw = dict(op="update", duration=1e-5)
        kw.update({k: v for k, v in mutation.items() if k in kw})
        other.emit(mutation.get("category", "gpu.compute"),
                   mutation.get("actor", "node0.gpu0"), **kw)
        assert trace_digest(other) != trace_digest(base)


def test_digest_empty_trace():
    t = Tracer().attach(Engine())
    assert len(trace_digest(t)) == 64


# ---------------------------------------------------------------------------
# GoldenStore round-trips
# ---------------------------------------------------------------------------


def test_store_roundtrip_and_clean_check(tmp_path):
    store = GoldenStore(tmp_path)
    entry = _entry()
    store.save("charm-d", entry)
    assert store.names() == ["charm-d"]
    assert store.load("charm-d") == entry
    assert store.check("charm-d", entry) == []


def test_missing_entry_reports_stale(tmp_path):
    store = GoldenStore(tmp_path)
    problems = store.check("charm-d", _entry())
    assert len(problems) == 1 and "--update-golden" in problems[0]


def test_model_version_skew_reports_stale_not_regression(tmp_path):
    store = GoldenStore(tmp_path)
    entry = _entry()
    stale = dict(entry, model_version=entry["model_version"] + 1)
    store.save("charm-d", stale)
    problems = store.check("charm-d", entry)
    assert len(problems) == 1
    assert "MODEL_VERSION" in problems[0]
    assert "digest" not in problems[0]


def test_digest_drift_detected(tmp_path):
    store = GoldenStore(tmp_path)
    entry = _entry()
    tampered = dict(entry, trace_digest="0" * 64)
    store.save("charm-d", tampered)
    problems = store.check("charm-d", entry)
    assert any("trace digest changed" in p for p in problems)


def test_summary_drift_detected(tmp_path):
    store = GoldenStore(tmp_path)
    entry = _entry()
    tampered = json.loads(json.dumps(entry))
    tampered["summary"]["messages_sent"] += 1
    store.save("charm-d", tampered)
    problems = store.check("charm-d", entry)
    assert any("summary.messages_sent" in p for p in problems)


def test_corrupt_entry_reads_as_stale(tmp_path):
    store = GoldenStore(tmp_path)
    store.path_for("charm-d").write_text("{not json")
    assert store.load("charm-d") is None
    problems = store.check("charm-d", _entry())
    assert len(problems) == 1 and "no golden entry" in problems[0]


# ---------------------------------------------------------------------------
# The committed store
# ---------------------------------------------------------------------------


def test_committed_store_has_every_canonical_config():
    store = GoldenStore()
    assert store.root == default_golden_dir()
    assert store.names() == sorted(CANONICAL_CONFIGS)


@pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
def test_committed_golden_entries_are_current(name):
    """Re-simulate each canonical config and hold it to the committed
    digest: any schedule change must come with --update-golden."""
    store = GoldenStore()
    problems = store.check(name, golden_entry(CANONICAL_CONFIGS[name]))
    assert problems == [], "\n".join(problems)
