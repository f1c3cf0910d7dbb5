"""Tests for the content-addressed result cache: hits, key invalidation
(machine fields, model version), and corruption fallback."""

import json

from repro.apps import Jacobi3DConfig, run_app
from repro.exec import ResultCache, config_key
from repro.exec import cache as cache_mod
from repro.hardware import MachineSpec


def _config(**kw):
    kw.setdefault("version", "charm-d")
    kw.setdefault("grid", (96, 96, 96))
    kw.setdefault("iterations", 2)
    kw.setdefault("warmup", 0)
    return Jacobi3DConfig(**kw)


def test_hit_on_identical_config(tmp_path):
    cache = ResultCache(tmp_path)
    cfg = _config(odf=2)
    result = run_app(cfg)
    assert cache.get(cfg) is None  # cold
    assert cache.put(cfg, result)
    # A *separately constructed* but equal config hits the same entry.
    hit = cache.get(_config(odf=2))
    assert hit == result
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert len(cache) == 1


def test_machine_field_change_misses(tmp_path):
    cache = ResultCache(tmp_path)
    cfg = _config()
    cache.put(cfg, run_app(cfg))
    ablated = cfg.with_(machine=cfg.machine.with_nic(overhead_s=2e-6))
    assert config_key(ablated) != config_key(cfg)
    assert cache.get(ablated) is None
    assert cache.get(cfg) is not None  # the original entry is untouched


def test_model_version_change_misses(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    cfg = _config()
    cache.put(cfg, run_app(cfg))
    monkeypatch.setattr(cache_mod, "MODEL_VERSION", cache_mod.MODEL_VERSION + 1)
    assert cache.get(cfg) is None  # the key moved with the stamp


def test_corrupted_entry_falls_back_to_recompute(tmp_path):
    cache = ResultCache(tmp_path)
    cfg = _config()
    result = run_app(cfg)
    cache.put(cfg, result)
    path = cache.path_for(cfg)
    path.write_text("{not json")
    assert cache.get(cfg) is None
    assert cache.stats.corrupt == 1
    assert not path.exists()  # corrupt entries are evicted
    # Recompute-and-store heals the entry.
    cache.put(cfg, result)
    assert cache.get(cfg) == result


def test_entry_with_wrong_payload_is_corrupt(tmp_path):
    cache = ResultCache(tmp_path)
    cfg = _config()
    cache.put(cfg, run_app(cfg))
    path = cache.path_for(cfg)
    data = json.loads(path.read_text())
    data["model_version"] = -1  # stale stamp inside a well-formed file
    path.write_text(json.dumps(data))
    assert cache.get(cfg) is None
    assert cache.stats.corrupt == 1


def test_functional_configs_are_never_cached(tmp_path):
    cache = ResultCache(tmp_path)
    cfg = _config(version="mpi-h", grid=(24, 24, 24), data_mode="functional",
                  machine=MachineSpec.small_debug())
    result = run_app(cfg)
    assert not cache.put(cfg, result)
    assert cache.get(cfg) is None
    assert len(cache) == 0


def test_put_rejects_non_result_values(tmp_path):
    cache = ResultCache(tmp_path)
    assert not cache.put(_config(), {"not": "a result"})
    assert len(cache) == 0


def test_clear(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cfg = _config()
    cache.put(cfg, run_app(cfg))
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0
    assert cache.get(cfg) is None
