"""Property-based tests for ResultCache key stability: serialization
round-trips, dict-ordering invariance, and MODEL_VERSION hit/miss
semantics exactly as documented in repro.exec.cache."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_VERSIONS, Jacobi3DConfig, run_app
from repro.exec import ResultCache, config_key
from repro.exec import cache as cache_mod
from repro.hardware import MachineSpec

SEEDS = [0, 7, 42, 1234, 99991]


def _cfg(**kw):
    kw.setdefault("version", "charm-d")
    kw.setdefault("grid", (96, 96, 96))
    kw.setdefault("odf", 2)
    kw.setdefault("iterations", 2)
    kw.setdefault("warmup", 0)
    kw.setdefault("machine", MachineSpec.small_debug())
    return Jacobi3DConfig(**kw)


@st.composite
def configs(draw):
    """Arbitrary valid modeled-mode configs across every frontend."""
    version = draw(st.sampled_from(ALL_VERSIONS))
    charm_d = version == "charm-d"
    return Jacobi3DConfig(
        version=version,
        nodes=draw(st.integers(1, 4)),
        grid=tuple(draw(st.integers(8, 96)) for _ in range(3)),
        odf=1 if version.startswith("mpi") else draw(st.integers(1, 4)),
        iterations=draw(st.integers(1, 12)),
        warmup=draw(st.integers(0, 3)),
        fusion=draw(st.sampled_from(["none", "A", "B", "C"])) if charm_d else "none",
        cuda_graphs=draw(st.booleans()) if charm_d else False,
        legacy_sync=draw(st.booleans()) if charm_d else False,
        mpi_overlap=draw(st.booleans()) if version.startswith("mpi") else False,
        machine=MachineSpec.small_debug(),
    )


def _shuffled(d: dict, rng: random.Random) -> dict:
    """The same mapping with a different (seeded) insertion order,
    recursively."""
    items = list(d.items())
    rng.shuffle(items)
    return {k: _shuffled(v, rng) if isinstance(v, dict) else v for k, v in items}


# ---------------------------------------------------------------------------
# Round-trips and ordering invariance
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(config=configs())
def test_property_roundtrip_preserves_config_and_key(config):
    back = Jacobi3DConfig.from_dict(config.to_dict())
    assert back == config
    assert config_key(back) == config_key(config)


@settings(max_examples=60, deadline=None)
@given(config=configs(), seed=st.integers(0, 2**32 - 1))
def test_property_key_invariant_under_dict_ordering(config, seed):
    """config_key canonicalizes with sort_keys: the insertion order of the
    serialized dict (including the nested machine dict) must not matter."""
    shuffled = _shuffled(config.to_dict(), random.Random(seed))
    assert Jacobi3DConfig.from_dict(shuffled) == config
    assert config_key(Jacobi3DConfig.from_dict(shuffled)) == config_key(config)


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_permutation_sweep_hits_same_entry(seed, tmp_path):
    """A cache populated through one dict ordering is hit through any
    other ordering of the same config."""
    rng = random.Random(seed)
    cache = ResultCache(tmp_path)
    cfg = _cfg(odf=rng.choice([1, 2, 4]), iterations=rng.randint(2, 4))
    cache.put(cfg, run_app(cfg))
    reordered = Jacobi3DConfig.from_dict(_shuffled(cfg.to_dict(), rng))
    assert cache.get(reordered) is not None
    assert cache.stats.hits == 1


@settings(max_examples=30, deadline=None)
@given(overhead=st.floats(1e-7, 1e-5, allow_nan=False, allow_infinity=False))
def test_property_machine_spec_roundtrip(overhead):
    spec = MachineSpec.summit().with_nic(overhead_s=overhead)
    cfg = _cfg(machine=spec)
    back = Jacobi3DConfig.from_dict(cfg.to_dict())
    assert back.machine == spec
    assert config_key(back) == config_key(cfg)
    # ... and a different calibration value is a different key.
    other = _cfg(machine=MachineSpec.summit().with_nic(overhead_s=overhead * 2))
    assert config_key(other) != config_key(cfg)


# ---------------------------------------------------------------------------
# MODEL_VERSION semantics, exactly as documented
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bump", [1, 2, 5])
def test_model_version_bump_misses_then_restore_hits(tmp_path, monkeypatch, bump):
    """Bumping MODEL_VERSION moves the key: old entries read as misses but
    stay on disk untouched; restoring the stamp restores the hit."""
    cache = ResultCache(tmp_path)
    cfg = _cfg()
    cache.put(cfg, run_app(cfg))
    assert cache.get(cfg) is not None and cache.stats.hits == 1

    monkeypatch.setattr(cache_mod, "MODEL_VERSION", cache_mod.MODEL_VERSION + bump)
    assert cache.get(cfg) is None
    assert cache.stats.misses == 1 and cache.stats.corrupt == 0
    assert len(cache) == 1  # the v-old entry was not deleted

    monkeypatch.undo()
    assert cache.get(cfg) is not None
    assert cache.stats.hits == 2


def test_model_version_recompute_coexists_with_old_entry(tmp_path, monkeypatch):
    """After a bump, recomputing stores a second entry under the new key;
    both versions coexist (clean invalidation, no clobbering)."""
    cache = ResultCache(tmp_path)
    cfg = _cfg()
    result = run_app(cfg)
    cache.put(cfg, result)
    monkeypatch.setattr(cache_mod, "MODEL_VERSION", cache_mod.MODEL_VERSION + 1)
    assert cache.put(cfg, result)
    assert len(cache) == 2
    assert cache.get(cfg) is not None
