"""Content-addressed on-disk result cache.

A simulated experiment is a pure function of its config (app name, grid,
version, ODF, ..., and the full :class:`MachineSpec` with every
calibration constant) — so results are cached under a key derived from the
config's canonical serialized form plus a model-version stamp:

``key = sha256(canonical_json({model_version, config.to_dict()}))``

* Changing **any** config or machine field changes ``config.to_dict()`` and
  therefore the key: an ablated machine never aliases Summit, and two apps
  with coinciding grid parameters never alias each other (``to_dict`` leads
  with the stable ``app`` name).
* Changing the **cost model's code** (how specs are turned into time) is
  invisible to the config dict, so :data:`MODEL_VERSION` must be bumped
  whenever simulator semantics or calibration interpretation change — that
  invalidates every prior entry cleanly.

Entries are one JSON file per key under ``<root>/<key[:2]>/<key>.json``,
written atomically (temp file + ``os.replace``) so concurrent runners can
share a cache directory.  A corrupted or stale entry is treated as a miss,
deleted, and recomputed.

Functional-mode results carry NumPy block data and are never cached (they
would not round-trip through JSON, and validating numerics is the point of
re-running them).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..apps import BaseAppConfig, result_from_dict, spec_for

__all__ = ["MODEL_VERSION", "CacheStats", "ResultCache", "config_key", "default_cache_dir"]

#: Stamp of the performance model's *code*: bump on any change to simulator
#: semantics or to how calibration constants are interpreted (spec *values*
#: are already part of the key via ``config.to_dict()``).
MODEL_VERSION = 1


def config_key(config: BaseAppConfig) -> str:
    """The content-addressed cache key for ``config``."""
    payload = {"model_version": MODEL_VERSION, "config": config.to_dict()}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0


class ResultCache:
    """Content-addressed store of result JSON entries for any registered
    app."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def path_for(self, config: BaseAppConfig) -> Path:
        key = config_key(config)
        return self.root / key[:2] / f"{key}.json"

    # -- lookup ------------------------------------------------------------
    def get(self, config: BaseAppConfig):
        """The cached result for ``config``, or ``None`` on miss.  Any entry
        that fails to parse/validate counts as corrupt, is deleted, and
        reads as a miss (the caller recomputes and overwrites)."""
        if config.functional:
            self.stats.misses += 1
            return None
        key = config_key(config)
        path = self.root / key[:2] / f"{key}.json"
        try:
            text = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            data = json.loads(text)
            if data["key"] != key or data["model_version"] != MODEL_VERSION:
                raise ValueError("cache entry does not match its address")
            result = result_from_dict(data["result"], expected=spec_for(config))
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return result

    # -- store -------------------------------------------------------------
    def put(self, config: BaseAppConfig, result) -> bool:
        """Persist ``result``; returns False for uncacheable payloads
        (functional mode, or values from custom workers that are not the
        app's registered result class)."""
        if config.functional:
            return False
        if not isinstance(result, spec_for(config).result_cls) or result.blocks is not None:
            return False
        key = config_key(config)
        path = self.root / key[:2] / f"{key}.json"
        payload = {
            "key": key,
            "model_version": MODEL_VERSION,
            "result": result.to_dict(),
        }
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except OSError as exc:  # cache is best-effort: never fail the run
            print(f"[exec] cache write failed: {exc}", file=sys.stderr)
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        self.stats.writes += 1
        return True

    # -- maintenance -------------------------------------------------------
    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
