"""Determinism: the same config yields the identical *trace* (not just the
same result) run twice, and under process-pool fan-out."""

from repro.exec import ParallelRunner
from repro.hardware import MachineSpec
from repro.apps import Jacobi3DConfig, run_app
from repro.obs.report import Observatory
from repro.validate.golden import (
    CANONICAL_CONFIGS,
    GoldenStore,
    golden_entry,
    golden_worker,
    trace_digest,
)


def _configs():
    base = Jacobi3DConfig(nodes=1, grid=(48, 48, 48), odf=2, iterations=4,
                          warmup=1, machine=MachineSpec.small_debug())
    return [
        base.with_(version="charm-d"),
        base.with_(version="charm-h"),
        base.with_(version="ampi-d"),
        base.with_(version="mpi-d", odf=1),
    ]


def test_same_config_twice_identical_trace():
    cfg = CANONICAL_CONFIGS["charm-d"]
    a, b = golden_entry(cfg), golden_entry(cfg)
    assert a["trace_digest"] == b["trace_digest"]
    assert a == b


def test_serial_and_jobs4_identical_traces():
    """Pool fan-out must not perturb the schedule: each worker simulates an
    independent engine, so serial and --jobs 4 digests are bit-identical."""
    configs = _configs()
    serial = ParallelRunner(jobs=1, worker=golden_worker).run_configs(configs)
    pooled = ParallelRunner(jobs=4, worker=golden_worker).run_configs(configs)
    assert [e["trace_digest"] for e in serial] == [e["trace_digest"] for e in pooled]
    assert serial == pooled


def test_validating_runner_matches_plain_runner():
    """validate=True attaches pure observers: results are bit-identical."""
    configs = _configs()[:2]
    plain = ParallelRunner(jobs=1).run_configs(configs)
    audited = ParallelRunner(jobs=1, validate=True).run_configs(configs)
    assert [r.to_dict() for r in plain] == [r.to_dict() for r in audited]


def test_all_three_subscribers_at_once_match_golden_and_observatory_only():
    """Tracer, invariant checker and sanitizer share one engine through the
    probe fan-out: the trace still matches the committed golden digest and
    the counters match an observatory-only run."""
    cfg = CANONICAL_CONFIGS["charm-d"]
    everything, alone = Observatory(), Observatory()
    observed = run_app(cfg, observatory=everything, validate=True, sanitize=True)
    bare = run_app(cfg, observatory=alone)
    assert trace_digest(everything.tracer) == GoldenStore().load("charm-d")["trace_digest"]
    assert everything.report(observed).counters == alone.report(bare).counters
