"""Property: deleting ANY single declared Cholesky dependency produces at
least one sanitizer race / missing-dependency report, on every frontend and
at any over-decomposition factor — and deleting nothing produces zero."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_VERSIONS, get_app, run_app
from repro.apps.cholesky import CholeskyConfig
from repro.hardware import MachineSpec
from repro.sanitize.faults import declared_dep_pairs, drop_cholesky_dep
from repro.sanitize.sanitizer import Sanitizer

MACHINE = MachineSpec.small_debug()
SPEC = get_app("cholesky")

# The DAG edge set is a pure function of the tile count, so index the
# hypothesis strategy against a throwaway context built up front.
_N_EDGES = len(declared_dep_pairs(SPEC.make_context(
    CholeskyConfig(version="charm-d", nodes=2, tiles=4, tile=16, odf=2,
                   machine=MACHINE))))


def _config(version, odf):
    return CholeskyConfig(version=version, nodes=2, tiles=4, tile=16,
                          odf=1 if version.startswith("mpi") else odf,
                          machine=MACHINE)


@settings(max_examples=12, deadline=None)
@given(version=st.sampled_from(ALL_VERSIONS),
       odf=st.integers(min_value=1, max_value=3),
       edge=st.integers(min_value=0, max_value=_N_EDGES - 1))
def test_any_single_dropped_dep_is_reported(version, odf, edge):
    sanitizer = Sanitizer()

    def hook(ctx):
        task, dep = declared_dep_pairs(ctx)[edge]
        drop_cholesky_dep(ctx, task, dep)

    run_app(_config(version, odf), sanitize=sanitizer, context_hook=hook)
    kinds = {d.kind for d in sanitizer.findings}
    assert kinds & {"race", "missing-dependency"}, sanitizer.report()


@settings(max_examples=6, deadline=None)
@given(version=st.sampled_from(ALL_VERSIONS),
       odf=st.integers(min_value=1, max_value=3))
def test_intact_dag_is_clean(version, odf):
    sanitizer = Sanitizer()
    run_app(_config(version, odf), sanitize=sanitizer)
    assert sanitizer.ok, sanitizer.report()
