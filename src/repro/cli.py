"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``run``
    One configuration of a registered app (``--app``, default jacobi3d);
    prints the result summary and metrics.
``apps``
    List the registered applications (docs/apps.md).
``figure``
    Regenerate one of the paper's figures (``6a 6b 7a 7b 7c 8 9``) or the
    repo's collectives ablation (``ar``: allreduce ring vs tree vs
    pipeline chunking); prints the table/chart and the shape-claim
    verdicts; optional JSON output.
``sweep``
    Overdecomposition-factor sweep at a fixed node count.

``figure`` and ``sweep`` run their points through the experiment execution
layer (``repro.exec``, docs/execution.md): ``--jobs N`` fans independent
simulations out over a process pool, and a content-addressed result cache
(``--no-cache`` / ``--cache-dir``) makes repeated invocations instant —
results are bit-identical to serial uncached runs either way.
``protocols``
    Compare the Charm++ communication mechanisms across message sizes.
``validate``
    Correctness harness (docs/validation.md): the cross-runtime
    differential matrix (Charm++/AMPI/MPI × fusion × CUDA graphs, bitwise
    physics) with the invariant checker attached, plus the golden-trace
    regression store under ``tests/golden`` (refresh with
    ``--update-golden``).  Runs every registered app by default; scope
    with ``--app``.
``lint``
    Static analysis (docs/linting.md): the SDAG protocol / message-flow /
    determinism / stream-DAG linter over the chare DSL.  ``--strict``
    exits nonzero on findings (the CI configuration is ``repro lint
    --strict src tests``).
``sanitize``
    Dynamic concurrency analysis (docs/sanitizer.md): runs a canonical
    configuration of every registered app under all frontends with the
    happens-before :class:`~repro.sanitize.sanitizer.Sanitizer` attached and
    reports races, missing declared dependencies and deadlock cycles.
    ``--strict`` exits nonzero on findings (the CI configuration is
    ``repro sanitize --strict``).
``perf``
    Observability (docs/observability.md): ``perf run`` simulates one
    configuration under the full observability stack and reports
    per-resource utilization, per-iteration phase attribution, the
    critical path, and the run's counters (text, ``--json``,
    ``--html``, or a Perfetto trace via ``--trace``); ``perf compare``
    is the regression gate CI runs against a committed baseline; ``perf
    profile`` wraps one run in cProfile to show where the simulator
    itself spends wall-clock (docs/performance.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from .analysis import render_figure
from .apps import ALL_VERSIONS, app_names, get_app, run_app
from .exec import ParallelRunner, ResultCache, default_cache_dir
from .core import (
    FULL_NODES,
    QUICK_NODES,
    allreduce_ablation,
    check_allreduce_ablation,
    check_figure6,
    check_figure7a,
    check_figure7b,
    check_figure7c,
    check_figure8,
    check_figure9,
    comm_api_comparison,
    figure6,
    figure7a,
    figure7b,
    figure7c,
    figure8,
    figure9,
    odf_sweep,
    render_claims,
)

__all__ = ["main"]

_FIGURES = {
    "6a": (lambda **kw: figure6(mode="weak", **kw), check_figure6, "fig6"),
    "6b": (lambda **kw: figure6(mode="strong", **kw), check_figure6, "fig6b"),
    "7a": (figure7a, check_figure7a, "fig7a"),
    "7b": (figure7b, check_figure7b, "fig7b"),
    "7c": (figure7c, check_figure7c, "fig7c"),
    "8": (figure8, check_figure8, "fig8"),
    "9": (figure9, check_figure9, "fig9"),
    "ar": (allreduce_ablation, check_allreduce_ablation, "ar"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU-aware asynchronous tasks (Choi et al., IPDPSW'22), in simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one configuration of a registered app")
    _add_app_flags(run_p)
    run_p.add_argument("--functional", action="store_true",
                       help="real NumPy data (small grids only)")
    run_p.add_argument("--validate", action="store_true",
                       help="run under the simulation invariant checker")
    run_p.add_argument("--sanitize", action="store_true",
                       help="run under the happens-before sanitizer "
                            "(docs/sanitizer.md); raises on findings")

    sub.add_parser("apps", help="list registered applications")

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("id", choices=sorted(_FIGURES))
    fig_p.add_argument("--nodes", type=int, nargs="+", default=None)
    fig_p.add_argument("--full", action="store_true", help="paper-scale node ladder")
    fig_p.add_argument("--save", metavar="PATH", default=None, help="write series JSON")
    fig_p.add_argument("--no-plot", action="store_true")
    fig_p.add_argument("--quiet", action="store_true", help="no per-point progress")
    _add_exec_flags(fig_p)

    sweep_p = sub.add_parser("sweep", help="overdecomposition-factor sweep")
    sweep_p.add_argument("--app", default="jacobi3d", choices=app_names(),
                         help="registered application (default jacobi3d)")
    sweep_p.add_argument("--base", type=int, default=1536,
                         help="per-node grid edge, applied to every app "
                              "dimension (default 1536)")
    sweep_p.add_argument("--nodes", type=int, default=8)
    sweep_p.add_argument("--odfs", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    _add_exec_flags(sweep_p)

    sub.add_parser("protocols", help="compare communication mechanisms")

    val_p = sub.add_parser("validate", help="correctness harness (docs/validation.md)")
    val_p.add_argument("--app", default=None, choices=app_names(),
                       help="scope to one registered app (default: all)")
    val_p.add_argument("--quick", action="store_true",
                       help="cross-runtime differential cases only (skip "
                            "fusion/graphs variants and the golden store)")
    val_p.add_argument("--update-golden", action="store_true",
                       help="refresh the golden-trace entries instead of checking them")
    val_p.add_argument("--golden-dir", metavar="DIR", default=None,
                       help="golden store location (default tests/golden)")
    val_p.add_argument("--quiet", action="store_true", help="no per-case progress")
    val_p.add_argument("--sanitize", action="store_true",
                       help="additionally run the sanitizer matrix "
                            "(docs/sanitizer.md) and fold it into the verdict")

    san_p = sub.add_parser(
        "sanitize",
        help="happens-before concurrency sanitizer (docs/sanitizer.md)")
    san_p.add_argument("--app", default=None, choices=app_names(),
                       help="scope to one registered app (default: all)")
    san_p.add_argument("--strict", action="store_true",
                       help="exit nonzero if any case has findings")
    san_p.add_argument("--quiet", action="store_true",
                       help="no per-case progress")

    lint_p = sub.add_parser(
        "lint", help="SDAG protocol & determinism linter (docs/linting.md)")
    lint_p.add_argument("paths", nargs="*", default=["src"], metavar="PATH",
                        help="files/directories to lint (default: src)")
    lint_p.add_argument("--format", choices=["text", "json"], default="text",
                        help="output format (default text)")
    lint_p.add_argument("--strict", action="store_true",
                        help="exit nonzero if any finding survives suppression")
    lint_p.add_argument("--no-messageflow", action="store_true",
                        help="skip the cross-file message-flow rules "
                             "(RPL010/RPL011)")
    lint_p.add_argument("--rules", action="store_true",
                        help="print the rule catalogue and exit")

    perf_p = sub.add_parser(
        "perf", help="perf reports & regression gate (docs/observability.md)")
    perf_sub = perf_p.add_subparsers(dest="perf_command", required=True)

    prun = perf_sub.add_parser("run", help="one config under the observability stack")
    _add_app_flags(prun)
    prun.add_argument("--validate", action="store_true",
                      help="run under the simulation invariant checker")
    prun.add_argument("--json", metavar="PATH", default=None,
                      help="write the perf report as JSON")
    prun.add_argument("--html", metavar="PATH", default=None,
                      help="write the perf report as a standalone HTML page")
    prun.add_argument("--trace", metavar="PATH", default=None,
                      help="write a Perfetto/Chrome trace (load in ui.perfetto.dev)")
    prun.add_argument("--quiet", action="store_true",
                      help="skip the text report on stdout")

    pcmp = perf_sub.add_parser(
        "compare", help="regression gate: exit 1 if current is slower than baseline")
    pcmp.add_argument("baseline", metavar="BASELINE.json",
                      help="perf-report JSON (repro.perf/1)")
    pcmp.add_argument("current", metavar="CURRENT.json",
                      help="perf-report JSON (repro.perf/1)")
    pcmp.add_argument("--tolerance", type=float, default=0.05, metavar="FRAC",
                      help="allowed slowdown fraction (default 0.05 = 5%%)")
    pcmp.add_argument("--format", choices=["text", "json"], default="text",
                      help="output format (default text; json is the stable "
                           "repro.perf-compare/2 schema)")

    pdiff = perf_sub.add_parser(
        "diff", help="differential analysis: *why* two perf reports differ "
                     "(exit 2 on schema-incompatible inputs)")
    pdiff.add_argument("baseline", metavar="BASELINE.json",
                       help="perf-report JSON (repro.perf/1)")
    pdiff.add_argument("current", metavar="CURRENT.json",
                       help="perf-report JSON (repro.perf/1)")
    pdiff.add_argument("--format", choices=["text", "json"], default="text",
                       help="output format (default text)")

    pwhat = perf_sub.add_parser(
        "whatif", help="causal what-if projections from one recorded run "
                       "(docs/observability.md)")
    _add_app_flags(pwhat)
    pwhat.add_argument("--intervene", action="append", default=[],
                       metavar="SPEC",
                       help="virtual intervention, e.g. net*0, h2d*0.5, "
                            "pack=0 (repeatable)")
    pwhat.add_argument("--check", action="store_true",
                       help="validate each projection against an actual "
                            "re-run on the modified machine")
    pwhat.add_argument("--advise-odf", metavar="LIST", default=None,
                       help="rank these ODFs from the one recorded run, "
                            "e.g. 1,2,4,8")
    pwhat.add_argument("--sweep", action="store_true",
                       help="with --advise-odf: also run the true sweep and "
                            "show both rankings")
    pwhat.add_argument("--format", choices=["text", "json"], default="text",
                       help="output format (default text)")

    pprof = perf_sub.add_parser(
        "profile",
        help="cProfile one config: where the simulator itself spends wall-clock")
    _add_app_flags(pprof)
    pprof.add_argument("--top", type=int, default=25, metavar="N",
                       help="rows in the cumulative-time report (default 25)")
    pprof.add_argument("--sort", choices=["cumulative", "tottime", "calls"],
                       default="cumulative",
                       help="pstats sort order (default cumulative)")
    pprof.add_argument("--pstats", metavar="PATH", default=None,
                       help="dump raw profiler stats for snakeviz/pstats")
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_app_flags(parser: argparse.ArgumentParser) -> None:
    """The shared app-selection flags for run / perf run / perf profile.

    Per-app flags default to ``None`` (or ``False`` for switches), meaning
    "use the app's own default"; :func:`_app_config` rejects any flag the
    user *did* set that the selected app's config has no field for.
    """
    parser.add_argument("--app", default="jacobi3d", choices=app_names(),
                        help="registered application (default jacobi3d)")
    parser.add_argument("--version", default="charm-d", choices=list(ALL_VERSIONS))
    parser.add_argument("--nodes", type=int, default=1)
    parser.add_argument("--odf", type=int, default=1)
    parser.add_argument("--iterations", type=int, default=None,
                        help="measured iterations (default: the app's own)")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warmup iterations (default: the app's own)")
    # Stencil apps (jacobi2d/jacobi3d).
    parser.add_argument("--grid", type=int, nargs="+", default=None, metavar="N",
                        help="global grid extents, one per app dimension "
                             "(default: the app's default grid)")
    parser.add_argument("--fusion", choices=["A", "B", "C"], default=None)
    parser.add_argument("--graphs", action="store_true", help="use CUDA Graphs")
    parser.add_argument("--legacy", action="store_true",
                        help="pre-optimization baseline (Fig. 6)")
    # Task-DAG app (cholesky).
    parser.add_argument("--tiles", type=int, default=None, metavar="T",
                        help="cholesky: tiles per matrix dimension")
    parser.add_argument("--tile", type=int, default=None, metavar="B",
                        help="cholesky: elements per tile dimension")
    # Collectives app (allreduce).
    parser.add_argument("--elements", type=int, default=None, metavar="E",
                        help="allreduce: float64 elements per vector")
    parser.add_argument("--algorithm", choices=["ring", "tree"], default=None,
                        help="allreduce: collective algorithm")
    parser.add_argument("--chunks", type=int, default=None, metavar="C",
                        help="allreduce: pipeline chunks per transfer")
    parser.add_argument("--seed", type=int, default=None,
                        help="functional-mode input seed (cholesky/allreduce)")


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for the experiment points (default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed result cache")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="cache location (default $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--validate", action="store_true",
                        help="run every simulated point under the invariant checker")
    parser.add_argument("--perf-dir", metavar="DIR", default=None,
                        help="save a perf report per simulated point "
                             "(<config-key>.perf.json, next to the cached result)")


def _make_runner(args) -> ParallelRunner:
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    return ParallelRunner(jobs=args.jobs, cache=cache, validate=args.validate,
                          perf_dir=args.perf_dir)


def _app_config(args, **extra):
    """Build the selected app's config from shared run/perf-run flags.

    Flags left at their unset default (``None``, or ``False`` for
    switches) fall through to the config class's own defaults; a flag the
    user did set but that the app's config has no field for is an error,
    not a silent drop.
    """
    spec = get_app(args.app)
    fields = {f.name for f in dataclasses.fields(spec.config_cls)}
    kwargs = dict(version=args.version, nodes=args.nodes, odf=args.odf, **extra)
    per_app = [
        ("--iterations", "iterations", args.iterations),
        ("--warmup", "warmup", args.warmup),
        ("--grid", "grid", None if args.grid is None else tuple(args.grid)),
        ("--fusion", "fusion", args.fusion),
        ("--graphs", "cuda_graphs", args.graphs or None),
        ("--legacy", "legacy_sync", args.legacy or None),
        ("--tiles", "tiles", args.tiles),
        ("--tile", "tile", args.tile),
        ("--elements", "elements", args.elements),
        ("--algorithm", "algorithm", args.algorithm),
        ("--chunks", "chunks", args.chunks),
        ("--seed", "seed", args.seed),
    ]
    for flag, field, value in per_app:
        if value is None:
            continue
        if field not in fields:
            raise SystemExit(
                f"repro: {flag} is not meaningful for app {args.app!r}")
        kwargs[field] = value
    if "grid" in kwargs:
        ndim = spec.config_cls.NDIM
        if len(kwargs["grid"]) != ndim:
            raise SystemExit(
                f"repro: --grid needs {ndim} value(s) for app "
                f"{args.app!r}, got {len(kwargs['grid'])}")
    return spec.config_cls(**kwargs)


def _cmd_run(args) -> int:
    config = _app_config(
        args, data_mode="functional" if args.functional else "modeled")
    result = run_app(config, validate=args.validate, sanitize=args.sanitize)
    print(result.summary())
    print(f"  time/iteration : {result.time_per_iteration * 1e6:12.2f} us")
    print(f"  total time     : {result.total_time * 1e3:12.3f} ms")
    print(f"  GPU utilization: {result.gpu_utilization * 100:12.1f} %")
    print(f"  overlap        : {result.overlap_s * 1e3:12.3f} ms")
    print(f"  messages/bytes : {result.messages_sent} / {result.bytes_sent / 2**20:.1f} MiB")
    print(f"  largest halo   : {result.max_halo_bytes / 1024:.0f} KiB")
    for proto, count in sorted(result.protocol_counts.items(), key=lambda kv: kv[0].value):
        print(f"  protocol {proto.value:16s}: {count}")
    return 0


def _cmd_apps(_args) -> int:
    for name in app_names():
        spec = get_app(name)
        config = spec.config_cls()
        if hasattr(config, "grid"):
            shape = f"ndim={config.ndim}  default grid={config.grid}"
        elif hasattr(config, "tiles"):
            shape = f"default tiles={config.tiles}x{config.tiles} tile={config.tile}"
        else:
            shape = (f"default elements={config.elements} "
                     f"algorithm={config.algorithm}")
        print(f"{name:12s} {shape}  {spec.description}")
    return 0


def _cmd_figure(args) -> int:
    generate, check, ladder_key = _FIGURES[args.id]
    nodes = args.nodes
    if nodes is None:
        nodes = (FULL_NODES if args.full else QUICK_NODES)[ladder_key]
    progress = None if args.quiet else lambda line: print(f"  {line}", file=sys.stderr)
    runner = _make_runner(args)
    fig = generate(nodes=nodes, progress=progress, runner=runner)
    print(f"[exec] {runner.stats.describe()}", file=sys.stderr)
    print(render_figure(fig, plot=not args.no_plot))
    claims = check(fig)
    print(render_claims(claims))
    if args.save:
        fig.save_json(args.save)
        print(f"series written to {args.save}")
    return 0 if all(c.ok for c in claims) else 1


def _cmd_sweep(args) -> int:
    runner = _make_runner(args)
    ndim = getattr(get_app(args.app).config_cls, "NDIM", None)
    if ndim is None:
        raise SystemExit(
            f"repro sweep: app {args.app!r} has no grid to weak-scale; "
            "the ODF sweep is defined for the stencil apps")
    fig = odf_sweep(base=(args.base,) * ndim, nodes=args.nodes, odfs=args.odfs,
                    runner=runner, app=args.app)
    print(f"[exec] {runner.stats.describe()}", file=sys.stderr)
    print(render_figure(fig, plot=False))
    for label, series in fig.series.items():
        best = min(zip(series.ys(), series.xs()))[1]
        print(f"best ODF for {label}: {best:g}")
    return 0


def _cmd_protocols(_args) -> int:
    fig = comm_api_comparison()
    print(render_figure(fig, plot=False))
    return 0


def _cmd_validate(args) -> int:
    # Imported here: the differential and golden modules pull in the whole
    # app stack, which the other subcommands do not need at parse time.
    from .validate.differential import run_differential_matrix
    from .validate.golden import GoldenStore, canonical_configs

    def progress(label, diff):
        if args.quiet:
            return
        if diff is None:
            print(f"  running {label} ...", file=sys.stderr)
        else:
            print(f"  {diff}", file=sys.stderr)

    # The paper's proxy app first, then the other registered apps.
    apps = [args.app] if args.app else sorted(
        app_names(), key=lambda name: (name != "jacobi3d", name))
    ok = True
    for app in apps:
        if len(apps) > 1:
            print(f"== app: {app} ==")
        report = run_differential_matrix(quick=args.quick, progress=progress,
                                         app=app)
        print(report.report())
        ok = ok and report.ok

    configs = canonical_configs(args.app) if args.app else canonical_configs()
    store = GoldenStore(args.golden_dir)
    if args.update_golden:
        paths = store.update_all(configs)
        print(f"golden store: refreshed {len(paths)} entries in {store.root}")
    elif not args.quick:
        problems = store.check_all(configs)
        if problems:
            ok = False
            print(f"golden store: {len(problems)} mismatch(es)")
            for p in problems:
                print(f"  {p}")
        else:
            print(f"golden store: {len(configs)} entries clean")
    if args.sanitize:
        from .sanitize.driver import render_matrix, sanitize_matrix

        progress = None if args.quiet else (
            lambda line: print(f"  {line}", file=sys.stderr))
        cases = sanitize_matrix(app=args.app, progress=progress)
        print(render_matrix(cases))
        ok = ok and all(case.ok for case in cases)
    return 0 if ok else 1


def _cmd_sanitize(args) -> int:
    # Imported here: the sanitizer pulls in the whole app stack, which the
    # other subcommands do not need at parse time.
    from .sanitize.driver import render_matrix, sanitize_matrix

    progress = None if args.quiet else (
        lambda line: print(f"  {line}", file=sys.stderr))
    cases = sanitize_matrix(app=args.app, progress=progress)
    print(render_matrix(cases))
    clean = all(case.ok for case in cases)
    return 1 if (args.strict and not clean) else 0


def _cmd_lint(args) -> int:
    # Imported here: the linter is stdlib-only and independent of the
    # simulation stack, mirroring the validate subcommand's lazy import.
    from pathlib import Path

    from .lint import LintConfig, render_json, render_text, rules_catalogue, run_lint

    if args.rules:
        print(rules_catalogue())
        return 0
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"repro lint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    report = run_lint(args.paths,
                      LintConfig(messageflow=not args.no_messageflow))
    print(render_json(report) if args.format == "json" else render_text(report))
    return 1 if (args.strict and report.findings) else 0


def _cmd_perf(args) -> int:
    # Imported here: the report and diff modules pull the reporting stack
    # the other subcommands don't need at parse time (mirrors validate/lint).
    import json
    from pathlib import Path

    from .obs.report import Observatory, compare_perf

    if args.perf_command == "compare":
        from .obs.diff import SchemaMismatch, diff_reports

        baseline = json.loads(Path(args.baseline).read_text())
        current = json.loads(Path(args.current).read_text())
        comparison = compare_perf(baseline, current, tolerance=args.tolerance)
        if not comparison.ok:
            # Explain the trip: when both inputs are full perf reports the
            # differential's critical-path decomposition names the culprit.
            try:
                comparison.blame = diff_reports(baseline, current).blame()
            except SchemaMismatch:
                pass  # a non-report input has no critical path to blame
        if args.format == "json":
            print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
        else:
            print(comparison.render_text())
        return 0 if comparison.ok else 1

    if args.perf_command == "diff":
        from .obs.diff import SchemaMismatch, diff_reports

        try:
            baseline = json.loads(Path(args.baseline).read_text())
            current = json.loads(Path(args.current).read_text())
        except (OSError, ValueError) as exc:
            print(f"perf diff: cannot read inputs: {exc}", file=sys.stderr)
            return 2
        try:
            diff = diff_reports(baseline, current)
        except SchemaMismatch as exc:
            print(f"perf diff: {exc}", file=sys.stderr)
            return 2
        if args.format == "json":
            print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
        else:
            print(diff.render_text())
        return 0

    if args.perf_command == "whatif":
        return _perf_whatif(args)

    if args.perf_command == "profile":
        # Wall-clock profile of the simulator itself (not simulated time):
        # the tool for checking that hot-path work stays where
        # docs/performance.md says it is.
        import cProfile
        import pstats

        config = _app_config(args)
        profiler = cProfile.Profile()
        profiler.enable()
        run_app(config)
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats(args.sort).print_stats(args.top)
        if args.pstats:
            path = Path(args.pstats)
            path.parent.mkdir(parents=True, exist_ok=True)
            stats.dump_stats(str(path))
            print(f"pstats dump written to {path} "
                  f"(inspect with python -m pstats or snakeviz)", file=sys.stderr)
        return 0

    config = _app_config(args)
    obs = Observatory()
    result = run_app(config, validate=args.validate, observatory=obs)
    report = obs.report(result)
    if not args.quiet:
        print(report.render_text())
    if args.json:
        path = report.save(args.json)
        print(f"perf report written to {path}", file=sys.stderr)
    if args.html:
        path = Path(args.html)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.render_html())
        print(f"HTML report written to {path}", file=sys.stderr)
    if args.trace:
        path = Path(args.trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(obs.chrome_trace()))
        print(f"Perfetto trace written to {path} (load in ui.perfetto.dev)",
              file=sys.stderr)
    return 0


def _perf_whatif(args) -> int:
    """``repro perf whatif``: record one run, project interventions and/or
    rank ODFs without re-simulating; ``--check``/``--sweep`` hold every
    projection against the actual re-run."""
    import json

    from .obs.whatif import (
        DEFAULT_TOLERANCE,
        Intervention,
        advise_odf,
        odf_sweep,
        record_run,
        validate_intervention,
    )

    try:
        interventions = [Intervention.parse(s) for s in args.intervene]
        odfs = ([int(b) for b in args.advise_odf.split(",") if b.strip()]
                if args.advise_odf else [])
    except ValueError as exc:
        print(f"perf whatif: {exc}", file=sys.stderr)
        return 2
    if not interventions and not odfs:
        print("perf whatif: nothing to project (use --intervene and/or "
              "--advise-odf)", file=sys.stderr)
        return 2

    config = _app_config(args)
    _, model = record_run(config)
    doc = {"app": args.app, "version": args.version,
           "recorded_makespan": model.makespan, "predictions": []}
    lines = [f"what-if model: {args.app}/{args.version} recorded makespan "
             f"{model.makespan * 1e3:.3f} ms"]

    for iv in interventions:
        try:
            pred = model.predict(iv)
        except ValueError as exc:
            print(f"perf whatif: {exc}", file=sys.stderr)
            return 2
        entry = pred.to_dict()
        if args.check:
            val = validate_intervention(config, iv, model=model)
            entry["actual"] = val.actual
            entry["rel_error"] = val.rel_error
            entry["within_tolerance"] = val.ok()
            lines.append("  " + val.render_text()
                         + ("" if val.ok() else
                            f"  [outside {DEFAULT_TOLERANCE * 100:.0f}%]"))
        else:
            lines.append("  " + pred.render_text())
        doc["predictions"].append(entry)

    if odfs:
        advice = advise_odf(model, odfs)
        doc["odf_advice"] = [a.to_dict() for a in advice]
        lines.append(f"  odf advisor (recorded at odf={config.odf}):")
        for a in advice:
            lines.append(f"    odf={a.odf:<3d} predicted "
                         f"{a.predicted_s * 1e3:9.3f} ms")
        lines.append(f"    advisor pick: odf={advice[0].odf}")
        if args.sweep:
            actual = odf_sweep(config, odfs)
            doc["odf_sweep"] = {str(b): t for b, t in actual.items()}
            best = min(actual, key=actual.get)
            doc["odf_agreement"] = best == advice[0].odf
            lines.append("  true sweep:")
            for b in odfs:
                lines.append(f"    odf={b:<3d} actual    "
                             f"{actual[b] * 1e3:9.3f} ms")
            lines.append(f"    sweep best:   odf={best} "
                         f"({'agrees' if best == advice[0].odf else 'DISAGREES'}"
                         f" with the advisor)")

    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    if args.check and any(not e.get("within_tolerance", True)
                          for e in doc["predictions"]):
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "apps": _cmd_apps,
        "figure": _cmd_figure,
        "sweep": _cmd_sweep,
        "protocols": _cmd_protocols,
        "validate": _cmd_validate,
        "sanitize": _cmd_sanitize,
        "lint": _cmd_lint,
        "perf": _cmd_perf,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
