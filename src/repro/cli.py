"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``
    Regenerate the paper's Table 1 (all six kernels, v1/v2/v3).
``figure2``
    Regenerate Figure 2 (the worked example's CG, cuts and Tmem).
``kernel NAME``
    Evaluate one paper kernel under a budget with chosen algorithms.
``vhdl NAME``
    Emit behavioral VHDL for one kernel/algorithm pair.
``explore``
    Sweep a (kernels x allocators x budgets x latencies x devices)
    design space in parallel, with cached/resumable results.
``lint``
    Run the static cache-soundness & determinism analyzer
    (``repro.lint``) over a source tree (default: this package).
``cache``
    Cache maintenance: ``cache fsck CACHE [--repair] [--gc [--gc-days N]]``
    scans a result cache (a directory or ``sqlite:PATH``) for damaged
    entries and orphaned tmp files; ``--gc`` also prunes quarantined and
    stale entries older than ``--gc-days`` (default 30) and compacts a
    directory cache's segments.
``list``
    List the available kernels, allocators and devices.

A domain error (:class:`~repro.errors.ReproError`: an infeasible
budget, a bad flag value) prints one ``repro: error: <message>`` line on
stderr and exits 1; argparse usage errors exit 2.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.explore.supervise import DEFAULT_POINT_TIMEOUT
from repro.hw.device import DEVICES, XCV1000
from repro.plugins import ALLOCATOR_MODULES, KERNEL_MODULES, PAPER_REGISTER_BUDGET

__all__ = ["main"]

# Each command imports what it uses inside its own function, so a
# command that evaluates nothing (``list``, ``--help``, an all-hit
# ``explore``, ``cache fsck``) never loads numpy or the evaluation stack.


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.bench.table1 import generate_table1, render_table1

    table = generate_table1(budget=args.budget)
    print(render_table1(table))
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.bench.example import figure2_report
    from repro.formatting import render_table

    report = figure2_report(budget=args.budget)
    print("Critical Graph nodes:", ", ".join(report.cg_nodes))
    print("Cuts:", ", ".join(report.structural_cuts))
    print(render_table(
        ["Algorithm", "Distribution", "Regs", "Tmem/outer", "Paper", "Dev%"],
        [
            [r.algorithm, r.distribution, r.total_registers,
             r.tmem_per_outer, r.paper_tmem, f"{r.deviation_pct:+.1f}"]
            for r in report.rows
        ],
        title="Figure 2(c), reproduced",
    ))
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    from repro.core.pipeline import evaluate_kernel
    from repro.formatting import render_table
    from repro.kernels.registry import get_kernel

    kernel = get_kernel(args.name)
    algorithms = tuple(args.algorithms)
    result = evaluate_kernel(kernel, budget=args.budget, algorithms=algorithms)
    baseline = result.design(algorithms[0])
    rows = []
    for algorithm in algorithms:
        design = result.design(algorithm)
        rows.append([
            algorithm,
            design.allocation.total_registers,
            design.total_cycles,
            f"{design.clock_ns:.1f}",
            f"{design.wall_clock_us:.1f}",
            f"{design.speedup_over(baseline):.2f}",
            design.slices,
            design.ram_blocks,
        ])
    print(render_table(
        ["Algorithm", "Regs", "Cycles", "Clock(ns)", "Time(us)",
         "Speedup", "Slices", "RAMs"],
        rows,
        title=f"{kernel.name} under a {args.budget}-register budget",
    ))
    if args.trace:
        for algorithm in algorithms:
            print(f"\n{algorithm} decision trace:")
            for line in result.design(algorithm).allocation.trace:
                print(f"  {line}")
    return 0


def _cmd_vhdl(args: argparse.Namespace) -> int:
    from repro.codegen.vhdl import generate_vhdl
    from repro.core.pipeline import allocator_by_name
    from repro.kernels.registry import get_kernel

    kernel = get_kernel(args.name)
    allocator = allocator_by_name(args.algorithm)
    allocation = allocator.allocate(kernel, args.budget)
    sys.stdout.write(generate_vhdl(kernel, allocation))
    return 0


def _shard_spec(text: str) -> "tuple[int, int]":
    from repro.explore.shard import parse_shard

    try:
        return parse_shard(text)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _ram_latency(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"RAM latency must be >= 1 cycle, got {value}"
        )
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"a timeout must be > 0 seconds, got {text}"
        )
    return value


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.errors import SweepInterrupted
    from repro.explore.cache import ResultCache
    from repro.explore.executor import Executor
    from repro.explore.query import LatencySpec
    from repro.explore.space import ExplorationSpace
    from repro.explore.supervise import RetryPolicy

    # Checked before anything is planned or evaluated, so a bad flag
    # neither costs a sweep nor writes to the cache.
    if args.gap_report is not None and "OPT-RA" not in args.allocators:
        raise ReproError(
            "--gap-report needs OPT-RA in --allocators: the gap is "
            "measured against its certified optimum"
        )
    latencies = (
        tuple(LatencySpec("realistic", lat) for lat in args.ram_latencies)
        if args.ram_latencies
        else (LatencySpec(args.latency),)
    )
    space = ExplorationSpace(
        kernels=tuple(args.kernels),
        allocators=tuple(args.allocators),
        budgets=tuple(args.budgets),
        latencies=latencies,
        devices=tuple(args.devices),
        ram_ports=(args.ram_ports,),
    )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    faults = None
    if args.inject:
        from repro.explore.faults import parse_fault_spec

        faults = parse_fault_spec(args.inject, seed=args.inject_seed)
    executor = Executor(
        jobs=args.jobs,
        cache=cache,
        reuse_cache=not args.fresh,
        shard=args.shard,
        retry=RetryPolicy(max_retries=args.max_retries),
        point_timeout=args.point_timeout,
        faults=faults,
    )
    if args.dry_run:
        print(executor.dry_run(space))
        return 0
    try:
        results = executor.run(space)
    except SweepInterrupted as exc:
        # Completed records were flushed to the cache before this was
        # raised; the same command resumes where it stopped.
        print(f"explore: {exc}", file=sys.stderr)
        return 130
    if args.gap_report is not None:
        from repro.bench.sweeps import gap_rows, opt_gap_csv

        report = opt_gap_csv(gap_rows(list(results)))
        if args.gap_report == "-":
            sys.stdout.write(report)
        else:
            with open(args.gap_report, "w") as handle:
                handle.write(report)
            print(f"explore: gap report -> {args.gap_report}", file=sys.stderr)
    if args.format == "json":
        print(results.to_json())
    elif args.format == "csv":
        sys.stdout.write(results.to_csv())
    else:
        title = f"explored {len(results)} design points"
        if args.shard:
            title += f" (shard {args.shard[0]}/{args.shard[1]} of {space.size})"
        print(results.render(title=title))
    print(f"explore: {results.stats.summary()}", file=sys.stderr)
    if args.profile:
        print(results.stats.profile(), file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import CHECKS, render_json, render_text, run_lint

    unknown = sorted(set(args.check or ()) - set(CHECKS))
    if unknown:
        print(
            f"repro lint: error: unknown check(s) {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(CHECKS))}",
            file=sys.stderr,
        )
        return 2
    if args.list_checks:
        for check in CHECKS.values():
            print(f"{check.name:15} {check.description}")
        return 0
    report = run_lint(
        root=args.root,
        package=args.package,
        checks=args.check,
        entry=args.entry,
    )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(render_json(report) + "\n")
        print(f"lint: JSON report -> {args.out}", file=sys.stderr)
    if args.strict and report.unsuppressed:
        print(
            f"lint: FAIL — {len(report.unsuppressed)} unsuppressed "
            f"finding(s) under --strict",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_cache_fsck(args: argparse.Namespace) -> int:
    from repro.explore.cache import ResultCache

    cache = ResultCache(args.dir)
    # A mistyped path must not pass as a clean empty cache; checking
    # creates nothing.
    if not cache.backend.exists():
        raise ReproError(f"no cache at {args.dir}")
    report = cache.fsck(repair=args.repair)
    print(f"fsck {args.dir}: {report.summary()}")
    for path in report.corrupt:
        print(f"  corrupt: {path}")
    for path in report.tmp:
        print(f"  orphaned tmp: {path}")
    if args.gc:
        gc_report = cache.gc(days=args.gc_days)
        print(f"fsck {args.dir}: {gc_report.summary()}")
    if report.clean or args.repair:
        return 0
    print(
        "fsck: problems found — re-run with --repair to quarantine "
        "corrupt entries and clear orphaned tmp",
        file=sys.stderr,
    )
    return 1


def _cmd_list(args: argparse.Namespace) -> int:
    print("kernels:   ", ", ".join(sorted(KERNEL_MODULES)))
    print("allocators:", ", ".join(sorted(ALLOCATOR_MODULES)))
    print("devices:   ", ", ".join(sorted(DEVICES)))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Baradaran & Diniz (DATE 2005).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="regenerate Table 1")
    p_table.add_argument("--budget", type=int, default=PAPER_REGISTER_BUDGET)
    p_table.set_defaults(func=_cmd_table1)

    p_fig = sub.add_parser("figure2", help="regenerate Figure 2")
    p_fig.add_argument("--budget", type=int, default=PAPER_REGISTER_BUDGET)
    p_fig.set_defaults(func=_cmd_figure2)

    p_kernel = sub.add_parser("kernel", help="evaluate one kernel")
    p_kernel.add_argument("name", choices=sorted(KERNEL_MODULES))
    p_kernel.add_argument("--budget", type=int, default=PAPER_REGISTER_BUDGET)
    p_kernel.add_argument(
        "--algorithms", nargs="+",
        default=["FR-RA", "PR-RA", "CPA-RA"],
        choices=sorted(ALLOCATOR_MODULES),
    )
    p_kernel.add_argument("--trace", action="store_true",
                          help="print allocator decision traces")
    p_kernel.set_defaults(func=_cmd_kernel)

    p_vhdl = sub.add_parser("vhdl", help="emit behavioral VHDL")
    p_vhdl.add_argument("name", choices=sorted(KERNEL_MODULES))
    p_vhdl.add_argument("--algorithm", default="CPA-RA",
                        choices=sorted(ALLOCATOR_MODULES))
    p_vhdl.add_argument("--budget", type=int, default=PAPER_REGISTER_BUDGET)
    p_vhdl.set_defaults(func=_cmd_vhdl)

    p_explore = sub.add_parser(
        "explore",
        help="sweep a design space in parallel with cached, resumable results",
    )
    p_explore.add_argument(
        "--kernels", nargs="+", default=sorted(KERNEL_MODULES),
        choices=sorted(KERNEL_MODULES), metavar="KERNEL",
    )
    p_explore.add_argument(
        "--allocators", nargs="+", default=sorted(ALLOCATOR_MODULES),
        choices=sorted(ALLOCATOR_MODULES), metavar="ALLOC",
    )
    p_explore.add_argument(
        "--budgets", nargs="+", type=int,
        default=[PAPER_REGISTER_BUDGET], metavar="N",
    )
    p_explore.add_argument(
        "--latency", default="default",
        choices=("default", "realistic", "tmem"),
        help="latency model kind (ignored when --ram-latencies is given)",
    )
    p_explore.add_argument(
        "--ram-latencies", nargs="+", type=_ram_latency, default=None,
        metavar="L", help="sweep realistic models at these RAM latencies",
    )
    p_explore.add_argument(
        "--devices", nargs="+", default=[XCV1000.name],
        choices=sorted(DEVICES), metavar="DEVICE",
    )
    p_explore.add_argument(
        "--ram-ports", type=int, default=0, choices=(0, 1, 2),
        help="RAM ports per block (0 = device default)",
    )
    p_explore.add_argument("--jobs", type=int, default=1,
                           help="worker processes (1 = inline)")
    p_explore.add_argument("--cache-dir", default=None,
                           help="on-disk result cache: a directory path, "
                           "or the URI sqlite:PATH for a single-file "
                           "WAL-mode SQLite cache; concurrent sweeps may "
                           "share either (implies reuse of cached results; "
                           "see --fresh)")
    p_explore.add_argument(
        "--fresh", action="store_true",
        help="re-evaluate every point even when cached (entries are "
        "rewritten)",
    )
    p_explore.add_argument(
        "--shard", default=None, metavar="I/N", type=_shard_spec,
        help="evaluate only this digest-stable shard of the space "
        "(e.g. 1/4); independent machines sharing --cache-dir each run "
        "one shard, then an unsharded run stitches the full result set "
        "from cache",
    )
    p_explore.add_argument(
        "--dry-run", action="store_true",
        help="print the planned queue (the cache-hit count and the "
        "leases in dispatch order, injected faults marked) and exit "
        "without evaluating anything",
    )
    p_explore.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries before a repeatedly failing point is quarantined "
        "(default 2)",
    )
    p_explore.add_argument(
        "--point-timeout", type=_positive_seconds,
        default=DEFAULT_POINT_TIMEOUT, metavar="S",
        help="seconds one point may run before its worker counts as "
        "hung and is restarted (a lease gets the sum over its points; "
        f"default {DEFAULT_POINT_TIMEOUT:g})",
    )
    p_explore.add_argument(
        "--inject", default=None, metavar="SPEC",
        help="inject deterministic faults, e.g. 'crash=0.2,kill=0.1' "
        "(kinds: crash, hang, kill, slow, corrupt-write, enospc; "
        "chaos testing only)",
    )
    p_explore.add_argument(
        "--inject-seed", type=int, default=0, metavar="N",
        help="seed for the --inject fault plan (default 0)",
    )
    p_explore.add_argument(
        "--profile", action="store_true",
        help="print a per-stage wall-time breakdown (kernel build / "
        "allocation / DFG+coverage / trace engine / cycle count / "
        "timing/area/binding) of the evaluated points",
    )
    p_explore.add_argument("--format", default="table",
                           choices=("table", "json", "csv"))
    p_explore.add_argument(
        "--gap-report", default=None, metavar="PATH",
        help="also write a per-(kernel, budget, allocator) optimality-gap "
        "CSV against OPT-RA's certified optimum ('-' for stdout); "
        "requires OPT-RA in --allocators",
    )
    p_explore.set_defaults(func=_cmd_explore)

    p_lint = sub.add_parser(
        "lint",
        help="static cache-soundness & determinism analysis of the "
        "evaluation plane",
    )
    p_lint.add_argument(
        "--check", action="append", default=None, metavar="NAME",
        help="run only this check (repeatable; default: all checks; "
        "see --list)",
    )
    p_lint.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="report format",
    )
    p_lint.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on any non-suppressed finding (the CI contract)",
    )
    p_lint.add_argument(
        "--root", default=None, metavar="DIR",
        help="lint this source tree instead of the installed repro package",
    )
    p_lint.add_argument(
        "--package", default="repro", metavar="NAME",
        help="dotted package prefix of the linted tree (default: repro)",
    )
    p_lint.add_argument(
        "--entry", default=None, metavar="MODULE",
        help="evaluation-plane root module scoping the cone checks "
        "(default: <package>.explore.evaluate; whole tree when absent)",
    )
    p_lint.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the JSON report here (any --format)",
    )
    p_lint.add_argument(
        "--list", dest="list_checks", action="store_true",
        help="list the available checks and exit",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_cache = sub.add_parser(
        "cache", help="result-cache maintenance (fsck)"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_fsck = cache_sub.add_parser(
        "fsck",
        help="scan a result cache (a directory or sqlite:PATH): decode, "
        "checksum and round-trip every entry, report damaged entries and "
        "orphaned tmp files",
    )
    p_fsck.add_argument(
        "dir", help="the cache to scan: a directory path or sqlite:PATH"
    )
    p_fsck.add_argument(
        "--repair", action="store_true",
        help="move corrupt entries to quarantine/ and clear orphaned tmp "
        "(torn segment tails, compaction temp files) older than 60 s "
        "(scan-only by default; exit 0 after repair)",
    )
    p_fsck.add_argument(
        "--gc", action="store_true",
        help="also prune quarantined corpses and stale entries (another "
        "format, or another code stamp than this tree's) older than "
        "--gc-days, reporting the bytes reclaimed, then compact a "
        "directory cache into one segment unless one was written in the "
        "last 60 s",
    )
    p_fsck.add_argument(
        "--gc-days", type=float, default=30.0, metavar="N",
        help="--gc pruning age in days (default 30; younger blobs are "
        "kept for post-mortem)",
    )
    p_fsck.set_defaults(func=_cmd_cache_fsck)

    p_list = sub.add_parser("list", help="list kernels and allocators")
    p_list.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # A domain error is the user's to fix, not a crash: one line,
        # the exit status an uncaught exception would give.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
