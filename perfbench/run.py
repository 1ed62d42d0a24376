"""Start-to-exit benchmark of ``repro explore`` workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload in ``workloads.json`` is one ``repro explore`` command
line, run in a fresh subprocess and timed from spawn to exit.  The
``--seed`` permutes the order of the kernels and RAM latencies on the
command line (seed 0 keeps the canonical order; see ``ORDERED_AXES``);
the output checks are order-invariant.  Rounds repeat until
``--seconds`` have passed (at least three), and every end-to-end metric
is the median over rounds.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` reports its per-layer metrics instead: each round runs
the command untraced and then traced (``--jobs 1``, so every layer runs
in the traced process), the traced child wraps the public function of
each layer (``tracer.LAYERS``) and writes its spans, and a layer's self
time is its spans' duration minus their child spans.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ast
import collections
import csv
import io
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())
EXPECTED_GAP = HERE / "expected_optgap.csv"
MIN_ROUNDS = 3
#: Axes the seed leaves in canonical order.  Their order is part of the
#: work, not its presentation: OPT-RA reuses a certified optimum along
#: the budget axis, and the allocator order decides which heuristic
#: designs are already memoized when an OPT-RA point seeds its search.
#: Shuffling either changes the gap study's CPU time by up to 20%.
ORDERED_AXES = ("--budgets", "--allocators")
CHILD_TIMEOUT = 170.0

STATS_LINE = re.compile(
    r"explore: (\d+) points: (\d+) evaluated, (\d+) cache hits \(\d+%\), "
    r"\d+ stale, \d+ corrupt, (\d+) infeasible, (\d+) crashed, "
    r"(\d+) quarantined, ([0-9.]+)s"
)
PROFILE_LINE = re.compile(r"^profile: ([0-9.]+)s evaluation CPU", re.M)
SCHEDULER_LINE = re.compile(
    r"scheduler: (\d+) leases, (\d+) steals, (\d+) affinity hits"
)
IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", re.M)
IMPORT_METRICS = ("numpy", "networkx", "repro.bench", "repro.explore",
                  "repro.lint")
MEMOS = ("kernel", "dfg", "coverage", "schedule", "critical", "knapsack",
         "cycles", "optra")

COLD = ("optra-gap", "heuristic-sweep")
EVERY = COLD + ("warm-resume",)
HEURISTICS = ("CPA-RA", "FR-RA", "KS-RA", "NO-SR", "PR-RA")
#: Layer span -> the workloads on which it must record at least one
#: call; a traced run with a zero here fails.
ASSIGNED = {
    "cli.import": EVERY,
    "versions.query_vector": COLD,
    "versions.module_hash": EVERY,
    "cache.lookup": EVERY,
    "cache.put": COLD,
    "backends.dir.read": ("heuristic-sweep", "warm-resume"),
    "backends.dir.write": ("heuristic-sweep",),
    "backends.sqlite.read": ("optra-gap", "warm-resume"),
    "backends.sqlite.write": ("optra-gap",),
    "dispatch": EVERY,
    "evaluate": COLD,
    "kernels.kernel_and_groups": COLD,
    "dfg.build_dfg": COLD,
    "dfg.critical_graph": COLD,
    **{f"core.allocate.{name}": COLD for name in HEURISTICS},
    "core.allocate.OPT-RA": ("optra-gap",),
    "core.optra.leaf": ("optra-gap",),
    "core.optra.bound": ("optra-gap",),
    "scalar.coverage.result": COLD,
    "scalar.coverage.ladder": ("optra-gap",),
    "sim.count_cycles": COLD,
    "sim.classify_patterns": COLD,
    "sim.schedule_iteration": COLD,
    "synth.build_design": COLD,
    "synth.count_with_best_anchors": COLD,
    "results.to_csv": EVERY,
    "sweeps.gap_report": ("optra-gap",),
}


# -- knob-free driving ------------------------------------------------------

FORBIDDEN_MODULES = ("repro.bench.perf", "benchmarks")


def knob_violations() -> "list[str]":
    """What in the benchmark's own files would drive a non-default path.

    No ``--no-*`` flag, no ``EvalContext`` built here, no import of the
    microbenchmark harness or the pytest-benchmark suite.
    """
    found = []
    for path in sorted(HERE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.match(r"--no-\w", node.value):
                    found.append(f"{where}: passes {node.value}")
            elif isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "EvalContext":
                    found.append(f"{where}: builds an EvalContext")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] + [
                        f"{node.module}.{m}" for m in modules
                    ]
                for module in modules:
                    if any(module == bad or module.startswith(bad + ".")
                           for bad in FORBIDDEN_MODULES):
                        found.append(f"{where}: imports {module}")
    for text in json.dumps(SPEC).split('"'):
        if re.match(r"--no-\w", text):
            found.append(f"workloads.json: passes {text}")
    return found


# -- subprocesses -----------------------------------------------------------

def child_env(write_bytecode: bool = False) -> "dict[str, str]":
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if write_bytecode:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Proc:
    """One finished ``repro`` process."""

    code: int
    wall: float
    setup: "float | None"
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(work: Path, argv: "list[str]", trace_prefix: "str | None" = None,
          env: "dict[str, str] | None" = None) -> Proc:
    """Run ``repro argv`` via ``launch.py``; time it from spawn to exit.

    CPU time and peak RSS come from ``wait4``, which folds in every
    descendant the child reaped (its worker pool); peak RSS is the
    largest single process.
    """
    ready = work / "ready"
    ready.unlink(missing_ok=True)
    command = [sys.executable]
    if trace_prefix is not None:
        command += ["-X", "importtime"]
    command += [str(HERE / "launch.py"), str(ready), trace_prefix or "-",
                *argv]
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen(
            command, cwd=ROOT, env=env or child_env(), stdout=out,
            stderr=err, start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT, _kill_group, (child.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    child.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        _kill_group(child.pid)
    setup = None
    if ready.exists():
        setup = float(ready.read_text()) - started
    return Proc(
        code=code,
        wall=wall,
        setup=setup,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=(work / "stdout").read_text(errors="replace"),
        stderr=(work / "stderr").read_text(errors="replace"),
    )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# -- workloads --------------------------------------------------------------

class Workload:
    """One ``repro explore`` command line and the checks on its output."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.spec = SPEC["workloads"][name]
        self.work = work
        rng = random.Random(seed)
        self.axes = []
        for flag, values in self.spec["axes"].items():
            values = list(values)
            if seed and flag not in ORDERED_AXES:
                rng.shuffle(values)
            self.axes += [flag, *values]
        self.points = self.spec["points"]
        self.reference: "collections.Counter | None" = None
        self._serial = 0

    def argv(self, cache: str, jobs: "int | None" = None) -> "list[str]":
        argv = ["explore", *self.axes,
                "--jobs", str(jobs or self.spec["jobs"]), "--cache-dir", cache]
        if self.spec["gap_report"]:
            argv += ["--gap-report", str(self.work / "gap.csv")]
        return argv + ["--format", "csv", "--profile"]

    def canonical_command(self) -> str:
        cache = "sqlite:CACHE" if self.spec["backends"] == ["sqlite"] else "CACHE"
        argv = Workload(self.name, 0, Path("W")).argv(cache)
        text = " ".join(["python", "-m", "repro", *argv])
        return text.replace(str(Path("W") / "gap.csv"), "GAP")

    def cache_uri(self, backend: str, fresh: bool) -> str:
        if fresh:
            self._serial += 1
            stem = self.work / f"cache{self._serial}"
        else:
            stem = self.work / "warm"
        return f"sqlite:{stem}.db" if backend == "sqlite" else str(stem)

    def setup(self) -> "tuple[int, int]":
        """Populate the warm caches (untimed); ``(attempted, failed)``."""
        if not self.spec["warm"]:
            return 0, 0
        attempted = failed = 0
        for backend in self.spec["backends"]:
            _, bad, _ = self.run(backend, populate=True)
            attempted += self.points
            failed += bad
        return attempted, failed

    def run(self, backend: str, trace_prefix: "str | None" = None,
            jobs: "int | None" = None, populate: bool = False,
            ) -> "tuple[Proc, int, float | None]":
        """Run and check one command: ``(proc, failed points, geomean)``."""
        warm = self.spec["warm"]
        uri = self.cache_uri(backend, fresh=not warm)
        (self.work / "gap.csv").unlink(missing_ok=True)
        try:
            proc = spawn(self.work, self.argv(uri, jobs), trace_prefix)
        finally:
            if not warm:
                remove(Path(uri.removeprefix("sqlite:")))
        failed, geomean = self.check(proc, all_hits=warm and not populate)
        if self.reference is None and not failed:
            # Every later command of the workload, warm or cold, traced
            # or not, at any --jobs, must print these same rows.
            self.reference = canonical_rows(proc.stdout)
        return proc, failed, geomean

    def check(self, proc: Proc, all_hits: bool) -> "tuple[int, float | None]":
        """``(failed points, geomean cycles)`` of one finished command.

        A crashed, quarantined or mismatched point fails; so does every
        point of a command that exited non-zero, and any change in the
        count of (expected, correct) infeasible points.
        """
        stats = STATS_LINE.search(proc.stderr)
        if proc.code != 0 or stats is None:
            print(f"# {self.name}: exit {proc.code}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return self.points, None
        total, evaluated, hits, infeasible, crashed, quarantined, _ = (
            stats.groups()
        )
        failed = int(crashed) + int(quarantined)
        failed += abs(int(infeasible) - self.spec["infeasible"])
        failed += abs(int(total) - self.points)
        if all_hits:
            failed += self.points - int(hits)
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        failed += abs(len(rows) - self.points)
        if self.spec["gap_report"]:
            gap = self.work / "gap.csv"
            produced = gap.read_text() if gap.exists() else ""
            failed += count_mismatch(canonical_rows(produced),
                                     canonical_rows(EXPECTED_GAP.read_text()))
        else:
            failed += self.anchor_mismatches(rows)
        if self.reference is not None:
            failed += count_mismatch(canonical_rows(proc.stdout),
                                     self.reference)
        cycles = [int(row["cycles"]) for row in rows if row["cycles"]]
        geomean = (
            math.exp(statistics.fmean(math.log(c) for c in cycles))
            if cycles else None
        )
        if failed:
            print(f"# {self.name}: {failed} failed points", file=sys.stderr)
        return min(failed, self.points), geomean

    def anchor_mismatches(self, rows: "list[dict]") -> int:
        """Rows at RAM latency 2 (which evaluates like the default model)
        must match the committed gap report on cycles and registers."""
        allocators = set(self.spec["axes"]["--allocators"])
        expected = {
            (r["kernel"], r["budget"], r["allocator"]):
                (r["cycles"], r["total_registers"])
            for r in csv.DictReader(io.StringIO(EXPECTED_GAP.read_text()))
            if r["allocator"] in allocators
        }
        seen = bad = 0
        for row in rows:
            key = (row["kernel"], row["budget"], row["allocator"])
            if row["latency"] != "realistic(L=2)" or key not in expected:
                continue
            seen += 1
            bad += (row["cycles"], row["total_registers"]) != expected[key]
        return bad + abs(len(expected) - seen)


def canonical_rows(text: str) -> "collections.Counter":
    """A CSV's header and rows as an order-free multiset."""
    lines = text.splitlines()
    return collections.Counter(
        [("header", lines[0])] + [("row", line) for line in lines[1:]]
        if lines else []
    )


def count_mismatch(got: "collections.Counter",
                   want: "collections.Counter") -> int:
    return max(sum((got - want).values()), sum((want - got).values()))


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    else:
        for suffix in ("", "-wal", "-shm"):
            Path(f"{path}{suffix}").unlink(missing_ok=True)


def warm_up(work: Path) -> None:
    """Compile bytecode and load every module a workload imports, untimed."""
    argv = ["explore", "--kernels", "fir", "--allocators", "FR-RA", "OPT-RA",
            "--budgets", "8", "--cache-dir", f"sqlite:{work / 'w.db'}",
            "--gap-report", str(work / "gap.csv"), "--format", "csv"]
    proc = spawn(work, argv, env=child_env(write_bytecode=True))
    remove(work / "w.db")
    if proc.code != 0:
        raise SystemExit(f"perfbench: warm-up failed:\n{proc.stderr[-2000:]}")


# -- end-to-end -------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def end_to_end(workload: Workload, seconds: float, tally: Tally) -> dict:
    rounds: "list[dict]" = []
    setups: "list[float]" = []
    geomean = None
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        procs = []
        for backend in workload.spec["backends"]:
            proc, failed, geomean = workload.run(backend)
            tally.add(workload.points, failed)
            if proc.setup is not None:
                setups.append(proc.setup)
            procs.append(proc)
        rounds.append({
            "wall_s": statistics.fmean(p.wall for p in procs),
            "cpu_s": statistics.fmean(p.cpu for p in procs),
            "peak_rss_mb": max(p.rss_mb for p in procs),
        })
    values = {
        name: [r[name] for r in rounds]
        for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    # 0.0 only when every command failed, which ``correct`` reports; NaN
    # would make the result line invalid JSON.
    values["setup_s"] = setups or [0.0]
    values["design_cycles_geomean"] = [geomean or 0.0]
    values["ok_frac"] = [1.0 - tally.failed / tally.attempted]
    return values


# -- per-layer --------------------------------------------------------------

def layer_totals(spans) -> "dict[str, list[float]]":
    """``name -> [calls, self seconds, total seconds]`` plus OPT-RA leaf
    (``count_with_best_anchors``) and bound (``classify_patterns``)
    spans whose parent is the OPT-RA ``allocate`` span."""
    totals: "dict[str, list[float]]" = collections.defaultdict(
        lambda: [0, 0.0, 0.0]
    )
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    roots = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        entry = totals[name]
        entry[0] += 1
        entry[1] += duration - child[index]
        entry[2] += duration
        if parent < 0:
            roots += duration
        elif spans[parent][0] == "core.allocate.OPT-RA":
            kind = {"synth.count_with_best_anchors": "core.optra.leaf",
                    "sim.classify_patterns": "core.optra.bound"}.get(name)
            if kind:
                totals[kind][0] += 1
                totals[kind][2] += duration
    totals["roots"] = [len(spans), roots, roots]
    return totals


def dispatch_counters(proc: Proc, jobs: int) -> "dict[str, float]":
    scheduler = SCHEDULER_LINE.search(proc.stderr)
    leases, steals, affinity = (
        map(int, scheduler.groups()) if scheduler else (0, 0, 0)
    )
    stats = STATS_LINE.search(proc.stderr)
    profile = PROFILE_LINE.search(proc.stderr)
    busy = float(profile.group(1)) if profile else 0.0
    wall = float(stats.group(7)) if stats else 0.0
    return {
        "dispatch.leases": leases,
        "dispatch.steals": steals,
        "dispatch.affinity_hits": affinity,
        "dispatch.busy_frac": busy / (jobs * wall) if wall else 0.0,
    }


def traced_round(workload: Workload, tally: Tally) -> "tuple[dict, set[str]]":
    """Untraced then traced run per backend; per-layer values of the round.

    Counts and seconds are totals over the round's commands; import
    times are per process; fractions are taken of the totals.
    """
    totals: "dict[str, list[float]]" = collections.defaultdict(
        lambda: [0, 0.0, 0.0]
    )
    memo: "collections.Counter" = collections.Counter()
    imports: "dict[str, list[float]]" = collections.defaultdict(list)
    plain_wall = traced_wall = hits = points = 0.0
    missing: "set[str]" = set()
    for backend in workload.spec["backends"]:
        prefix = str(workload.work / "trace")
        plain, plain_failed, _ = workload.run(backend, jobs=1)
        traced, traced_failed, _ = workload.run(backend, prefix, jobs=1)
        tally.add(2 * workload.points, plain_failed + traced_failed)
        plain_wall += plain.wall
        traced_wall += traced.wall
        if traced.code != 0 or not Path(prefix + ".json").exists():
            missing.add("trace")
            continue
        doc, spans = read_spans(prefix)
        missing.update(doc["missing"])
        for name, values in layer_totals(spans).items():
            for i, value in enumerate(values):
                totals[name][i] += value
        memo.update(doc["context"])
        for cumulative, module in IMPORT_LINE.findall(traced.stderr):
            if module in IMPORT_METRICS:
                imports[module].append(int(cumulative) / 1e6)
        stats = STATS_LINE.search(traced.stderr)
        if stats:
            points += int(stats.group(1))
            hits += int(stats.group(3))

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: "dict[str, float]" = {
        "cli.import_s": frac(totals["cli.import"][2],
                             len(workload.spec["backends"])),
        "cache.hit_frac": frac(hits, points),
        "dispatch.self_s": totals["dispatch"][1],
        "evaluate.points": totals["evaluate"][0],
        "evaluate.self_s": totals["evaluate"][1],
        "core.optra.leaf_evals": totals["core.optra.leaf"][0],
        "core.optra.leaf_s": totals["core.optra.leaf"][2],
        "core.optra.bound_evals": totals["core.optra.bound"][0],
        "core.optra.bound_s": totals["core.optra.bound"][2],
        "trace.overhead_frac": frac(traced_wall - plain_wall, plain_wall),
        "trace.unattributed_frac": frac(
            traced_wall - totals["roots"][1], traced_wall
        ),
    }
    for module in IMPORT_METRICS:
        found = imports.get(module)
        values[f"import.{module}_s"] = statistics.fmean(found) if found else 0.0
    for memo_name in MEMOS:
        values[f"context.{memo_name}.hit_frac"] = frac(
            memo[f"{memo_name}_hits"],
            memo[f"{memo_name}_hits"] + memo[f"{memo_name}_misses"],
        )
    for name, (calls, self_s, _) in totals.items():
        values[f"{name}.calls"] = int(calls)
        values[f"{name}.self_s"] = self_s
    for backend in ("dir", "sqlite"):
        for op in ("read", "write"):
            values[f"backends.{backend}.{op}_s"] = (
                totals[f"backends.{backend}.{op}"][1]
            )
    zero = {
        span for span, owners in ASSIGNED.items()
        if workload.name in owners and totals[span][0] == 0
    }
    return values, zero | missing


def per_layer(workload: Workload, seconds: float, tally: Tally,
              names: "list[str]") -> "tuple[dict, set[str]]":
    jobs = workload.spec["jobs"]
    backends = workload.spec["backends"]
    counters: "collections.Counter" = collections.Counter()
    for backend in backends:
        proc, failed, _ = workload.run(backend)
        tally.add(workload.points, failed)
        counters.update(dispatch_counters(proc, jobs))
    counters["dispatch.busy_frac"] /= len(backends)
    rounds: "list[dict]" = []
    problems: "set[str]" = set()
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        values, zero = traced_round(workload, tally)
        rounds.append(values)
        problems |= zero
    if workload.name == "optra-gap" and not counters["dispatch.leases"]:
        problems.add("dispatch.leases")
    merged = {}
    for name in names:
        if name in counters:
            merged[name] = [counters[name]]
        else:
            merged[name] = [r.get(name, 0.0) for r in rounds]
    return merged, problems


# -- main -------------------------------------------------------------------

def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    problems = knob_violations()
    if problems:
        print("perfbench: not knob-free:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        workload = Workload(args.workload, args.seed, work)
        if workload.canonical_command() != workload.spec["command"]:
            print("perfbench: workloads.json command is stale:\n  "
                  + workload.canonical_command(), file=sys.stderr)
            return 2
        warm_up(work)
        tally.add(*workload.setup())
        if args.trace:
            samples, zero = per_layer(workload, args.seconds, tally,
                                      list(units))
            for span in sorted(zero):
                print(f"# {args.workload}: layer {span} recorded no calls",
                      file=sys.stderr)
            tally.add(len(zero), len(zero))
        else:
            samples = end_to_end(workload, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    metrics = {}
    print(f"# {args.workload} seed={args.seed} "
          f"{'traced' if args.trace else 'untraced'}")
    for name, unit in units.items():
        values = samples[name]
        median = statistics.median(values)
        print(f"{name:36} {median:14.6g} {unit:6} "
              f"min={min(values):.6g} max={max(values):.6g} n={len(values)}")
        metrics[name] = {"value": median, "unit": unit}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
