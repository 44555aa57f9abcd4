#!/usr/bin/env python3
"""The roughwork benchmark: one closed-loop caller, one process, one thread.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Each job is a call into roughwork's public API that ends in one verdict;
the next job starts when the previous one returns. Jobs come in rounds
that hold every template of the workload once (see jobs.py), and a run
measures whole rounds until ``--seconds`` have passed. Every report is
digested and compared with ``reference.json``; a mismatch or an exception
counts as a failed job.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics. With ``--trace 1`` each round runs twice on the same
inputs, untraced and traced, and the JSON object holds the per-layer
metrics; the spans and the per-layer table are written to ``.perfbench/``.
perfbench/README.md describes every metric.

roughwork is imported from ``src/`` next to this directory and nowhere else,
so the benchmark refuses to run without the source tree.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MODEL_DIR = OUT / "models"
REFERENCE = BENCH / "reference.json"
# Set-up probes before and after the loop, so one burst of contention on a
# shared machine cannot move them all.
SETUP_PROBES = (4, 3)
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Time of calibrate() on a quiet core of the machine the benchmark was built
# on (2-core x86-64 container, Python 3.11); times are reported at this speed.
CALIBRATION_NS = 2_000_000


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b


def calibrate() -> int:
    """Time in ns of a fixed pure-Python loop that never touches roughwork.

    Other tenants of a shared machine slow the interpreter by up to 2x for
    seconds at a time. They slow this loop and a job run next to it alike:
    on the machine the benchmark was built on, job time over the time of
    this loop around it stayed within 4% while job time alone swung 30%.
    """
    start = time.perf_counter_ns()
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(4000):
        cell = _Cell(i & 255, i >> 3)
        key = (cell.a, cell.b & 7)
        counts[key] = counts.get(key, 0) + 1
        acc ^= cell.a | cell.b
    acc += sum(1 for c in counts.values() if c > 1)
    return time.perf_counter_ns() - start


def speed_scale(samples: list[int]) -> float:
    """Factor taking times measured next to these calibrations to the reference speed."""
    return CALIBRATION_NS / statistics.median(samples)


def import_roughwork() -> None:
    """Import roughwork from this checkout's src/, or exit without a result."""
    if not (SRC / "roughwork" / "__init__.py").is_file():
        sys.exit(f"error: no roughwork source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import roughwork

    if Path(roughwork.__file__).resolve().parent != SRC / "roughwork":
        sys.exit(f"error: roughwork imported from {roughwork.__file__}, not {SRC}")


def build_inputs(workload: str) -> dict:
    """Generate every variant of every template of the workload and load it once."""
    import jobs

    if workload == "query":
        jobs.write_model_files(MODEL_DIR)
    inputs = {}
    for t in jobs.TEMPLATES[workload]:
        for v in range(jobs.VARIANTS):
            data = jobs.make_input(workload, t, v)
            jobs.load_job(workload, t, data, MODEL_DIR)
            inputs[(t.id, v)] = data
    return inputs


def setup_probe(workload: str) -> None:
    """Run in a fresh interpreter: time the import, then the inputs."""
    t0 = time.perf_counter()
    import_roughwork()
    t1 = time.perf_counter()
    build_inputs(workload)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))


def setup_probes(workload: str, count: int) -> list[dict]:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def setup_figures(samples: list[dict], scale: float) -> dict:
    """Median set-up times, scaled by the run's speed factor."""
    return {
        "setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in samples) * scale,
        "setup.import_s": statistics.median(s["import_s"] for s in samples) * scale,
        "setup.inputs_s": statistics.median(s["inputs_s"] for s in samples) * scale,
    }


class Run:
    """The closed loop: rounds of jobs, timed one by one, checked one by one."""

    def __init__(self, workload: str, seed: int, inputs: dict, reference: dict):
        import jobs  # imports roughwork

        self.jobs = jobs
        self.workload = workload
        self.inputs = inputs
        self.reference = reference.get(workload, {})
        self.rng = gen.rng_for("rounds", workload, seed)
        self.tracer = spans.Tracer()
        # job times by template id at the reference speed, untraced and traced
        self.job_ns: dict[str, list[float]] = defaultdict(list)
        self.traced_ns: dict[str, list[float]] = defaultdict(list)
        self.raw_ns: dict[str, list[int]] = defaultdict(list)  # untraced, as measured
        self.traced_jobs: list = []
        self.traced_scale: list[float] = []
        self.calibrations: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.found = 0

    def picks(self) -> list:
        templates = self.jobs.TEMPLATES[self.workload]
        out = [(t, self.rng.randrange(self.jobs.VARIANTS)) for t in templates]
        self.rng.shuffle(out)
        return out

    def run_round(self, picks: list, traced: bool) -> None:
        jobs = self.jobs
        tr = self.tracer if traced else spans.NullTracer()
        for t, v in picks:
            job = jobs.load_job(self.workload, t, self.inputs[(t.id, v)], MODEL_DIR)
            gc.collect()
            if traced:
                tr.job_id = len(self.traced_jobs)
                self.traced_jobs.append(job)
                tr.install()
            report, error = None, None
            before = calibrate()
            start = time.perf_counter_ns()
            try:
                with tr.span(spans.JOB_LAYER, t.kind):
                    report = job.run(tr)
            except Exception as exc:  # a failed job is counted, not fatal
                error = exc
            elapsed = time.perf_counter_ns() - start
            after = calibrate()
            self.calibrations += (before, after)
            scale = speed_scale([before, after])
            if traced:
                tr.uninstall()
                tr.job_id = None
                self.traced_ns[t.id].append(elapsed * scale)
                self.traced_scale.append(scale)
                if t.kind == "search" and error is None:
                    self.found += len(report)
            else:
                self.job_ns[t.id].append(elapsed * scale)
                self.raw_ns[t.id].append(elapsed)
            self.attempted += 1
            problem = self.check(t, v, report, error)
            if problem:
                self.failed += 1
                self.problems.append(f"{t.id} v{v}: {problem}")

    def check(self, t, v: int, report, error) -> str | None:
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        digests = self.reference.get(t.id)
        if digests is None or len(digests) <= v:
            return "no reference digest"
        if self.jobs.digest(report) != digests[v]:
            return "report differs from the reference"
        if self.workload == "sweep" and t.kind in KNOWN_PASS and self.jobs.has_failure(report):
            return "a partition space failed a law"
        if self.workload == "witness" and not self.jobs.has_failure(report):
            return "a failing input passed every law"
        return None

    def loop(self, seconds: float, trace: bool) -> int:
        start = time.perf_counter()
        rounds = 0
        while True:
            picks = self.picks()
            # With tracing, each round runs twice; the order alternates so
            # neither pass gains from running second.
            passes = (False, True) if rounds % 2 == 0 else (True, False)
            for traced in passes if trace else (False,):
                self.run_round(picks, traced)
            rounds += 1
            if time.perf_counter() - start >= seconds:
                return rounds


# Suites that hold on every partition space.
KNOWN_PASS = ("gos", "admissibility", "prerough", "essential", "cera")


def known_answers() -> list[str]:
    """Fixed checks: a partition space passes, each kind of mutant fails."""
    import jobs

    def verdict(workload, kind, data):
        t = jobs.Template(f"known-{kind}", kind, (2, 2, 1))
        return jobs.load_job(workload, t, data, MODEL_DIR).run(spans.NullTracer())

    problems = []
    blocks = [["a", "d"], ["b", "e"], ["c"]]
    space_data = {"n": 5, "blocks": blocks}
    for kind in ("gos", "prerough", "essential", "cera"):
        if jobs.has_failure(verdict("sweep", kind, space_data)):
            problems.append(f"known answer: a partition space fails {kind}")
    cand = gen.quotient_candidate(5, blocks)
    for kind in ("prerough", "essential"):
        if jobs.has_failure(verdict("witness", kind, dict(space_data, candidate=cand))):
            problems.append(f"known answer: the quotient candidate fails {kind}")
        for table in ("meet", "join", "neg", "necessity"):
            mutant = gen.mutate_candidate(gen.rng_for("known", table), cand, table, 0, 1)
            if not jobs.has_failure(verdict("witness", kind, dict(space_data, candidate=mutant))):
                problems.append(f"known answer: a {table} mutant passes {kind}")
    for side in ("lower", "upper"):
        lower, upper = gen.perturb_tables(gen.rng_for("known", side), 5, blocks, side, 0, 1)
        for kind in ("gos", "admissibility"):
            data = dict(space_data, lower=lower, upper=upper)
            if not jobs.has_failure(verdict("witness", kind, data)):
                problems.append(f"known answer: a perturbed {side} table passes {kind}")
    mapping = gen.non_involution(gen.rng_for("known", "map"), gen.class_count((2, 2, 1)))
    if not jobs.has_failure(verdict("witness", "negation", dict(space_data, map=mapping))):
        problems.append("known answer: a non-involution passes every negation law")
    return problems


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def template_ms(times: dict[str, list[float]]) -> list[float]:
    """Each template's time to a verdict: the median of its jobs, in ms."""
    return [statistics.median(ns) / 1e6 for ns in times.values()]


def job_figures(times: dict[str, list[float]]) -> tuple[float, float, float]:
    """jobs_per_s, job_p50_ms, job_p90_ms over the templates' times.

    One caller runs one round of templates at ``jobs_per_s``.
    """
    ms = template_ms(times)
    return 1000 * len(ms) / sum(ms), statistics.median(ms), quantile(ms, 90)


def end_to_end(run: Run, setup: dict) -> dict:
    n = sum(len(ns) for ns in run.job_ns.values())
    rate, p50, p90 = job_figures(run.job_ns)
    return {
        "jobs_per_s": (n, "1/s", rate),
        "job_p50_ms": (n, "ms", p50),
        "job_p90_ms": (n, "ms", p90),
        "peak_rss_mb": (None, "MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        "setup_s": (sum(SETUP_PROBES), "s", setup["setup_s"]),
    }


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, with its unit, in report order."""
    out = [("setup.import_s", "s"), ("setup.inputs_s", "s")]
    out += [("trace.job_ms", "ms"), ("trace.bench_self_ms", "ms"), ("trace.overhead", "ratio")]
    for layer in spans.LAYERS:
        out += [
            (f"{layer}.calls", "count"),
            (f"{layer}.self_ms", "ms"),
            (f"{layer}.share", "ratio"),
            (f"{layer}.failed", "count"),
        ]
    out += [(f"{layer}.{name}.self_ms", "ms") for layer, name in STAGES]
    out += [(name, "count") for name in WORK_COUNTS]
    out += [("granular.search.found", "count"), ("granular.search.useful_ratio", "ratio")]
    return out


STAGES = (
    ("approx", "rough_classes"),
    ("granular", "from_space"),
    ("granular", "check_gos_axioms"),
    ("granular", "check_admissibility"),
    ("granular", "search_admissible_granulations"),
    ("prerough", "quotient_algebra"),
    ("prerough", "to_candidate"),
    ("prerough", "check_pre_rough"),
    ("prerough", "check_essential_pre_rough"),
    ("cera", "CeraModel"),
    ("cera", "check_cera_identities"),
    ("crad", "CradModel"),
    ("parthood", "analyze"),
    ("negation", "BoundedPoset"),
    ("negation", "check_negation"),
    ("model_io", "load_model"),
    ("expr", "parse"),
    ("expr", "eval_expr"),
    ("cli", "main"),
)

WORK_COUNTS = (
    "approx.masks",
    "prerough.carrier",
    "prerough.cells",
    "cera.carrier",
    "cera.table_cells",
    "crad.pairs",
    "parthood.matrix_cells",
    "negation.poset_elems",
    "granular.gos_cells",
    "granular.search.candidates",
)


def per_layer(run: Run, setup: dict) -> dict:
    """Per-layer metrics from the traced rounds; counts and times are per traced job."""
    jobs_n = sum(len(ns) for ns in run.traced_ns.values())
    rows = run.tracer.self_times()
    agg = spans.aggregate(rows, run.traced_scale)
    # the jobs' root spans: the layers' self times and the benchmark's add up to these
    job_ms = sum((r[6] - r[5]) * run.traced_scale[r[2]] for r in rows if r[1] is None)
    job_ms /= 1e6 * jobs_n
    values = {
        "setup.import_s": setup["setup.import_s"],
        "setup.inputs_s": setup["setup.inputs_s"],
        "trace.job_ms": job_ms,
        "trace.bench_self_ms": sum(
            v[1] for (layer, _), v in agg["functions"].items() if layer == spans.JOB_LAYER
        )
        / 1e6
        / jobs_n,
        # traced jobs per second over untraced jobs per second, same inputs
        "trace.overhead": sum(template_ms(run.job_ns)) / sum(template_ms(run.traced_ns)),
    }
    for layer in spans.LAYERS:
        calls, self_ns, failed = agg["layers"].get(layer, (0, 0, 0))
        values[f"{layer}.calls"] = calls / jobs_n
        values[f"{layer}.self_ms"] = self_ns / 1e6 / jobs_n
        values[f"{layer}.share"] = self_ns / 1e6 / jobs_n / job_ms
        values[f"{layer}.failed"] = failed / jobs_n
    for layer, name in STAGES:
        self_ns = agg["functions"].get((layer, name), (0, 0, 0))[1]
        values[f"{layer}.{name}.self_ms"] = self_ns / 1e6 / jobs_n
    for name in WORK_COUNTS:
        values[name] = sum(job.work.get(name, 0) for job in run.traced_jobs) / jobs_n
    values["granular.search.found"] = run.found / jobs_n
    candidates = values["granular.search.candidates"]
    found = values["granular.search.found"]
    values["granular.search.useful_ratio"] = found / candidates if candidates else 0.0
    return values


def layer_table(values: dict) -> str:
    lines = [f"{'layer':10s} {'calls/job':>10s} {'self ms/job':>12s} {'share':>7s} {'failed':>7s}"]
    for layer in spans.LAYERS:
        lines.append(
            f"{layer:10s} {values[layer + '.calls']:10.3f} {values[layer + '.self_ms']:12.3f}"
            f" {values[layer + '.share']:7.3f} {values[layer + '.failed']:7.3f}"
        )
    lines.append(f"{'(bench)':10s} {'':10s} {values['trace.bench_self_ms']:12.3f}")
    lines.append(f"{'job':10s} {'':10s} {values['trace.job_ms']:12.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("sweep", "witness", "search", "query")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    import_roughwork()
    probes = setup_probes(args.workload, SETUP_PROBES[0])
    inputs = build_inputs(args.workload)
    reference = json.loads(REFERENCE.read_text())["digests"]
    # Set-up objects leave the collector's view, so the collection before
    # each job costs next to nothing and no job pays for an earlier one's garbage.
    gc.collect()
    gc.freeze()

    run = Run(args.workload, args.seed, inputs, reference)
    rounds = run.loop(args.seconds, trace=bool(args.trace))
    probes += setup_probes(args.workload, SETUP_PROBES[1])
    # A fresh interpreter cannot calibrate itself well: the loop runs cold.
    # The run's hundreds of calibrations give the machine's speed instead.
    setup = setup_figures(probes, speed_scale(run.calibrations))
    problems = run.problems + known_answers()
    correct = not problems
    for line in problems[:20]:
        print(f"problem: {line}")
    print(
        f"workload={args.workload} seed={args.seed} rounds={rounds} jobs={run.attempted}"
        f" failed={run.failed} error_rate={run.failed / run.attempted:.6f}"
    )

    if args.trace:
        values = per_layer(run, setup)
        units = dict(per_layer_names())
        OUT.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        run.tracer.write(OUT / f"spans-{stem}.jsonl")
        table = layer_table(values)
        (OUT / f"layers-{stem}.txt").write_text(table + "\n")
        print(table)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        metrics = {}
        for name, (samples, unit, value) in end_to_end(run, setup).items():
            print(f"{name} = {value:.6g} {unit}" + (f" (n={samples})" if samples else ""))
            metrics[name] = {"value": value, "unit": unit}
        rate, p50, p90 = job_figures(run.raw_ns)
        print(
            f"unscaled: jobs_per_s = {rate:.6g}, job_p50_ms = {p50:.6g},"
            f" job_p90_ms = {p90:.6g}; calibration median"
            f" {statistics.median(run.calibrations) / 1e6:.4g} ms"
            f" (reference {CALIBRATION_NS / 1e6:.4g} ms)"
        )
    bad = [name for name in metrics if not METRIC_NAME.fullmatch(name)]
    if bad:
        sys.exit(f"error: malformed metric names {bad}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
