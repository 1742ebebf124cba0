"""ginalg benchmark: closed-loop CLI workloads, end-to-end metrics and a
traced per-layer breakdown.

    python3 perfbench/run.py --workload gin-dense --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the program is the `src/ginalg`
package of that checkout, started as `python -m ginalg` with `src` on
PYTHONPATH.  Inputs are generated from the seed by `inputs.py`.  One client
sends one CLI request at a time and the next only after the previous one
returns, so at most one ginalg process runs at any moment.

With --trace 0 every request is timed with tracing off and the end-to-end
metrics are printed, in seconds at a reference host speed (see SpeedProbe),
with the raw medians beside them.  With --trace 1 each distinct request runs
once untraced and once under `trace_driver.py` per pass, and the per-layer
metrics are printed.  Every output is checked; the last stdout line is one
JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

# every run ends inside the 180 s a run is allowed, whatever --seconds says
HARD_LIMIT_S = 170.0
# interpreter start plus `import ginalg`, timed this many times per run
SETUP_REPS = 9
# distinct inputs per run for the workloads whose requests are short
THEOREM_SWEEPS = 3
CI_DEMO_SEEDS = 4

WORKLOADS = ("gin-dense", "gin-ideal", "theorem", "ci-demo")

# host-speed probe: one row operation of the kind echelonize does, on 70
# big-Fraction terms, timed every PROBE_PERIOD_S; PROBE_REF_S is the duration
# times are scaled to (about its median on the VM the benchmark was defined on)
PROBE_PERIOD_S = 0.1
PROBE_WINDOW_S = 0.5
PROBE_REF_S = 0.00125


@dataclass
class Request:
    """One unit of client work: CLI calls run in order, checked together."""

    key: str
    calls: list[list[str]]
    check: Callable[[list[str]], str | None]


@dataclass
class Outcome:
    wall: float  # seconds, summed over the request's calls
    cpu: float  # child user + system seconds, summed
    rss_kb: int  # largest child ru_maxrss
    stdouts: list[str]
    error: str | None
    begin: float  # perf_counter interval of the whole request
    end: float
    traces: list[dict]  # one span file per call, for a traced request


class SpeedProbe:
    """Samples the speed of the vCPU the program runs on, for the whole run.

    On the shared 2-vCPU VM this benchmark was written on, each vCPU's speed
    drifts by up to 60% within minutes, and the two drift independently, so
    raw times of one program spread more between runs than any useful
    regression bound.  The client therefore pins itself, this thread and
    every child to one vCPU, and this thread times one fixed row operation
    over big Fractions, the kind echelonize does, every PROBE_PERIOD_S
    (about 1% of the vCPU); it tracks the program's slowdowns more closely
    than a loop over small Fractions does.  A measured interval is scaled by
    PROBE_REF_S over the median probe time around it, which reports it in
    seconds at the reference speed.
    """

    def __init__(self):
        rng = random.Random(0)
        terms = [(i, 70 - i) for i in range(70)]
        self._rows = [
            {t: Fraction(rng.getrandbits(200) | 1, rng.getrandbits(200) | 1) for t in terms} for _ in range(2)
        ]
        self._factor = Fraction(rng.getrandbits(100) | 1, rng.getrandbits(100) | 1)
        self.samples: list[tuple[float, float]] = []  # (end, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            row, other = self._rows
            begin = time.perf_counter()
            for _ in range(2):
                {t: c - self._factor * other[t] for t, c in row.items()}
            end = time.perf_counter()
            self.samples.append((end, end - begin))

    def scale(self, begin: float, end: float) -> float:
        samples = list(self.samples)
        near = [d for t, d in samples if begin - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        durations = near or [d for _, d in samples]
        return PROBE_REF_S / statistics.median(durations) if durations else 1.0


def build_requests(workload: str, seed: int, work: Path) -> list[Request]:
    if workload == "gin-dense":
        path = work / "dense.txt"
        path.write_text(inputs.gin_dense_file(seed), encoding="utf-8")
        return [Request("gin-dense", [["gin", str(path)]], lambda out: checks.check_gin_dense(out[0], 5, 4, 20))]
    if workload == "gin-ideal":
        path = work / "ideal.txt"
        path.write_text(inputs.gin_ideal_file(seed), encoding="utf-8")
        return [
            Request(
                "gin-ideal",
                [["gin-ideal", "--dmax", "5", str(path)]],
                lambda out: checks.check_gin_ideal(out[0], 5, 5),
            )
        ]
    if workload == "theorem":
        requests = []
        for i, sweep in enumerate(inputs.theorem_instances(seed, THEOREM_SWEEPS)):
            calls = []
            for j, ((s, r, n, m), instance_seed) in enumerate(sweep):
                path = str(work / f"instance-{i}-{j}.txt")
                calls += [
                    ["make-instance", "--vars", str(s), "--r", str(r), "--n", str(n), "--m", str(m),
                     "--seed", str(instance_seed), "--out", path],
                    ["verify", path],
                    ["probe", "--expected-m", str(m), path],
                ]
            requests.append(Request(f"theorem-{i}", calls, _theorem_check(sweep)))
        return requests
    if workload == "ci-demo":
        return [
            Request(f"ci-demo-{i}", [["ci-demo", "--seed", str(k)]], lambda out: checks.check_ci_demo(out[0]))
            for i, k in enumerate(inputs.ci_demo_seeds(seed, CI_DEMO_SEEDS))
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _theorem_check(sweep):
    def check(out: list[str]) -> str | None:
        for j, ((s, _, _, m), _) in enumerate(sweep):
            problem = checks.check_theorem(*out[3 * j : 3 * j + 3], num_vars=s, m=m)
            if problem:
                return f"parameter set {j}: {problem}"
        return None

    return check


class Runner:
    """Spawns one process at a time and measures each with wait4."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def spawn(self, argv: list[str]) -> tuple[int, float, float, int, str]:
        """Run `python argv`; returns (exit code, wall s, cpu s, maxrss KiB, stdout)."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, self.deadline - time.monotonic()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return code, wall, cpu, usage.ru_maxrss, out_path.read_text(encoding="utf-8")

    def run(self, request: Request, traced: bool = False) -> Outcome:
        """Run the request's calls in order, each as `python -m ginalg`, or
        under trace_driver.py with its spans collected."""
        spans_path = self.work / "spans.json"
        prefix = [str(HERE / "trace_driver.py"), str(spans_path), "--"] if traced else ["-m", "ginalg"]
        wall = cpu = 0.0
        rss = 0
        stdouts, traces = [], []
        error = None
        begin = time.perf_counter()
        for call in request.calls:
            code, w, c, r, out = self.spawn(prefix + call)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            stdouts.append(out)
            if code != 0:
                error = error or f"{call[0]} exited {code}"
            elif traced:
                traces.append(json.loads(spans_path.read_text(encoding="utf-8")))
        end = time.perf_counter()
        return Outcome(wall, cpu, rss, stdouts, error or request.check(stdouts), begin, end, traces)


class Digests:
    """Byte-identity: a call's stdout must match its first run in this
    process and, on the default seed, the digest pinned in digests.json."""

    def __init__(self, workload: str, seed: int):
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        self.pinned = pinned.get(workload, {}) if seed == inputs.DEFAULT_SEED else {}
        self.seen: dict[str, str] = {}

    def check(self, request: Request, stdouts: list[str]) -> str | None:
        for i, out in enumerate(stdouts):
            key = f"{request.key}#{i}"
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            first = self.seen.setdefault(key, digest)
            if digest != first:
                return f"{key}: stdout differs between repeats"
            if key in self.pinned and digest != self.pinned[key]:
                return f"{key}: stdout differs from the pinned digest"
        return None


def past_target(elapsed: float, walls: list[float], seconds: float, runner: Runner) -> bool:
    """Stop when one more unit of the median length would end the run further
    from --seconds than stopping now does; this gives the long workloads a
    second sample instead of cutting them at one."""
    return elapsed + statistics.median(walls) / 2 >= seconds or time.monotonic() >= runner.deadline


def measure_setup(runner: Runner) -> list[tuple[float, float, float]]:
    """(begin, end, wall) of SETUP_REPS timed `import ginalg` processes."""
    runner.spawn(["-c", "import ginalg"])  # fills the bytecode cache
    timed = []
    for _ in range(SETUP_REPS):
        begin = time.perf_counter()
        wall = runner.spawn(["-c", "import ginalg"])[1]
        timed.append((begin, time.perf_counter(), wall))
    return timed


def end_to_end(runner: Runner, probe: SpeedProbe, requests: list[Request], digests: Digests, seconds: float):
    setup = measure_setup(runner)
    outcomes: list[tuple[Request, Outcome]] = []
    failed = 0
    start = time.perf_counter()
    while True:
        request = requests[len(outcomes) % len(requests)]
        outcome = runner.run(request)
        outcomes.append((request, outcome))
        error = outcome.error or digests.check(request, outcome.stdouts)
        if error:
            failed += 1
            print(f"FAILED {request.key}: {error}", file=sys.stderr)
        if past_target(time.perf_counter() - start, [o.wall for _, o in outcomes], seconds, runner):
            break
    # scales are taken once the run is over, so every interval has probe
    # samples on both sides
    scales = [probe.scale(o.begin, o.end) for _, o in outcomes]
    per_call = [(o.wall / len(r.calls), o.cpu / len(r.calls)) for r, o in outcomes]
    metrics = {
        "solve_s": (statistics.median(w * k for (w, _), k in zip(per_call, scales)), "s"),
        "cpu_s": (statistics.median(c * k for (_, c), k in zip(per_call, scales)), "s"),
        "peak_rss_mb": (max(o.rss_kb for _, o in outcomes) / 1024, "MiB"),
        # one scale for the whole setup phase: each import is too short to
        # have enough probe samples of its own
        "setup_s": (statistics.median(w for _, _, w in setup) * probe.scale(setup[0][0], setup[-1][1]), "s"),
    }
    raw = {
        "solve_s": statistics.median(w for w, _ in per_call),
        "setup_s": statistics.median(w for _, _, w in setup),
        "host_speed": statistics.median(scales),
    }
    return metrics, raw, len(outcomes), failed


# -- traced run ------------------------------------------------------------------

# (metric, unit) for every per-layer metric; values come from layer_metrics
PER_LAYER = [
    ("forms.apply_change.calls", "count"),
    ("forms.apply_change.self_s", "s"),
    ("forms.restrict.calls", "count"),
    ("forms.restrict.self_s", "s"),
    ("forms.parse_form.self_s", "s"),
    ("forms.format_form.self_s", "s"),
    ("forms.Form.constructed", "count"),
    ("subspaces.echelonize.calls", "count"),
    ("subspaces.echelonize.self_s", "s"),
    ("subspaces.echelonize.rows_in", "count"),
    ("subspaces.echelonize.rank_out", "count"),
    ("subspaces.echelonize.max_coeff_bits", "bits"),
    ("subspaces.transform_subspace.self_s", "s"),
    ("subspaces.restrict_subspace.self_s", "s"),
    ("subspaces.contains.self_s", "s"),
    ("subspaces.random_subspace.self_s", "s"),
    ("gin.gin_subspace.calls", "count"),
    ("gin.trial_agreement", "ratio"),
    ("gin.ideal_graded_piece.calls", "count"),
    ("gin.ideal_graded_piece.self_s", "s"),
    ("gin.ideal_graded_piece.rows", "count"),
    ("factors.gcd_forms.calls", "count"),
    ("factors.gcd_forms.self_s", "s"),
    ("factors.common_factor.calls", "count"),
    ("factors.common_factor.gcds_per_call", "ratio"),
    ("factors.divide_subspace.self_s", "s"),
    ("factors.verify.certificate_ratio", "ratio"),
    ("ideals.enumerate_gin_candidates.self_s", "s"),
    ("ideals.hilbert_function.calls", "count"),
    ("ideals.is_borel_fixed.calls", "count"),
    ("demo.search_j2_revlex_witness.self_s", "s"),
    ("demo.witness.candidates_examined", "count"),
    ("demo.is_three_quadric_ci.self_s", "s"),
    ("cli.read_forms_file.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer values summed over the trace files of one pass; every
    per-layer metric but trace.overhead_frac, which needs the untraced runs."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    stats: dict[str, int] = {}
    gcds_in_common_factor = 0
    for trace in traces:
        spans = trace["spans"]
        child_s = [0.0] * len(spans)
        for name, begin, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - begin
        for index, (name, begin, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - begin) - child_s[index]
            if name == "factors.gcd_forms" and parent >= 0 and spans[parent][0] == "factors.common_factor":
                gcds_in_common_factor += 1
        for key, value in trace["stats"].items():
            stats[key] = max(stats.get(key, 0), value) if key.endswith("max_coeff_bits") else stats.get(key, 0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        prefix, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls.get(prefix, 0)
        elif field == "self_s":
            values[metric] = self_s.get(prefix, 0.0)
    values.update(
        {
            "forms.Form.constructed": stats.get("forms.Form.constructed", 0),
            "subspaces.echelonize.rows_in": stats.get("echelonize.rows_in", 0),
            "subspaces.echelonize.rank_out": stats.get("echelonize.rank_out", 0),
            "subspaces.echelonize.max_coeff_bits": stats.get("echelonize.max_coeff_bits", 0),
            "gin.trial_agreement": ratio(stats.get("gin.agreements", 0), stats.get("gin.trials", 0)),
            "gin.ideal_graded_piece.rows": stats.get("ideal_graded_piece.rows", 0),
            "factors.common_factor.gcds_per_call": ratio(gcds_in_common_factor, calls.get("factors.common_factor", 0)),
            "factors.verify.certificate_ratio": ratio(stats.get("verify.certificates", 0), stats.get("verify.calls", 0)),
            "demo.witness.candidates_examined": stats.get("witness.candidates_examined", 0),
        }
    )
    return values


def traced(runner: Runner, probe: SpeedProbe, requests: list[Request], digests: Digests, seconds: float):
    passes: list[tuple[dict[str, float], list[Outcome], list[Outcome]]] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        plain_runs, traced_runs = [], []
        for request in requests:
            # alternate which side runs first, so a drift in machine speed
            # does not bias the overhead one way
            order = (True, False) if len(passes) % 2 else (False, True)
            for with_trace in order:
                outcome = runner.run(request, traced=with_trace)
                (traced_runs if with_trace else plain_runs).append(outcome)
                attempted += 1
                error = outcome.error or digests.check(request, outcome.stdouts)
                if error:
                    failed += 1
                    print(f"FAILED {request.key}{' traced' if with_trace else ''}: {error}", file=sys.stderr)
        values = layer_metrics([t for o in traced_runs for t in o.traces])
        if passes and any(values[m] != passes[0][0][m] for m in values if not m.endswith("self_s")):
            failed += 1
            print("FAILED: per-layer counts differ between passes", file=sys.stderr)
        passes.append((values, plain_runs, traced_runs))
        pass_walls = [sum(o.wall for o in p + t) for _, p, t in passes]
        if past_target(time.perf_counter() - start, pass_walls, seconds, runner):
            break

    def scaled(runs: list[Outcome]) -> float:
        return sum(o.wall * probe.scale(o.begin, o.end) for o in runs)

    # counts repeat in every pass (checked above); times are medians
    first = passes[0][0]
    metrics = {
        m: (statistics.median(v[m] for v, _, _ in passes) if m.endswith("self_s") else first[m], unit)
        for m, unit in PER_LAYER
        if m in first
    }
    metrics["trace.overhead_frac"] = (statistics.median(scaled(t) / scaled(p) - 1.0 for _, p, t in passes), "ratio")
    return metrics, {}, attempted, failed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + HARD_LIMIT_S
    if not (SRC / "ginalg" / "__init__.py").is_file():
        print(f"error: no ginalg package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # the probe thread and every child inherit this single-vCPU affinity
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        with SpeedProbe() as probe:
            runner = Runner(work, deadline)
            requests = build_requests(args.workload, args.seed, work)
            digests = Digests(args.workload, args.seed)
            measure = traced if args.trace else end_to_end
            metrics, raw, attempted, failed = measure(runner, probe, requests, digests, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {attempted} requests, one client")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in raw.items():
        print(f"  raw {name} = {value:.6g}" if name != "host_speed" else f"  host speed scale = {value:.4g}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
