"""End-to-end tuning benchmark: ask/tell through the TCP tuning service.

Usage, from the repository root::

    python3 perfbench/run.py --workload service_churn --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-check

Every workload is a closed loop: a client asks the server, evaluates the
suggestion with the benchmark's black box, tells the result, and only then
asks again.  Work is measured in whole *passes* — one pass runs every
session of the workload's plan to completion — so the mix of early (cheap)
and late (expensive) asks is the same however many passes fit.  A run keeps
starting passes while another one is expected to end within ``--seconds``;
the first pass always runs.  Tuner seeds come from ``--seed`` and the pass
number.

``--trace 0`` prints the end-to-end metrics, measured with no spans
installed.  ``--trace 1`` runs the same passes untraced and then traced and
prints the per-layer split (see ``tracing.py``) plus the tracing overhead.
Both modes check every output: each session must tell its whole budget,
every configuration must satisfy the space's known constraints, and every
session's history must equal an in-process replay with the same benchmark,
tuner, budget, seed and policy.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the sizes, the machine, and every metric with its sample count.  See
``DESIGN.md`` for why each workload exists and which layers it exercises.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread here and in every child (children inherit os.environ),
# set before numpy loads, so numbers measure the program and not the scheduler
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: names, units and workloads of every metric: the benchmark's contract
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: cold starts per run; setup_s is their median
SETUPS = 3
POOLED = "fast,refit_every=32,sweep_every=64,pool=512"


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  ``budget=None`` means each benchmark's Table-3 budget."""

    tuner: str
    policy: str | None
    benchmarks: tuple[str, ...]
    seeds: int                   # sessions per benchmark per connection in a pass
    max_sessions: int            # the server's --max-sessions
    budget: int | None = None
    connections: int = 1
    sessions_dir: bool = False   # the server autosaves, so LRU eviction is on


WORKLOADS = {
    "service_resident": Workload(
        "CoT Sampling", None,
        ("taco_spmm_scircuit", "rise_mm_cpu", "rise_asum_gpu", "hpvm_audio"),
        seeds=1, max_sessions=8, connections=2),
    # one budget for every session keeps all twenty in rotation to the end, so
    # the round-robin keeps missing the four-slot registry until the last op.
    # One connection: with two, another connection's eviction can fall between
    # an ask and its tell, and the reloaded session then rejects that tell (a
    # defect of the registry, see DESIGN.md) instead of measuring its cost
    "service_churn": Workload(
        "BaCO", POOLED,
        ("taco_spmm_scircuit", "rise_mm_cpu", "rise_asum_gpu", "taco_ttv_facebook"),
        seeds=5, max_sessions=4, budget=50, sessions_dir=True),
}


def tiny(workload: Workload) -> Workload:
    """The self-check size: every code path, a few iterations each."""
    return replace(workload, budget=12, seeds=min(workload.seeds, 2))


@dataclass(frozen=True)
class SessionSpec:
    name: str
    benchmark: str
    budget: int
    seed: int
    connection: int


def plan(workload: Workload, seed: int, pass_index: int) -> list[SessionSpec]:
    """The sessions of one pass; the same seed and pass give the same plan."""
    from repro.workloads.registry import get_benchmark

    rng = random.Random(f"{seed}:{pass_index}")
    specs = []
    for connection in range(workload.connections):
        for benchmark in workload.benchmarks:
            for _ in range(workload.seeds):
                budget = workload.budget or get_benchmark(benchmark).full_budget
                specs.append(SessionSpec(
                    f"p{pass_index}-s{len(specs)}", benchmark, budget,
                    rng.randrange(2**31), connection))
    return specs


@dataclass
class Record:
    """What one set of passes observed."""

    ask_ms: list[float] = field(default_factory=list)
    tell_ms: list[float] = field(default_factory=list)
    evals: int = 0
    wall_s: float = 0.0
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: (spec, evaluations as history dicts) of every finished session
    finished: list[tuple[SessionSpec, list[dict]]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    server_ready_s: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def fail(self, what: str) -> None:
        with self.lock:
            self.failed += 1
            self.errors.append(what)


def quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# ---------------------------------------------------------------------------
# service workloads
# ---------------------------------------------------------------------------

class Server:
    """``python -m repro serve --tcp 0`` in its own process (or the traced launcher)."""

    def __init__(self, workload: Workload, workdir: Path, spans_out: Path | None = None) -> None:
        args = ["serve", "--tcp", "0", "--max-sessions", str(workload.max_sessions)]
        if workload.sessions_dir:
            sessions = Path(tempfile.mkdtemp(prefix="sessions-", dir=workdir))
            args += ["--sessions-dir", str(sessions)]
        if spans_out is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(spans_out), *args]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        banner = self.proc.stdout.readline()
        self.ready = time.perf_counter()
        if not banner.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(banner.split()[2].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Ask for shutdown, then wait; kill only if the server hangs."""
        from repro.client import TuningClient

        try:
            if self.proc.poll() is None:
                with TuningClient(port=self.port, timeout=30) as client:
                    client.shutdown()
            self.proc.wait(timeout=60)
        except Exception:  # noqa: BLE001 - never leave a server behind
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def drive_connection(workload: Workload, specs: list[SessionSpec], port: int,
                     record: Record) -> None:
    """One connection: start its sessions, then ask/tell them round-robin.

    Every tenth tell is followed by a ``status`` read; a session that has
    told its whole budget ends with an inline ``snapshot`` and a ``close``.
    """
    from repro.client import TuningClient
    from repro.core.result import configuration_from_json
    from repro.workloads.registry import get_benchmark

    ask_ms: list[float] = []
    tell_ms: list[float] = []
    attempted = evals = 0
    with TuningClient(port=port, timeout=120) as client:
        active = []
        for spec in specs:
            client.session = spec.name
            attempted += 1
            try:
                client.start(spec.benchmark, spec.budget, tuner=workload.tuner, seed=spec.seed,
                             **({"surrogate_policy": workload.policy} if workload.policy else {}))
                active.append(spec)
            except Exception as exc:  # noqa: BLE001
                record.fail(f"{spec.name} start: {type(exc).__name__}: {exc}")
        while active:
            for spec in list(active):
                client.session = spec.name
                evaluator = get_benchmark(spec.benchmark).evaluator
                try:
                    attempted += 1
                    started = time.perf_counter()
                    (entry,) = client.ask(1)["suggestions"]
                    ask_ms.append(1e3 * (time.perf_counter() - started))
                    configuration = configuration_from_json(entry["configuration"])
                    evaluated = time.perf_counter()
                    result = evaluator(configuration)
                    elapsed = time.perf_counter() - evaluated
                    attempted += 1
                    started = time.perf_counter()
                    told = client.tell(entry["id"], result.value,
                                       feasible=result.feasible, elapsed=elapsed)
                    tell_ms.append(1e3 * (time.perf_counter() - started))
                    evals += 1
                    if evals % 10 == 0:
                        attempted += 1
                        client.status()
                    if told["done"]:
                        attempted += 2
                        snapshot = client.snapshot()["snapshot"]
                        client.close_session()
                        active.remove(spec)
                        with record.lock:
                            record.finished.append(
                                (spec, snapshot["history"]["evaluations"]))
                except Exception as exc:  # noqa: BLE001 - ok:false and transport errors
                    record.fail(f"{spec.name}: {type(exc).__name__}: {exc}")
                    active.remove(spec)
    with record.lock:
        record.ask_ms += ask_ms
        record.tell_ms += tell_ms
        record.attempted += attempted
        record.evals += evals


def service_pass(workload: Workload, specs: list[SessionSpec], port: int,
                 record: Record) -> None:
    threads = [
        threading.Thread(target=drive_connection, args=(
            workload, [s for s in specs if s.connection == k], port, record))
        for k in range(workload.connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ---------------------------------------------------------------------------
# passes, set-up, correctness
# ---------------------------------------------------------------------------

def run_passes(workload: Workload, seed: int, seconds: float, record: Record,
               port: int, max_passes: int | None = None) -> None:
    """Whole passes while the next one is expected to end within ``seconds``."""
    last = 0.0
    while record.passes == 0 or (record.wall_s + last <= seconds
                                 and (max_passes is None or record.passes < max_passes)):
        specs = plan(workload, seed, record.passes)
        started = time.perf_counter()
        service_pass(workload, specs, port, record)
        last = time.perf_counter() - started
        record.wall_s += last
        record.passes += 1


def measure(workload: Workload, seed: int, seconds: float, workdir: Path,
            spans_out: Path | None = None, max_passes: int | None = None) -> Record:
    record = Record()
    server = Server(workload, workdir, spans_out)
    record.server_ready_s = server.ready - server.started
    try:
        run_passes(workload, seed, seconds, record, port=server.port, max_passes=max_passes)
        record.peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    return record


def check(workload: Workload, record: Record) -> None:
    """Count every session whose output is wrong as one failed operation.

    Each session must have told its whole budget, in configurations that
    satisfy the space's known constraints, and must equal its in-process
    replay, which evaluates the black box itself.
    """
    from repro.core.result import configuration_from_json
    from repro.core.session import drive
    from repro.experiments.runner import make_session
    from repro.workloads.registry import get_benchmark

    for spec, evaluations in record.finished:
        benchmark = get_benchmark(spec.benchmark)
        problems = []
        if len(evaluations) != spec.budget:
            problems.append(f"{len(evaluations)} evaluations for budget {spec.budget}")
        for entry in evaluations:
            if not benchmark.space.is_feasible(configuration_from_json(entry["configuration"])):
                problems.append(f"evaluation {entry['index']} violates a known constraint")
                break
        session, _ = make_session(spec.benchmark, workload.tuner, spec.budget,
                                  spec.seed, surrogate_policy=workload.policy)
        if drive(session, benchmark.evaluator).to_dict()["evaluations"] != evaluations:
            problems.append("history differs from its in-process replay")
        if problems:
            record.fail(f"{spec.name}: {'; '.join(problems)}")


def best_rel(record: Record) -> float:
    """Geometric mean over sessions of best value / ``reference_value``."""
    from repro.workloads.registry import get_benchmark

    logs = []
    for spec, evaluations in record.finished:
        feasible = [e["value"] for e in evaluations if e["feasible"]]
        reference = get_benchmark(spec.benchmark).reference_value
        if feasible:
            logs.append(math.log(min(feasible) / reference))
    return math.exp(statistics.fmean(logs)) if logs else math.inf


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def probe_in_process(workload: Workload) -> dict[str, float]:
    """Spawn the setup probe and time it from spawn to its first ask."""
    first = plan(workload, 0, 0)[0]
    command = [sys.executable, str(HERE / "setup_probe.py"), ",".join(workload.benchmarks),
               workload.tuner, str(first.budget)] + ([workload.policy] if workload.policy else [])
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, check=True, timeout=120)
    wall = time.perf_counter() - started
    return {"setup_s": wall, **json.loads(done.stdout.splitlines()[-1])}


def probe_server(workload: Workload, workdir: Path) -> float:
    """Time a fresh server from spawn to banner and to its first answered ask."""
    from repro.client import TuningClient

    first = plan(workload, 0, 0)[0]
    server = Server(workload, workdir)
    try:
        with TuningClient(port=server.port, session="setup", timeout=120) as client:
            client.start(first.benchmark, first.budget, tuner=workload.tuner,
                         **({"surrogate_policy": workload.policy} if workload.policy else {}))
            client.ask(1)
        asked = time.perf_counter()
    finally:
        server.stop()
    return asked - server.started


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def sizes(workload: Workload, name: str, seed: int, record: Record) -> dict[str, Any]:
    from repro.workloads.registry import get_benchmark

    return {
        "workload": name,
        "seed": seed,
        "tuner": workload.tuner,
        "policy": workload.policy or "exact",
        "budgets": {b: workload.budget or get_benchmark(b).full_budget
                    for b in workload.benchmarks},
        "sessions_per_pass": len(workload.benchmarks) * workload.seeds * workload.connections,
        "connections": workload.connections,
        "max_sessions": workload.max_sessions or None,
        "sessions_dir": workload.sessions_dir,
        "passes": record.passes,
    }


def machine() -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        workload: Workload | None = None, setups: int = SETUPS,
        max_passes: int | None = None) -> dict[str, Any]:
    """One benchmark run; returns the result plus sizes and sample counts."""
    workload = workload or WORKLOADS[name]
    context = {"machine": machine()}
    metrics: dict[str, tuple[float, int]] = {}  # name -> (value, samples)
    if not trace:
        setup_s = statistics.median(probe_server(workload, workdir) for _ in range(setups))
        record = measure(workload, seed, seconds, workdir, max_passes=max_passes)
        check(workload, record)
        metrics["setup_s"] = (setup_s, setups)
        metrics["evals_per_s"] = (record.evals / record.wall_s, record.evals)
        metrics["ask_ms_p50"] = (statistics.median(record.ask_ms), len(record.ask_ms))
        metrics["ask_ms_p90"] = (quantile(record.ask_ms, 0.90), len(record.ask_ms))
        metrics["tell_ms_p50"] = (statistics.median(record.tell_ms), len(record.tell_ms))
        metrics["best_rel"] = (best_rel(record), len(record.finished))
        metrics["peak_rss_mb"] = (record.peak_rss_mb, 1)
        # p99 only where at least ten samples lie beyond it; reported, not gated
        extra = {f"{kind}_ms_p99": (quantile(values, 0.99), len(values))
                 for kind, values in (("ask", record.ask_ms), ("tell", record.tell_ms))
                 if len(values) >= 1000}
        records = [record]
    else:
        from tracing import Tracer, layer_metrics, load_spans, wrap_client, wrap_evaluator
        from repro.workloads.registry import get_benchmark

        steps = [probe_in_process(workload) for _ in range(setups)]
        plain = measure(workload, seed, seconds, workdir, max_passes=max_passes)
        tracer = Tracer()
        for benchmark in workload.benchmarks:
            wrap_evaluator(tracer, get_benchmark(benchmark))
        wrap_client(tracer)
        spans_out = workdir / "server-spans.json"
        try:
            record = measure(workload, seed, seconds, workdir, spans_out, max_passes=max_passes)
        finally:
            tracer.unpatch()
        for metric, value in layer_metrics(tracer.spans, load_spans(spans_out)).items():
            metrics[metric] = (value, record.evals)
        for step in ("import_s", "benchmark_build_s"):
            metrics[f"setup.{step}"] = (statistics.median(p[step] for p in steps), setups)
        metrics["setup.server_ready_s"] = (plain.server_ready_s, 1)
        traced_rate = record.evals / record.wall_s
        plain_rate = plain.evals / plain.wall_s
        metrics["trace.evals_per_s"] = (traced_rate, record.evals)
        metrics["trace.overhead_frac"] = (1 - traced_rate / plain_rate, plain.evals)
        check(workload, plain)
        check(workload, record)
        extra = {}
        records = [plain, record]
    context["sizes"] = sizes(workload, name, seed, records[-1])
    failed = sum(r.failed for r in records)
    attempted = sum(r.attempted for r in records)
    units = {m["name"]: m["unit"] for m in (*SPEC["end_to_end"], *SPEC["per_layer"])}
    return {
        "context": context,
        "samples": {m: n for m, (_, n) in {**metrics, **extra}.items()},
        "reported": {m: {"value": v, "unit": "ms"} for m, (v, _) in extra.items()},
        "errors": [e for r in records for e in r.errors],
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, (v, _) in metrics.items()},
        },
    }


def print_report(report: dict[str, Any]) -> None:
    print("context " + json.dumps(report["context"], sort_keys=True))
    shown = {**report["result"]["metrics"], **report["reported"]}
    for metric, entry in shown.items():
        gated = "" if metric in report["result"]["metrics"] else "  (reported, not gated)"
        print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']:6s} "
              f"n={report['samples'][metric]}{gated}")
    for error in report["errors"][:20]:
        print(f"  FAILED {error}")


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------

def self_check(workdir: Path) -> int:
    """Every workload, tiny, in both modes: schema, correctness, replay."""
    expected = {
        False: {m["name"] for m in SPEC["end_to_end"]},
        True: {m["name"] for m in SPEC["per_layer"]},
    }
    bad = 0
    if {w["name"] for w in SPEC["workloads"]} != set(WORKLOADS):
        print("self-check: BENCHMARK.json names other workloads than run.py")
        bad += 1
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            report = run(name, 7, 0, trace, workdir, workload=tiny(workload),
                         setups=1, max_passes=1)
            result = report["result"]
            problems = []
            if set(result["metrics"]) != expected[trace]:
                problems.append(f"metrics {sorted(set(result['metrics']) ^ expected[trace])}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"failures {report['errors']}")
            values = {m: entry["value"] for m, entry in result["metrics"].items()}
            if trace and not values["wire.rtt_overhead_ms"]:
                problems.append("no client/server request pairs")
            if trace and workload.sessions_dir and not values["runner.loads"]:
                problems.append("no reloads")
            print(f"self-check {name} trace={int(trace)}: "
                  f"{'ok' if not problems else 'FAIL ' + '; '.join(problems)}", flush=True)
            bad += bool(problems)
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full report as JSON")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at a tiny size in both modes")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.self_check:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    # a terminated run still stops its server and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.self_check:
            return self_check(workdir)
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
