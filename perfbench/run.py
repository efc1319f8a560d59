"""Benchmark of jetweyl's verdicts: time to verdict, interpreted work and
per-layer spans, on four workloads.

    python3 perfbench/run.py --workload proofs|orbits|sections|cli_cold \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it measures ``src/jetweyl`` of
that checkout.  Every pass of a batch runs in a fresh worker process, one
timed process at a time (a closed loop).  With ``--trace 0`` the run times
passes until ``--seconds`` have gone by (at least one), and cold starts
until there are ``SETUP_SAMPLES``, on one core beside the speed meter
(``meter.py``); on a second core it meanwhile counts the Python calls of
one more pass under ``cProfile``.  It reports the end-to-end metrics.
With ``--trace 1`` it runs one pass with span wrappers and reports the
per-layer metrics.  Every verdict of every pass is checked.  The last line
of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import meter  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("proofs", "orbits", "sections", "cli_cold")
# PYTHONHASHSEED of the n-th worker process of a run, the same in every run
HASH_SEEDS = (11, 23, 37, 41, 53, 67, 71, 83, 97, 101, 113, 127, 131, 149, 151)
PROFILE_HASH_SEED = 7
# cold starts behind setup_s; each costs about 1.2 s of a run on the shared
# core, and with the meter 5 give a median that repeats within a few per cent
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
# a worker that runs longer than this is stopped and the run fails
WORKER_TIMEOUT_S = 150
OUT_DIR = ".perfbench"
# verdicts named on the note line before the result
SLOWEST_SHOWN = 6

# per-layer metric prefix -> (the span it is read from, what is reported)
NAMED_SPANS = {
    "exprcore.normalize": ("exprcore.normalize", ("calls", "self_s")),
    "jets.total_derivative": ("jets.total_derivative", ("calls", "self_s")),
    "jets.reduce": ("jets.EquationSystem.reduce", ("calls", "self_s")),
    "jets.principal_expr": ("jets.EquationSystem.principal_expr", ("self_s",)),
    "jets.point_eval": ("jets.JetPoint.eval", ("calls", "self_s")),
    "fields.coeff": ("fields.ProlongedField.coeff", ("calls", "self_s")),
    "linalg.rank": ("linalg.rank", ("calls", "self_s")),
    "jets.section_residuals": ("jets.EquationSystem.section_residuals", ("calls", "self_s")),
    "geometry.solution": ("geometry.Solution.__init__", ("calls",)),
    "symmetry.element": ("symmetry.PseudogroupElement.__init__", ("calls", "self_s")),
    "symmetry.transform_section": ("symmetry.transform_section", ("self_s",)),
    "geometry.check_EW": ("geometry.check_EW", ("self_s",)),
    "equivalence.signature": ("equivalence.signature", ("self_s",)),
    "equivalence.jet_cloud": ("equivalence.jet_cloud", ("self_s",)),
}
DSL_PARSE_SPANS = ("dsl.parse_expr", "dsl.parse_solution")


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts worker processes and keeps what they report.  A process runs
    on the cores of the thread that starts it."""

    def __init__(self, root: str, tmp: str, spare_cpu: int | None = None):
        self.root = root
        self.tmp = tmp
        self.spare_cpu = spare_cpu
        self.spawned = 0
        self.live = set()
        self.stopping = False
        self.lock = threading.Lock()

    def _env(self, hash_seed: int | None = None) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        if hash_seed is None:
            hash_seed = HASH_SEEDS[self.spawned % len(HASH_SEEDS)]
            self.spawned += 1
        env["PYTHONHASHSEED"] = str(hash_seed)
        return env

    @contextlib.contextmanager
    def beside(self, fn):
        """Run ``fn``, which starts the ``cProfile`` workers of a run, in a
        thread on the spare core while the block times on this thread's
        core; with no spare core, after the block."""
        if self.spare_cpu is None:
            yield
            fn()
            return
        failure = []

        def target():
            os.sched_setaffinity(0, {self.spare_cpu})
            try:
                fn()
            except BaseException as exc:
                failure.append(exc)

        thread = threading.Thread(target=target)
        thread.start()
        try:
            yield
        except BaseException:
            with self.lock:
                self.stopping = True
                for proc in self.live:
                    proc.kill()
            raise
        finally:
            thread.join()
        if failure:
            raise failure[0]

    def process(self, argv: list[str], cwd: str, hash_seed: int | None = None) -> dict:
        """Run one process to its end.  Returns its exit code, its standard
        output after the ``READY`` line, the ``time.monotonic()`` of its
        start, of ``READY`` (None without one) and of its exit, the seconds
        from start to ``READY`` and to exit, its CPU seconds and its peak
        RSS in KiB."""
        env = self._env(hash_seed)
        with self.lock:
            if self.stopping:
                raise BenchError("the run is stopping")
            t0 = monotonic()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                    stdin=subprocess.DEVNULL)
            self.live.add(proc)
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready = None
            lines = []
            for raw in proc.stdout:
                if ready is None and raw == b"READY\n":
                    ready = monotonic()
                else:
                    lines.append(raw)
            _, status, usage = os.wait4(proc.pid, 0)
            end = monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            with self.lock:
                self.live.discard(proc)
        return {"exit": proc.returncode, "stdout": b"".join(lines).decode(),
                "start": t0, "ready": ready, "end": end,
                "ready_s": None if ready is None else ready - t0, "total_s": end - t0,
                "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kib": usage.ru_maxrss}

    def worker(self, *args: str, hash_seed: int | None = None,
               cwd: str | None = None) -> tuple[dict, dict]:
        """A worker of ``worker.py``: (its JSON document, process record)."""
        argv = [sys.executable, os.path.join(HERE, "worker.py"), *args]
        rec = self.process(argv, cwd or self.root, hash_seed)
        last = rec["stdout"].strip().splitlines()[-1:]
        if rec["exit"] != 0 or rec["ready_s"] is None or not last:
            raise BenchError(f"worker {args} ended with code {rec['exit']}")
        return json.loads(last[0]), rec


# ---------------------------------------------------------------------------
# batch workloads


def _tally(totals: dict, outcomes) -> None:
    """Count (name, status) outcomes; status is ok, failed or wrong."""
    for name, status in outcomes:
        totals[status] = totals.get(status, 0) + 1
        if status == "wrong":
            totals.setdefault("wrong_names", []).append(name)


def timed_metrics(clock, setups, passes, rss_kib, py_calls) -> tuple[dict, str]:
    """End-to-end metrics, and the note that goes with them, from CPU
    seconds spent within intervals of ``time.monotonic()``: ``setups`` holds
    (cpu, start, READY) per cold start, ``passes`` (name, cpu, start, end)
    per verdict of each timed pass.  Times are reference seconds."""
    named = [(clock.seconds(cpu, t0, t1), name)
             for timed in passes for name, cpu, t0, t1 in timed]
    walls = [sum(clock.seconds(cpu, t0, t1) for _, cpu, t0, t1 in timed) for timed in passes]
    metrics = end_to_end_metrics([clock.seconds(*cold) for cold in setups], walls,
                                 [t for t, _ in named], rss_kib, py_calls)
    cpu = sum(c for timed in passes for _, c, _, _ in timed) / len(passes)
    note = (f"{len(passes)} timed pass(es) of {cpu:.3f} CPU s; {_slowest(named)}")
    return metrics, note


def _cold_start(doc: dict, rec: dict) -> tuple[float, float, float]:
    return doc["ready_cpu_s"], rec["start"], rec["ready"]


def end_to_end_metrics(setups, walls, times, rss_kib, py_calls) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "verdict_p50_s": (stats.hd_median(times), "s"),
        "peak_rss_mib": (max(rss_kib) / 1024, "MiB"),
        "py_calls": (py_calls, "calls"),
    }


def batch_end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    passes, setups, rss = [], [], []
    measured, checked, profiled = {}, {}, {}

    def count_calls():
        prefix = os.path.join(runner.root, OUT_DIR, f"profile-{workload}-s{seed}")
        doc, _ = runner.worker("profile", workload, str(seed), prefix,
                               hash_seed=PROFILE_HASH_SEED)
        profiled["py_calls"] = doc["py_calls"]
        _tally(checked, ((name, status) for name, *_, status in doc["verdicts"]))

    with meter.Meter() as speed, runner.beside(count_calls):
        start = monotonic()
        while not passes or monotonic() - start < seconds:
            doc, rec = runner.worker("timed", workload, str(seed))
            setups.append(_cold_start(doc, rec))
            passes.append([(name, cpu, t0, t1) for name, t0, t1, cpu, _ in doc["verdicts"]])
            rss.append(doc["maxrss_kib"])
            _tally(measured, ((name, status) for name, *_, status in doc["verdicts"]))
        while len(setups) < SETUP_SAMPLES:
            doc, rec = runner.worker("setup", workload)
            setups.append(_cold_start(doc, rec))
            rss.append(doc["maxrss_kib"])
    metrics, note = timed_metrics(speed.clock, setups, passes, rss, profiled["py_calls"])
    return _result(measured, checked, metrics, note)


def batch_traced(runner: Runner, workload: str, seed: int) -> dict:
    prefix = os.path.join(runner.root, OUT_DIR, f"trace-{workload}-s{seed}")
    doc, _ = runner.worker("trace", workload, str(seed), prefix,
                           hash_seed=PROFILE_HASH_SEED)
    measured = {}
    _tally(measured, ((name, status) for name, *_, status in doc["verdicts"]))
    metrics = layer_metrics(doc["trace"], cli_import_s(runner))
    return _result(measured, {}, metrics, f"traced wall_s {doc['wall_s']:.4f}")


# ---------------------------------------------------------------------------
# cli_cold


def _cli_doc(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _judge_command(cmd, code: int, stdout: str) -> str:
    try:
        ok = code == cmd.exit_code and bool(cmd.check(_cli_doc(stdout)))
    except (ValueError, KeyError, TypeError, IndexError):
        ok = False
    if not ok:
        sys.stderr.write(f"wrong verdict: {cmd.name} exit {code}: {stdout[:300]}\n")
    return "ok" if ok else "wrong"


def cli_end_to_end(runner: Runner, seed: int, seconds: float) -> dict:
    import workloads

    commands = workloads.cli_commands(seed)
    write_exp_cloud(runner.tmp)
    passes, setups, rss = [], [], []
    measured, checked, profiled = {}, {}, {}

    def count_calls():
        # the profiled commands get a directory of their own, since
        # signature writes the cloud that compare reads
        cwd = os.path.join(runner.tmp, "profile")
        os.mkdir(cwd)
        write_exp_cloud(cwd)
        # every command process imports jetweyl.cli the same way, so the
        # calls of one profiled import stand for the import of each command
        doc, _ = runner.worker("import-profile", hash_seed=PROFILE_HASH_SEED)
        calls = doc["py_calls"] * len(commands)
        for cmd in commands:
            doc, _ = runner.worker("cli-profile", json.dumps(cmd.argv),
                                   hash_seed=PROFILE_HASH_SEED, cwd=cwd)
            calls += doc["py_calls"]
            _tally(checked, [(cmd.name, _judge_command(cmd, doc["exit"], doc["stdout"]))])
        profiled["py_calls"] = calls

    with meter.Meter() as speed, runner.beside(count_calls):
        start = monotonic()
        while not passes or monotonic() - start < seconds:
            timed = []
            for cmd in commands:
                rec = runner.process([sys.executable, "-m", "jetweyl.cli", *cmd.argv],
                                     runner.tmp)
                _tally(measured, [(cmd.name, _judge_command(cmd, rec["exit"], rec["stdout"]))])
                timed.append((cmd.name, rec["cpu_s"], rec["start"], rec["end"]))
                rss.append(rec["maxrss_kib"])
            passes.append(timed)
        while len(setups) < SETUP_SAMPLES:
            setups.append(_cold_start(*runner.worker("setup", "cli_cold")))
    metrics, note = timed_metrics(speed.clock, setups, passes, rss, profiled["py_calls"])
    return _result(measured, checked, metrics, note)


def write_exp_cloud(directory: str) -> None:
    import oracles

    with open(os.path.join(directory, oracles.EXP_CLOUD_FILE), "w") as fh:
        json.dump(oracles.EXP_FAMILY_CLOUD, fh)


def cli_traced(runner: Runner, seed: int) -> dict:
    import workloads

    write_exp_cloud(runner.tmp)
    merged = {"spans": {}, "normalize_changed": 0, "principal_entries": 0,
              "coeff_distinct": 0}
    measured = {}
    wall = 0.0
    for n, cmd in enumerate(workloads.cli_commands(seed)):
        prefix = os.path.join(runner.root, OUT_DIR, f"trace-cli_cold-s{seed}-{n}")
        doc, rec = runner.worker("cli-trace", json.dumps(cmd.argv), prefix,
                                 hash_seed=PROFILE_HASH_SEED, cwd=runner.tmp)
        wall += rec["total_s"]
        _tally(measured, [(cmd.name, _judge_command(cmd, doc["exit"], doc["stdout"]))])
        trace = doc["trace"]
        for name, (calls, self_s) in trace["spans"].items():
            acc = merged["spans"].setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for key in ("normalize_changed", "principal_entries", "coeff_distinct"):
            merged[key] += trace[key]
    metrics = layer_metrics(merged, cli_import_s(runner))
    return _result(measured, {}, metrics, f"traced wall_s {wall:.4f}")


# ---------------------------------------------------------------------------
# per-layer metrics


def cli_import_s(runner: Runner) -> float:
    """Median time from a fresh interpreter to ``jetweyl.cli`` imported."""
    samples = [runner.worker("setup", "cli_cold")[1]["ready_s"] for _ in range(IMPORT_SAMPLES)]
    return statistics.median(samples)


def layer_metrics(trace: dict, import_s: float) -> dict:
    import tracing

    spans = trace["spans"]
    out = {}
    for layer in tracing.LAYERS:
        own = [v for name, v in spans.items() if name.split(".")[0] == layer]
        out[f"{layer}.calls"] = (sum(v[0] for v in own), "count")
        out[f"{layer}.self_s"] = (sum(v[1] for v in own), "s")
    for metric, (span, fields) in NAMED_SPANS.items():
        calls, self_s = spans.get(span, (0, 0.0))
        for field in fields:
            out[f"{metric}.{field}"] = (calls, "count") if field == "calls" else (self_s, "s")
    normalize_calls = spans.get(NAMED_SPANS["exprcore.normalize"][0], (0, 0.0))[0]
    coeff_calls = spans.get(NAMED_SPANS["fields.coeff"][0], (0, 0.0))[0]
    out["exprcore.normalize.changed_ratio"] = (
        trace["normalize_changed"] / normalize_calls if normalize_calls else 0.0, "ratio")
    out["fields.coeff.distinct_ratio"] = (
        trace["coeff_distinct"] / coeff_calls if coeff_calls else 0.0, "ratio")
    out["jets.principal_table.entries"] = (trace["principal_entries"], "count")
    out["dsl.parse.calls"] = (sum(spans.get(s, (0, 0.0))[0] for s in DSL_PARSE_SPANS), "count")
    out["cli.import_s"] = (import_s, "s")
    return out


# ---------------------------------------------------------------------------


def _slowest(named: list) -> str:
    top = sorted(named, reverse=True)[:SLOWEST_SHOWN]
    return "slowest verdicts: " + ", ".join(f"{n} {s:.3f}s" for s, n in top)


def _result(measured: dict, checked: dict, metrics: dict, note: str) -> dict:
    wrong = measured.get("wrong", 0) + checked.get("wrong", 0)
    names = measured.get("wrong_names", []) + checked.get("wrong_names", [])
    return {
        "note": note + (f"; wrong: {', '.join(names)}" if names else ""),
        "correct": wrong == 0,
        "attempted": sum(measured.get(k, 0) for k in ("ok", "failed", "wrong")),
        "failed": measured.get("failed", 0),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jetweyl", "__init__.py")):
        sys.stderr.write("run from the root of a jetweyl checkout: src/jetweyl is missing\n")
        return 2
    # bytecode written before the first sample, so every process imports
    # the same way
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=os.path.join(root, OUT_DIR))
    try:
        cpus = sorted(os.sched_getaffinity(0))
        runner = Runner(root, tmp, cpus[1] if len(cpus) > 1 else None)
        if not args.trace:
            # the timed processes and the meter inherit this core
            os.sched_setaffinity(0, {cpus[0]})
        if args.workload == "cli_cold":
            result = (cli_traced(runner, args.seed) if args.trace
                      else cli_end_to_end(runner, args.seed, args.seconds))
        elif args.trace:
            result = batch_traced(runner, args.workload, args.seed)
        else:
            result = batch_end_to_end(runner, args.workload, args.seed, args.seconds)
    except (BenchError, meter.MeterError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"# {args.workload} seed {args.seed}: {result.pop('note')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
