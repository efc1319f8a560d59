"""One worker process: set up, run one pass of a batch, check it, report.

Usage (started by ``run.py`` in a fresh interpreter, with ``src`` of the
checkout first on ``PYTHONPATH``):

    worker.py setup WORKLOAD           set up as a pass of WORKLOAD would
    worker.py timed|profile|trace WORKLOAD SEED [TRACE_PREFIX]
    worker.py cli-profile|cli-trace ARGV_JSON [TRACE_PREFIX]
    worker.py import-profile           count the calls of importing jetweyl.cli

The worker prints ``READY`` once set-up is done, then one JSON document.
``timed`` records each verdict's start and end (``time.monotonic()``) and
its CPU seconds, which ``run.py`` turns into reference seconds with the
speed meter (``meter.py``); ``profile`` counts Python calls with
``cProfile`` and discards the timings; ``trace`` installs span wrappers.
Profiles are taken without caller/callee statistics: nothing reads them,
and leaving them out makes a profiled pass about a tenth shorter.
The ``cli-*`` modes import ``jetweyl.cli``, print ``READY`` and run one
command of the CLI in-process.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import traceback
from time import monotonic, process_time


# CPU seconds the process had spent when it printed READY
_ready_cpu_s = None


def _ready() -> None:
    global _ready_cpu_s
    _ready_cpu_s = process_time()
    sys.stdout.write("READY\n")
    sys.stdout.flush()


def _check_source() -> None:
    """Refuse to measure anything but the checkout's own ``src``."""
    import jetweyl

    src = os.path.abspath(os.environ["PYTHONPATH"].split(os.pathsep)[0])
    if not os.path.abspath(jetweyl.__file__).startswith(src + os.sep):
        raise SystemExit(f"jetweyl imported from {jetweyl.__file__}, not from {src}")


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def setup(workload: str) -> None:
    import workloads

    for name in workloads.SETUP_MODULES[workload]:
        importlib.import_module(name)
    _check_source()
    from jetweyl.jets import ms_system

    ms_system()


def run_batch(mode: str, workload: str, seed: int, trace_prefix: str | None) -> dict:
    import workloads

    setup(workload)
    _ready()
    verdicts = workloads.BATCHES[workload](seed)
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    prof = None
    if mode == "profile":
        import cProfile

        prof = cProfile.Profile(subcalls=False)
        prof.enable()
    outcomes = []
    for v in verdicts:
        t0, c0 = monotonic(), process_time()
        try:
            result, error = v.run(), None
        except Exception as exc:  # an error is an outcome the check judges
            result, error = None, exc
        outcomes.append((v, result, error, t0, monotonic(), process_time() - c0))
    if prof is not None:
        prof.disable()
    doc = {"maxrss_kib": _maxrss_kib(), "ready_cpu_s": _ready_cpu_s,
           "wall_s": sum(o[4] - o[3] for o in outcomes)}
    if prof is not None:
        import pstats

        doc["py_calls"] = pstats.Stats(prof).total_calls
        if trace_prefix:
            prof.dump_stats(trace_prefix + ".pstats")
    if tracer is not None:
        doc["trace"] = tracer.summary()
        if trace_prefix:
            tracer.write(trace_prefix)
    doc["verdicts"] = [
        [v.name, start, end, cpu, _judge(v.check, v.known_fault, result, error)]
        for v, result, error, start, end, cpu in outcomes
    ]
    return doc


def _judge(check, known_fault: str, result, error) -> str:
    """ok, failed (a known program fault showed) or wrong."""
    try:
        ok = bool(check(result, error))
    except Exception:
        traceback.print_exc()
        ok = False
    if ok:
        return "ok"
    if known_fault:
        return "failed"
    detail = f"{type(error).__name__}: {error}" if error is not None else repr(result)[:300]
    sys.stderr.write(f"wrong verdict: {detail}\n")
    return "wrong"


def run_cli(mode: str, argv: list[str], trace_prefix: str | None) -> dict:
    """One CLI command in-process, after a cold import of ``jetweyl.cli``:
    ``cli-profile`` counts the calls of the command, ``cli-trace`` spans
    it."""
    import jetweyl.cli

    _check_source()
    _ready()
    prof = tracer = None
    if mode == "cli-trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if mode == "cli-profile":
            import cProfile

            prof = cProfile.Profile(subcalls=False)
            prof.enable()
        code = jetweyl.cli.main(argv)
        if prof is not None:
            prof.disable()
    doc = {"exit": code, "stdout": out.getvalue()}
    if prof is not None:
        import pstats

        doc["py_calls"] = pstats.Stats(prof).total_calls
    if tracer is not None:
        doc["trace"] = tracer.summary()
        if trace_prefix:
            tracer.write(trace_prefix)
    return doc


def profile_import() -> dict:
    """Calls made by a cold ``import jetweyl.cli``."""
    import cProfile
    import pstats

    prof = cProfile.Profile(subcalls=False)
    prof.enable()
    import jetweyl.cli  # noqa: F401

    prof.disable()
    _check_source()
    _ready()
    return {"py_calls": pstats.Stats(prof).total_calls}


def main() -> None:
    mode = sys.argv[1]
    if mode == "setup":
        if sys.argv[2] == "cli_cold":
            import jetweyl.cli  # noqa: F401

            _check_source()
        else:
            setup(sys.argv[2])
        _ready()
        doc = {"maxrss_kib": _maxrss_kib(), "ready_cpu_s": _ready_cpu_s}
    elif mode == "import-profile":
        doc = profile_import()
    elif mode in ("cli-profile", "cli-trace"):
        prefix = sys.argv[3] if len(sys.argv) > 3 else None
        doc = run_cli(mode, json.loads(sys.argv[2]), prefix)
    else:
        prefix = sys.argv[4] if len(sys.argv) > 4 else None
        doc = run_batch(mode, sys.argv[2], int(sys.argv[3]), prefix)
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
