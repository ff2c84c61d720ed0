"""One benchmark iteration in a fresh interpreter.

Run as ``python3 bench/child.py JOB_JSON SPAWN_TIME``, where SPAWN_TIME is
the parent's ``time.monotonic()`` just before the spawn.  The child
imports ``codebounds.cli`` from the checkout's ``src``, which ends set-up,
then calls ``codebounds.cli.main(argv)`` for each command of the job, each
in its own directory, and writes its measurements as JSON to the job's
``result`` path.  A job without commands only measures set-up.
"""
import os
import sys
import time


def _cache_entries(search):
    """Entries in the lru caches a reused process would hit."""
    out = {}
    for name in ("classify", "_codes_by_deletion", "all_words"):
        info = getattr(getattr(search, name, None), "cache_info", None)
        if info is not None:
            out[name] = info().currsize
    return out


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    job_path, spawned = sys.argv[1], float(sys.argv[2])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import codebounds.cli

    ready = time.monotonic()

    import contextlib
    import io
    import json
    import resource
    import traceback
    from pathlib import Path

    import numpy

    job = json.loads(Path(job_path).read_text())
    result = {"setup_s": ready - spawned}
    if not os.path.abspath(codebounds.__file__).startswith(src + os.sep):
        print(f"codebounds imported from {codebounds.__file__}, not {src}", file=sys.stderr)
        return 2
    if job.get("commands") is None:
        Path(job["result"]).write_text(json.dumps(result))
        return 0
    result["numpy"] = numpy.__version__
    cached = _cache_entries(sys.modules["codebounds.search"])
    if any(cached.values()):
        print(f"lru caches not empty at start: {cached}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    workdir = Path(job["workdir"])
    records = []
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    for i, argv in enumerate(job["commands"]):
        cwd = workdir / f"c{i:02d}"
        cwd.mkdir()
        os.chdir(cwd)
        out = io.StringIO()
        error = None
        start = time.monotonic()
        try:
            with contextlib.redirect_stdout(out):
                code = codebounds.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            error = traceback.format_exc()
        end = time.monotonic()
        records.append(
            {"argv": argv, "exit_code": code, "stdout": out.getvalue(),
             "error": error, "start": start, "end": end}
        )
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    os.chdir(workdir)

    result.update(
        commands=records,
        wall_s=records[-1]["end"] - records[0]["start"],
        peak_rss_kb=max(self1.ru_maxrss, children1.ru_maxrss),
        cpu_s=_cpu(self1) - _cpu(self0),
        children_cpu_s=_cpu(children1) - _cpu(children0),
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
