#!/usr/bin/env python3
"""Benchmark of the codebounds command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--trace 0|1] [--seconds S]
    python3 bench/run.py --record

Run from anywhere inside a checkout; the program under test is the
checkout's ``src/codebounds``.  Each iteration of a workload is one fresh
interpreter (``bench/child.py``), a closed-loop client that runs the
workload's commands in order.  Untraced runs repeat iterations while the
next one is expected to end within ``--seconds`` (at least one) and
report the end-to-end metrics; traced runs make one traced iteration and
report the per-layer metrics.  Every command's exit code, stdout and
output files are compared byte for byte with ``bench/reference.json``,
which ``--record`` rewrites from the current program.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
RUNS = ROOT / ".bench_run"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# Extra interpreters per untraced run that only import codebounds.cli:
# single spawns vary by about 20% on a shared machine, so setup_s is the
# median of many.
SETUP_SPAWNS = 20
# A run must end within 180 s; a child gets what is left of this.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def spawn(job: dict, workdir: Path, deadline: float) -> dict:
    """Run one child interpreter on ``job`` and return its result."""
    job_path = workdir / "job.json"
    job = dict(job, workdir=str(workdir), result=str(workdir / "result.json"))
    job_path.write_text(json.dumps(job))
    tmp = workdir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(job_path), repr(start)],
        cwd=workdir, env=env, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # the session holds the child and any Pool workers it forked
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("a benchmark iteration ran out of time") from None
    if code != 0:
        raise BenchError(f"benchmark child exited with status {code}")
    return json.loads((workdir / "result.json").read_text())


def output_files(directory: Path) -> dict[str, str]:
    return {
        p.relative_to(directory).as_posix(): sha256(p.read_bytes())
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def observe(result: dict, workdir: Path) -> list[dict]:
    """What each command did: exit code, stdout digest, first line, files."""
    seen = []
    for i, rec in enumerate(result["commands"]):
        lines = rec["stdout"].splitlines()
        seen.append(
            {
                "argv": rec["argv"],
                "exit_code": rec["exit_code"],
                "stdout_sha256": sha256(rec["stdout"].encode()),
                "first_line": lines[0] if lines else "",
                "files": output_files(workdir / f"c{i:02d}"),
                "error": rec["error"],
            }
        )
    return seen


def problems(seen: dict, ref: dict) -> list[str]:
    """Every way one command's observed behaviour differs from its reference."""
    found = []
    if seen["error"]:
        found.append("raised " + seen["error"].strip().splitlines()[-1])
    if seen["exit_code"] != ref["exit_code"]:
        found.append(f"exit code {seen['exit_code']}, expected {ref['exit_code']}")
    if ref.get("verdict") is not None and (
        seen["first_line"] != ref["verdict"] or not seen["first_line"].endswith(": VERIFIED")
    ):
        found.append(f"verdict {seen['first_line']!r}, expected {ref['verdict']!r}")
    if seen["stdout_sha256"] != ref["stdout_sha256"]:
        found.append("stdout differs")
    for name in sorted(set(seen["files"]) | set(ref["files"])):
        if name not in seen["files"]:
            found.append(f"{name} missing")
        elif name not in ref["files"]:
            found.append(f"{name} unexpected")
        elif seen["files"][name] != ref["files"][name]:
            found.append(f"{name} differs")
    return found


@contextlib.contextmanager
def scratch_dir():
    """A fresh work directory inside the checkout, removed afterwards."""
    RUNS.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=RUNS))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS.rmdir()


def iterate(workload: dict, trace: bool, deadline: float) -> tuple[dict, list[dict]]:
    """One fresh interpreter running every command of the workload."""
    with scratch_dir() as workdir:
        inputs = workdir / "inputs"
        inputs.mkdir()
        for name, source in workload["inputs"].items():
            shutil.copyfile(ROOT / source, inputs / name)
        job = {"commands": workload["commands"], "trace": trace}
        result = spawn(job, workdir, deadline)
        return result, observe(result, workdir)


def measure_setup(deadline: float) -> float:
    with scratch_dir() as workdir:
        return spawn({"commands": None}, workdir, deadline)["setup_s"]


def check(seen: list[dict], reference: list[dict]) -> list[list[str]]:
    if [s["argv"] for s in seen] != [r["argv"] for r in reference]:
        raise BenchError("the workload's commands differ from its reference; re-record")
    return [problems(s, r) for s, r in zip(seen, reference)]


def run(workload: dict, reference: list[dict], seconds: float, trace: bool) -> dict:
    """One benchmark run: every iteration, their checks and the metrics."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    nproc = os.cpu_count() or 1
    setups, rss, iterations, failures = [], [], [], []
    attempted = 0
    if not trace:
        setups = [measure_setup(deadline) for _ in range(SETUP_SPAWNS)]
    first = time.monotonic()
    while True:
        load_before = os.getloadavg()[0]
        t0 = time.monotonic()
        result, seen = iterate(workload, trace, deadline)
        took = time.monotonic() - t0
        load_after = os.getloadavg()[0]
        per_command = check(seen, reference)
        attempted += len(per_command)
        failures += [
            {"argv": s["argv"], "problems": p} for s, p in zip(seen, per_command) if p
        ]
        setups.append(result["setup_s"])
        rss.append(result["peak_rss_kb"] / 1024)
        iterations.append(
            {
                "wall_s": result["wall_s"],
                "load_before": load_before,
                "load_after": load_after,
                "loaded": max(load_before, load_after) > nproc,
            }
        )
        elapsed = time.monotonic() - first
        if trace or elapsed + took > seconds:
            break
    if trace:
        metrics = dict(result["layers"])
        metrics["process.cpu_s"] = result["cpu_s"]
        metrics["process.children_cpu_s"] = result["children_cpu_s"]
    else:
        metrics = {
            "wall_s": statistics.median(it["wall_s"] for it in iterations),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(rss),
        }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "iterations": iterations,
        "setup_samples": len(setups),
        "numpy": result["numpy"],
        "run_s": time.monotonic() - started,
    }


def load_reference(name: str) -> list[dict]:
    try:
        return json.loads(REFERENCE.read_text())["workloads"][name]
    except (OSError, KeyError) as exc:
        raise BenchError(f"no reference for workload {name!r}: {exc}") from None


def unit(name: str) -> str:
    return UNITS[name]


def report(name: str, seed: int, trace: bool, out: dict, env: dict) -> None:
    """Human-readable lines; the caller prints the JSON result after them."""
    walls = [it["wall_s"] for it in out["iterations"]]
    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{len(walls)} iteration(s), run {out['run_s']:.1f} s")
    for key, value in out["metrics"].items():
        print(f"  {key:32s} {value:14.6f} {unit(key)}")
    if not trace:
        print(f"  (wall_s median of {len(walls)}, min {min(walls):.3f}, "
              f"max {max(walls):.3f}; setup_s median of {out['setup_samples']})")
    else:
        print(f"  (traced wall_s {walls[0]:.3f} s)")
    failed = len(out["failures"])
    print(f"  {'failed_ops':32s} {failed / out['attempted']:14.6f} share "
          f"({failed} of {out['attempted']} commands)")
    for f in out["failures"]:
        print(f"  FAILED {' '.join(f['argv'])}: {'; '.join(f['problems'])}")
    loads = [(it["load_before"], it["load_after"]) for it in out["iterations"]]
    record = dict(env, numpy=out["numpy"], seed=seed, load_1min=loads,
                  loaded=any(it["loaded"] for it in out["iterations"]))
    if record["loaded"]:
        print(f"  WARNING: 1-minute load exceeded nproc={env['nproc']} during the run")
    print("env " + json.dumps(record, sort_keys=True))


def result_line(out: dict) -> str:
    failed = len(out["failures"])
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": out["attempted"],
            "failed": failed,
            "metrics": {
                k: {"value": v, "unit": unit(k)} for k, v in out["metrics"].items()
            },
        }
    )


def as_reference(seen: list[dict]) -> list[dict]:
    """The reference entries that observed commands would be checked against."""
    return [
        {
            "argv": s["argv"],
            "exit_code": s["exit_code"],
            "verdict": s["first_line"] if s["argv"][0] == "verify" else None,
            "stdout_sha256": s["stdout_sha256"],
            "files": s["files"],
        }
        for s in seen
    ]


def record() -> None:
    """Rewrite the reference outputs from one run of each workload."""
    refs = {}
    for name, workload in WORKLOADS.items():
        _, seen = iterate(workload, False, time.monotonic() + RUN_LIMIT_S)
        refs[name] = as_reference(seen)
        for s in seen:
            print(f"{name}: {' '.join(s['argv'])} -> {s['exit_code']} "
                  f"{s['first_line']!r} {len(s['files'])} file(s)")
    env = environment()
    payload = {"recorded_from": {"git_rev": env["git_rev"], "src_sha256": env["src_sha256"]},
               "workloads": refs}
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/reference.json from the current program")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the paper instances have no random input")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "codebounds" / "cli.py").is_file():
        print(f"error: no codebounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        if args.record:
            record()
            return 0
        if args.all:
            names = list(WORKLOADS)
        elif args.workload:
            names = [args.workload]
        else:
            parser.error("give --workload NAME, --all or --record")
        env = environment()
        ok = True
        for name in names:
            out = run(WORKLOADS[name], load_reference(name), args.seconds, trace)
            report(name, args.seed, trace, out, env)
            ok = ok and not out["failures"]
            line = result_line(out)
            if args.all:
                print(f"result {name} {line}")
        if not args.all:
            print(line)
        return 0 if ok or not args.all else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
