"""The dfields benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the three workloads one after another and names
each metric ``<workload>.<metric>`` in the JSON line.

Every measurement runs in a fresh single-threaded child process
(perfbench/worker.py), so no cache of the package outlives a run:

* ``setup_s`` is the median wall time of three fresh interpreters that
  import dfields, generate the seeded inputs and parse them;
* the workload process times passes over the items and reports
  ``wall_s`` (one pass, each item at its fastest of at least two passes),
  ``item_s_p50``, ``item_s_p90`` (each item at its median over the passes),
  ``ok_share`` and ``peak_rss_mb``;
* each ladder rung runs in its own child, killed at the rung's cap;
  ``reach`` is the last rung that finished before the first one that
  timed out.

``setup_s``, ``wall_s``, the item times and the rung caps are in reference
seconds: each measured time is scaled by the machine's speed next to it,
from a calibration loop run between items or, while a set-up probe or a
rung runs, on the other core (clock.py), because the shared hosts the
benchmark runs on change speed by half or more within a minute.
The measured seconds are printed beside them.

With ``--trace 1`` the workload process instead runs a traced, an untraced
and a traced pass; the per-layer metrics come from the first traced pass,
the two traced passes must make the same calls, all three must give the
same answers, and ``trace.overhead_s`` is the second traced pass's wall
time minus the untraced one's.

Standard output ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every answer
matched its known result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import clock  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 150
POLL_S = 0.01  # calibration interval while a child runs


class BenchError(Exception):
    """A child failed in a way that leaves no result to report."""


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence call counts, repeat exactly
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, timeout):
    """Run the worker with ``args``; returns (wall seconds, parsed last line)."""
    cmd = [sys.executable, WORKER] + [str(a) for a in args]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return wall, (json.loads(lines[-1]) if lines else None)


def run_calibrated(cmd, cap_s=None):
    """Run ``cmd`` and time it in reference seconds.  While it runs on one
    core, this process runs the calibration loop on the other every
    ``POLL_S``; slowdowns of the shared host hit both cores alike.  Kills
    the child once it has run ``cap_s`` reference seconds.  Returns (exit
    code, or None when killed at the cap; reference seconds; measured
    seconds; standard error)."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    start = last = time.perf_counter()
    ref_s = 0.0
    killed = False
    while True:
        loop_s = clock.loop_seconds()
        try:
            proc.wait(timeout=POLL_S)
            done = True
        except subprocess.TimeoutExpired:
            done = False
        now = time.perf_counter()
        ref_s += (now - last) * clock.REF_S / loop_s
        last = now
        if done:
            break
        if (cap_s is not None and ref_s >= cap_s) or now - start >= WORKER_TIMEOUT_S:
            proc.kill()
            killed = True
            break
    _, err = proc.communicate()
    if killed and cap_s is None:
        raise BenchError(f"{' '.join(cmd[1:])} ran past {WORKER_TIMEOUT_S} s")
    return (None if killed else proc.returncode), ref_s, now - start, err.decode()


def run_rung(workload, n):
    """One ladder rung in its own process, killed at the cap.  Returns
    ("ok" | "timeout" | "wrong", reference seconds, measured seconds)."""
    cmd = [sys.executable, WORKER, "rung", "--workload", workload.name, "--rung", str(n)]
    code, ref_s, wall, err = run_calibrated(cmd, workload.rung_cap_s)
    if code is None:
        return "timeout", ref_s, wall
    if code == 3:
        return "wrong", ref_s, wall
    if code != 0:
        raise BenchError(f"rung {n} exited {code}:\n{err[-2000:]}")
    return "ok", ref_s, wall


def measure(name, args):
    workload = workloads.WORKLOADS[name]
    common = ["--workload", workload.name, "--seed", args.seed]
    metrics, notes = {}, []

    if not args.trace:
        setups, measured = [], []
        cmd = [sys.executable, WORKER, "setup"] + [str(a) for a in common]
        for _ in range(SETUP_PROBES):
            code, ref_s, wall, err = run_calibrated(cmd)
            if code != 0:
                raise BenchError(f"set-up exited {code}:\n{err[-2000:]}")
            setups.append(ref_s)
            measured.append(wall)
        notes.append(f"setup measured {statistics.median(measured):.4f} s, median of {SETUP_PROBES}")
    _, res = run_child(
        ["passes"] + common + ["--seconds", args.seconds, "--trace", args.trace],
        WORKER_TIMEOUT_S,
    )
    attempted, failed = res["attempted"], res["failed"]
    notes.append(f"{res['items']} items per pass, {res['passes']} passes")
    if not args.trace:
        walls = ", ".join(f"{w:.3f}" for w in res["pass_wall_s"])
        notes.append(f"passes measured {walls} s, calibration included")
    notes += [f"FAILED {item}: {why}" for item, why in res["failures"]]

    if args.trace:
        for name, (value, unit) in res["layer"].items():
            metrics[name] = (value, unit)
        for module, name in (("dfields", "setup.import_dfields_s"), ("sympy", "setup.import_sympy_s")):
            runs = [
                run_child(["import", "--module", module], WORKER_TIMEOUT_S)[1]["seconds"]
                for _ in range(IMPORT_PROBES)
            ]
            metrics[name] = (statistics.median(runs), "s")
        metrics["trace.overhead_s"] = (res["traced_wall_s"] - res["wall_s"], "s")
        notes.append(
            f"untraced pass {res['wall_s']:.3f} s, traced pass {res['traced_wall_s']:.3f} s"
            " (reference seconds)"
        )
        notes.append(f"{res['span_count']} spans written to {res['spans_file']}")
        if not res["counts_repeat"]:
            notes.append("FAILED: the two traced passes made different calls")
            failed += 1
        if not res["answers_match"]:
            notes.append("FAILED: traced and untraced passes gave different answers")
            failed += 1
        return metrics, notes, attempted, failed

    reach = None
    for n in workload.ladder:
        status, ref_s, wall = run_rung(workload, n)
        notes.append(
            f"ladder rung {n}: {status} in {ref_s:.2f} reference s, {wall:.2f} s measured"
            f" (cap {workload.rung_cap_s} reference s)"
        )
        if status == "timeout":
            break
        attempted += 1
        if status == "wrong":
            notes.append(f"FAILED ladder rung {n}: wrong answer")
            failed += 1
            break
        reach = n
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["wall_s"] = (res["wall_s"], "s")
    metrics["item_s_p50"] = (res["item_s_p50"], "s")
    metrics["item_s_p90"] = (res["item_s_p90"], "s")
    metrics["reach"] = (reach if reach is not None else 0, "rung")
    metrics["ok_share"] = (1 - failed / attempted, "share")
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    notes.append(f"failed_share {failed / attempted:.6f} ({failed} of {attempted})")
    return metrics, notes, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dfields", "__init__.py")):
        print(f"no dfields sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    reported = {}
    for name in names:
        try:
            metrics, notes, tried, wrong = measure(name, args)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 2
        attempted += tried
        failed += wrong
        for note in notes:
            print(f"{name}: {note}")
        for metric, (value, unit) in metrics.items():
            print(f"{name} {metric} = {value} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            reported[key] = {"value": value, "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
