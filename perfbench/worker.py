"""One workload in a fresh process; started by run.py.

    python3 perfbench/worker.py MODE --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1] [--rung N] [--limit N] [--module M]

Modes:
  setup    import dfields, build the seeded items and parse their inputs
  passes   set up, then time passes over the items until --seconds have
           gone by (at least two); with --trace 1, a traced, an untraced and
           a traced pass instead
  rung     run one ladder rung; exit 0 when its answer is right, 3 when not
  import   time ``import --module`` in this fresh interpreter

Times are in reference seconds (see clock.py).  The last line of standard
output is one JSON object.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import clock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2


def load_api():
    import dfields  # noqa: F401
    from dfields import cli, dring, dvariety, poly

    return SimpleNamespace(cli=cli, poly=poly, dring=dring, dvariety=dvariety)


def set_up(args):
    api = load_api()
    workload = workloads.WORKLOADS[args.workload]
    items = workload.build(args.seed)
    if args.limit:
        items = items[: args.limit]
    workloads.parse_inputs(items, api)
    return api, workload, items


def timed_pass(workload, items, api, tracer=None):
    """Run every item once, starting from an empty sympy cache, with the
    calibration loop run before and after each.  Returns the time to build
    the per-pass context and the per-item times, both in reference seconds,
    the pass's measured wall time (calibration included) and the outputs."""
    sympy_cache = sys.modules.get("sympy.core.cache")
    if sympy_cache is not None:
        sympy_cache.clear_cache()
    start = time.perf_counter()
    loops, measured = [clock.loop_seconds()], []
    t0 = time.perf_counter()
    context = workload.context(api)
    measured.append(time.perf_counter() - t0)
    loops.append(clock.loop_seconds())
    outputs = []
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        t0 = time.perf_counter()
        try:
            out, error = workload.run(item, api, context), None
        except Exception as exc:  # a failing item is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        measured.append(time.perf_counter() - t0)
        loops.append(clock.loop_seconds())
        outputs.append((out, error))
    wall = time.perf_counter() - start
    context_s, *times = clock.to_reference(measured, loops)
    return context_s, times, wall, outputs


def judge(workload, items, outputs, api):
    """Answers as plain data, and the (item id, reason) of every failure."""
    answers, failures = [], []
    for item, (out, error) in zip(items, outputs):
        if error is not None:
            answers.append(("error", error))
            failures.append((item.id, error))
            continue
        answer = workload.answer(item, out, api)
        answers.append(answer)
        if not workload.check(item, answer):
            failures.append((item.id, f"wrong answer {answer!r}"))
    return answers, failures


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def traced_pass(workload, items, api):
    tracer = spans.Tracer().install()
    try:
        context_s, times, _, outputs = timed_pass(workload, items, api, tracer)
    finally:
        tracer.uninstall()
    return tracer, context_s + sum(times), outputs


def mode_passes(args):
    api, workload, items = set_up(args)
    # Nothing alive now is ever freed, so keep the collector from walking
    # it: a full collection over sympy's objects costs tens of
    # milliseconds and lands on whichever item happens to trigger it.
    gc.collect()
    gc.freeze()
    result = {"items": len(items)}
    failures = []
    if args.trace:
        # traced, untraced, traced: the untraced pass and the second traced
        # pass both run warm, so their difference is the tracing overhead
        first, _, first_out = traced_pass(workload, items, api)
        context_s, times, _, outputs = timed_pass(workload, items, api)
        wall = context_s + sum(times)
        second, traced_wall, second_out = traced_pass(workload, items, api)
        answers, failures = judge(workload, items, outputs, api)
        first_answers, first_failures = judge(workload, items, first_out, api)
        second_answers, second_failures = judge(workload, items, second_out, api)
        failures += first_failures + second_failures
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        spans_path = os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-{args.seed}.jsonl")
        first.write(spans_path)
        layer = first.metrics()
        result.update(
            passes=3,
            attempted=3 * len(items),
            wall_s=wall,
            traced_wall_s=traced_wall,
            layer={name: layer[name] for name in spans.REPORTED},
            counts=first.counts(),
            counts_repeat=first.counts() == second.counts(),
            answers_match=answers == first_answers == second_answers,
            spans_file=os.path.relpath(spans_path, ROOT),
            span_count=len(first.spans),
        )
    else:
        # wall_s counts each item at its fastest of at least two passes, so
        # that neither the first pass's warm-up nor a burst of load that
        # the calibration loop missed counts.  The percentiles take each
        # item at its median over the passes instead: the fastest of a few
        # noisy samples falls further the noisier the run, which moves the
        # percentiles by more than the total.
        walls, contexts, item_times = [], [], []
        while len(walls) < MIN_PASSES or sum(walls) < args.seconds:
            context_s, times, wall, outputs = timed_pass(workload, items, api)
            failures += judge(workload, items, outputs, api)[1]
            walls.append(wall)
            contexts.append(context_s)
            item_times.append(times)
        best = [min(ts) for ts in zip(*item_times)]
        middle = [statistics.median(ts) for ts in zip(*item_times)]
        result.update(
            passes=len(walls),
            attempted=len(walls) * len(items),
            pass_wall_s=walls,
            wall_s=min(contexts) + sum(best),
            item_s_p50=statistics.median(middle),
            item_s_p90=percentile(middle, 90),
        )
    result["failed"] = len(failures)
    result["failures"] = failures[:10]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def mode_rung(args):
    api = load_api()
    workload = workloads.WORKLOADS[args.workload]
    item = workload.rung(args.rung)
    out = workload.run(item, api, workload.context(api))
    ok = workload.check(item, workload.answer(item, out, api))
    print(json.dumps({"rung": args.rung, "ok": ok}))
    return 0 if ok else 3


def mode_import(args):
    t0 = time.perf_counter()
    __import__(args.module)
    print(json.dumps({"module": args.module, "seconds": time.perf_counter() - t0}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "passes", "rung", "import"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rung", type=int)
    parser.add_argument("--limit", type=int, default=0)
    parser.add_argument("--module")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        set_up(args)
        return 0
    return {"passes": mode_passes, "rung": mode_rung, "import": mode_import}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
