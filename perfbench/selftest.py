"""Self-tests of the benchmark harness, run from the repository root:

    python3 perfbench/selftest.py [--limit N]

1. Tracing rebinds every wrapped name, including the copies that ``ucd``
   and ``cli`` imported with ``from .poly import ...``, and uninstalling
   restores each original binding.
2. For each workload, two traced worker processes on the same seed make
   identical calls.  Inside each process the two traced passes make
   identical calls, so no pass can hit a cache warmed by an earlier one,
   and traced and untraced passes give identical answers.
3. Every known answer can fail: a perturbed answer does not pass its check.

Exits non-zero on the first failure.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def check_rebinding():
    import dfields.cli
    import dfields.poly
    import dfields.ucd

    before = {
        "ucd.decide_irreducibility": dfields.ucd.decide_irreducibility,
        "cli.check_instance": dfields.cli.check_instance,
        "poly.normal_form": dfields.poly.normal_form,
        "Ideal.contains": dfields.poly.Ideal.__dict__["contains"],
    }
    tracer = spans.Tracer().install()
    try:
        assert dfields.ucd.decide_irreducibility is not before["ucd.decide_irreducibility"]
        assert dfields.ucd.decide_irreducibility is dfields.poly.decide_irreducibility
        assert dfields.cli.check_instance is dfields.ucd.check_instance
        assert dfields.poly.Ideal.__dict__["contains"] is not before["Ideal.contains"]
    finally:
        tracer.uninstall()
    after = {
        "ucd.decide_irreducibility": dfields.ucd.decide_irreducibility,
        "cli.check_instance": dfields.cli.check_instance,
        "poly.normal_form": dfields.poly.normal_form,
        "Ideal.contains": dfields.poly.Ideal.__dict__["contains"],
    }
    assert all(after[k] is before[k] for k in before), "uninstall left a wrapper bound"
    print("rebinding: ok")


def traced_counts(name, seed, limit):
    _, res = run.run_child(
        ["passes", "--workload", name, "--seed", seed, "--trace", 1, "--limit", limit],
        run.WORKER_TIMEOUT_S,
    )
    assert res["failed"] == 0, res["failures"]
    assert res["counts_repeat"], f"{name}: the two traced passes made different calls"
    assert res["answers_match"], f"{name}: traced and untraced answers differ"
    return res["counts"]


def check_repeatable_counts(limit):
    for name in workloads.WORKLOADS:
        first = traced_counts(name, 5, limit)
        second = traced_counts(name, 5, limit)
        differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        assert not differ, f"{name}: calls differ between processes: {differ}"
        print(f"{name}: {sum(first.values())} calls repeat exactly across passes and processes")


def perturbed(item, answer):
    """A wrong answer of the same shape."""
    if item.kind == "ucd":
        return (answer[0], "verified" if answer[1] == "refuted" else "refuted")
    if item.kind == "algebra":
        return answer[:3] + ([(d + 1, r) for d, r in answer[3]],)
    if item.kind == "dvariety":
        return ("points", [(1, 2, 3)])
    comps, rule = answer
    return ([f"{comps[0]} + 1"] + comps[1:], rule)


def check_answers_can_fail():
    for name, workload in workloads.WORKLOADS.items():
        for item in workload.build(7)[:40]:
            expected = item.expected() if callable(item.expected) else item.expected
            if item.kind == "operator":
                answer = ([oracle.to_text(c, workloads.XY) for c in expected], True)
            elif item.kind == "ucd":
                answer = ({"verified": 0, "refuted": 2}[expected], expected)
            elif item.kind == "algebra":
                answer = (0, True, 0, expected)
            else:
                answer = expected
            assert workload.check(item, answer), f"{item.id}: the right answer fails"
            assert not workload.check(item, perturbed(item, answer)), f"{item.id}: a wrong answer passes"
        print(f"{name}: right answers pass and perturbed ones fail")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=int, default=12, help="items per pass in step 2")
    args = parser.parse_args(argv)
    check_rebinding()
    check_answers_can_fail()
    check_repeatable_counts(args.limit)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, run.BenchError) as exc:
        print(f"selftest failed: {exc}", file=sys.stderr)
        sys.exit(1)
    except subprocess.TimeoutExpired as exc:
        print(f"selftest timed out: {exc}", file=sys.stderr)
        sys.exit(1)
