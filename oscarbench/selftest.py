#!/usr/bin/env python3
"""Self-test of the oscar benchmark at a tiny size.

    python3 oscarbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced with --tiny
and checks that each run stamps what it ran, prints every metric
BENCHMARK.json names with that metric's unit, reports no failed output
check (fail_ratio 0), and ends with a well-formed result line. Exits 1
on the first problem found.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STAMP_KEYS = {"seed", "commit", "compiler", "build_type", "nproc", "jobs"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "42", "--seconds", "0", "--trace",
           str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise AssertionError("%s exited with %d" % (" ".join(cmd),
                                                     proc.returncode))
    return proc.stdout.rstrip("\n").split("\n")


def check(workload, trace, expected, lines):
    where = "%s --trace %d" % (workload, trace)
    stamp = json.loads(lines[0].split("stamp: ", 1)[1])
    missing = STAMP_KEYS - set(stamp)
    assert not missing, "%s: stamp lacks %s" % (where, sorted(missing))
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] >= 1, where
    assert result["failed"] == 0 and result["correct"], \
        "%s: failed output checks:\n%s" % (where, "\n".join(lines))
    for name, unit in expected.items():
        metric = result["metrics"].get(name)
        assert metric is not None, "%s: %s not printed" % (where, name)
        assert metric["unit"] == unit, "%s: %s in %s, not %s" % (
            where, name, metric["unit"], unit)
        assert isinstance(metric["value"], (int, float)), where
    if trace == 0:
        ratio = [l for l in lines if l.split()[:1] == ["fail_ratio"]]
        assert ratio and float(ratio[0].split()[1]) == 0.0, \
            "%s: fail_ratio is not 0" % where
    print("ok: %s (%d metrics, %d checks)" % (
        where, len(expected), result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            for trace in (0, 1):
                check(workload, trace, units[trace], run(workload, trace))
    except AssertionError as e:
        print("FAIL: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
