#!/usr/bin/env python3
"""Summarizes a span file written by a traced benchmark run.

    python3 perfbench/spans.py .bench_out/spans-<workload>-<seed>.json

Prints, per span name: how many calls, their total time, and their self
time (duration minus the part covered by child spans), largest self time
first.
"""

import collections
import json
import sys


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip())
    with open(sys.argv[1]) as f:
        events = json.load(f)["traceEvents"]
    child_us = collections.defaultdict(float)
    for e in events:
        if e["args"]["parent"] >= 0:
            child_us[e["args"]["parent"]] += e["dur"]
    calls = collections.Counter()
    total_us = collections.defaultdict(float)
    self_us = collections.defaultdict(float)
    for e in events:
        calls[e["name"]] += 1
        total_us[e["name"]] += e["dur"]
        self_us[e["name"]] += e["dur"] - child_us[e["args"]["id"]]
    print("%-32s %8s %12s %12s" % ("span", "calls", "total_ms", "self_ms"))
    for name in sorted(self_us, key=lambda n: -self_us[n]):
        print("%-32s %8d %12.3f %12.3f" % (name, calls[name], total_us[name] / 1e3,
                                            self_us[name] / 1e3))


if __name__ == "__main__":
    main()
