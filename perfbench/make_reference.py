#!/usr/bin/env python3
"""Write perfbench/reference.json: each workload's outputs on its fixed
reference input, which every set-up of run.py checks against.

    python3 perfbench/make_reference.py

Run it only when a change to the program is meant to change what it
computes; the diff of reference.json then shows by how much.
"""

import json
import sys

import run


def main() -> int:
    run.prepare()
    import harness

    doc = {}
    for name, wl in harness.WORKLOADS.items():
        summary, errors = harness.reference_run(wl)
        if errors:
            print(f"{name}: reference run fails its checks: {errors}",
                  file=sys.stderr)
            return 1
        doc[name] = summary
    harness.REFERENCE.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                           for k, v in doc.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
