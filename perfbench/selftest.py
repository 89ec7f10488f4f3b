#!/usr/bin/env python3
"""Self-test of the benchmark: a failed output check is counted in
`failed` and makes run.py exit 1.

    python3 perfbench/selftest.py

Each case runs run.py for a few seconds in a child process, with one fault
injected into the program first:
  none               no fault; every check must pass
  ledger-off-by-one  each CallLedger charges one extra call on its first
                     add_forward, so the count misses ledger_predict by one
  patch-digest       write_pgm flips one pixel bit, so the written patches
                     miss the stored SHA-256 digest
"""

import json
import subprocess
import sys

import run

CASES = (("none", "epoch-backprop"), ("ledger-off-by-one", "epoch-backprop"),
         ("patch-digest", "ingest"))


def inject(fault: str) -> None:
    from qcrack import data
    from qcrack.autodiff import CallLedger

    if fault == "ledger-off-by-one":
        add_forward = CallLedger.add_forward

        def off_by_one(self, n=1):
            if not getattr(self, "_charged_extra", False):
                self._charged_extra = True
                n += 1
            add_forward(self, n)

        CallLedger.add_forward = off_by_one
    elif fault == "patch-digest":
        write_pgm = data.write_pgm

        def flipped(path, pixels):
            pixels = pixels.copy()
            pixels[0, 0] ^= 1
            write_pgm(path, pixels)

        data.write_pgm = flipped


def child(fault: str, argv) -> int:
    run.prepare()
    inject(fault)
    return run.main(argv)


def main() -> int:
    ok = True
    for fault, workload in CASES:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", fault, "--workload",
             workload, "--seed", "1", "--seconds", "3", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if fault == "none":
            passed = proc.returncode == 0 and result["failed"] == 0
        else:
            passed = (proc.returncode == 1 and not result["correct"]
                      and result["failed"] == result["attempted"] > 0)
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {fault} on {workload}: "
              f"exit {proc.returncode}, {result['failed']} of "
              f"{result['attempted']} units failed")
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(sys.argv[2], sys.argv[3:]))
    sys.exit(main())
