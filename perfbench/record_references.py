"""Record the reference digests of the exact workloads' CSV output.

    python3 perfbench/record_references.py --seeds 0 127

For each seed in the inclusive range, runs one ``junta-sweep`` and one
``stats-exact`` op, requires it to pass the workload's own checks, and
stores the SHA-256 of its CSV bytes in ``references.json``.  A later run
with one of these seeds must reproduce the bytes exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import workloads

EXACT = ("junta-sweep", "stats-exact")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs=2, type=int, metavar=("FIRST", "LAST"), required=True)
    args = parser.parse_args(argv)
    jg = workloads.import_program()
    refs = {name: {} for name in EXACT}
    work = workloads.ROOT / ".perfbench_work" / f"references-{os.getpid()}"
    work.mkdir(parents=True)
    previous = os.getcwd()
    os.chdir(work)
    try:
        for name in EXACT:
            for seed in range(args.seeds[0], args.seeds[1] + 1):
                wl = workloads.WORKLOADS[name](jg, seed)
                wl.reference = None
                wl.setup()
                wl.prepare_checks()
                out = wl.op()
                problems = wl.check(out)
                if problems:
                    raise SystemExit(f"{name} seed {seed} fails its checks: {problems}")
                refs[name][str(seed)] = workloads.digest(out.text)
    finally:
        os.chdir(previous)
        shutil.rmtree(work)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
