"""Record reference outputs for ``run.py`` to check seeds against.

Usage, from the root of a checkout::

    python3 perfbench/record.py --workload NAME --seeds 0,1,2

Runs one trial per seed and stores its output digest and summary in
``perfbench/reference.json``.  Record only from a commit whose outputs
are known good: every later run of a recorded seed must reproduce them
exactly, so a change that alters the program's outputs fails there.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REFERENCE, WORKLOAD_NAMES, Runner, _become_subreaper


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record reference outputs.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, e.g. 0,1,2")
    args = parser.parse_args(argv)
    _become_subreaper()
    table = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    entries = table.setdefault(args.workload, {})
    for seed in (int(s) for s in args.seeds.split(",")):
        runner = Runner(args.workload, seed, seconds=0.0)
        try:
            trial = runner.trial()
        finally:
            runner.close()
        if "crash" in trial or trial["failed"]:
            print(f"seed {seed}: not recorded: "
                  f"{trial.get('crash') or trial['errors']}", file=sys.stderr)
            return 1
        entries[str(seed)] = {"digest": trial["digest"], "summary": trial["summary"]}
        print(f"{args.workload} seed {seed}: {trial['summary']}", flush=True)
        REFERENCE.write_text(
            json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
