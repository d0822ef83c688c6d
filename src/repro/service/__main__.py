"""``python -m repro.service`` — run the campaign daemon standalone.

The same entry ``repro-sim serve`` wraps; kept runnable as a module so
the soak harness and CI can spawn a daemon without the console script
installed.  Fault-hook flags (``--kill-shard``, ``--fault-kill-after``)
exist for the fault-injection tiers only.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from ..cli import add_daemon_args
from .daemon import CampaignDaemon


def parse_kill_shard(values: List[str]) -> Dict[int, int]:
    """Parse ``SHARD:AFTER_TASKS`` fault specs."""
    hooks: Dict[int, int] = {}
    for value in values:
        shard, _, after = value.partition(":")
        try:
            hooks[int(shard)] = int(after)
        except ValueError:
            raise SystemExit(
                f"--kill-shard expects SHARD:AFTER_TASKS, got {value!r}"
            ) from None
    return hooks


def build_parser() -> argparse.ArgumentParser:
    """The daemon's flags plus the two fault hooks."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run the repro campaign daemon.",
    )
    add_daemon_args(parser)
    parser.add_argument(
        "--kill-shard", action="append", default=[], metavar="SHARD:AFTER",
        help="fault hook: crash shard SHARD after AFTER tasks (repeatable)",
    )
    parser.add_argument(
        "--fault-kill-after", type=int, default=None, metavar="N",
        help="fault hook: SIGKILL the daemon after recording N results",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    daemon = CampaignDaemon(
        spool=args.spool,
        shards=args.shards,
        max_queue_depth=args.max_queue_depth,
        heartbeat_timeout=args.heartbeat_timeout,
        kill_after_tasks=parse_kill_shard(args.kill_shard),
        fault_kill_after_results=args.fault_kill_after,
    )
    socket_path = args.socket or str(daemon.spool / "daemon.sock")
    print(f"repro.service: serving on {socket_path} (spool {daemon.spool})")
    sys.stdout.flush()
    daemon.serve(socket_path)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
