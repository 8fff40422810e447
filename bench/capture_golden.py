"""Write golden_cli.json: the ``results`` block of every cli-session command.

Run from the repository root on the commit whose output is the reference:

    python3 bench/capture_golden.py

The cli-session workload compares each command's results block with this
file byte for byte; ``elapsed_ms`` lies outside the block.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import CLI_COMMANDS, GOLDEN_CLI, cli_env, results_block, run_cli


def main() -> int:
    env = cli_env()
    golden = {}
    for name, argv in CLI_COMMANDS:
        proc = run_cli(argv, env)
        if proc.returncode != 0 or "RuntimeWarning" in proc.stderr:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        golden[name] = results_block(proc.stdout)
    GOLDEN_CLI.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
