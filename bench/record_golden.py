#!/usr/bin/env python3
"""Record bench/golden.json: exit code and stdout SHA-256 of every pool request.

Run from the repository root, at the commit whose outputs are the
reference (a speed-up must reproduce them byte for byte):

    python3 bench/record_golden.py

Each request runs in a fresh forked process, as in the cold workloads.
Recording stops with an error if a request ends in a traceback, fails
its oracle, or takes longer than MAX_REQUEST_S.
"""

import json
import sys

import pools
import run

MAX_REQUEST_S = 2.5


def main():
    cli = run.load_cli()
    golden, problems = {}, []
    for argv in dict.fromkeys(pools.COUNT_POOL + pools.ACTION_POOL):
        answers, _, clean = run.spawn(cli, [list(argv)])
        key = pools.key(argv)
        if not (answers and clean):
            problems.append(f"{key}: no answer")
            continue
        answer = answers[0]
        if answer["traceback"]:
            problems.append(f"{key}: {answer['traceback']}")
        if answer["seconds"] > MAX_REQUEST_S:
            problems.append(f"{key}: took {answer['seconds']:.2f} s")
        if answer["oracle"]:
            problems.append(f"{key}: {answer['oracle']}")
        golden[key] = {"exit": answer["exit"], "sha256": answer["sha256"]}
        print(f"{answer['seconds']:7.3f} s  exit {answer['exit']}  {key[:70]}", flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(golden)} golden outputs written to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
