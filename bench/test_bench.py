"""Checks of the benchmark itself.  From the repository root:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import os
import re
import unittest

import oracles
import pools
import run
import tracing


def _golden():
    with open(run.GOLDEN) as fh:
        return json.load(fh)


class RequestStream(unittest.TestCase):
    def test_pure_function_of_the_seed(self):
        for workload in pools.POOLS:
            a, b = run.batches(workload, 7), run.batches(workload, 7)
            self.assertEqual([next(a) for _ in range(3)], [next(b) for _ in range(3)])
            self.assertNotEqual(next(run.batches(workload, 7)), next(run.batches(workload, 8)))

    def test_every_round_is_the_whole_pool(self):
        for workload, pool in pools.POOLS.items():
            batch = next(run.batches(workload, 3))
            rounds = 1 if run.COLD[workload] else run.SESSION_ROUNDS
            self.assertEqual(sorted(batch), sorted([list(argv) for argv in pool] * rounds))

    def test_golden_covers_every_pool_request(self):
        golden = _golden()
        for pool in pools.POOLS.values():
            for argv in pool:
                self.assertIn(pools.key(argv), golden)

    def test_pools_cover_every_readme_subcommand(self):
        with open(os.path.join(os.path.dirname(run.BENCH), "README.md")) as fh:
            commands = set(re.findall(r"^espece (\w+)", fh.read(), re.MULTILINE))
        self.assertGreater(len(commands), 10)
        used = {argv[0] for pool in pools.POOLS.values() for argv in pool}
        self.assertLessEqual(commands, used)

    def test_excluded_inputs_are_not_in_any_pool(self):
        for pool in pools.POOLS.values():
            self.assertFalse(set(pool) & set(pools.EXCLUDED))


class Correctness(unittest.TestCase):
    REQUESTS = [
        ["coeffs", "E o C", "--upto", "24", "--json"],
        ["iso", "S", "L", "--upto", "4", "--json"],
        ["terminal", "--dyn", "adjL", "L", "--upto", "4"],
        ["coeffs", "E o (", "--upto", "4"],
    ]

    def test_corrupted_golden_entry_is_a_failure(self):
        cli = run.load_cli()
        records, _ = run.serve(cli, self.REQUESTS, cold=True)
        golden = _golden()
        self.assertEqual(run.judge(records, golden), [])
        for field, wrong in (("sha256", "0" * 64), ("exit", 0)):
            corrupted = dict(golden)
            victim = pools.key(self.REQUESTS[2])
            corrupted[victim] = dict(golden[victim], **{field: wrong})
            failures = run.judge(records, corrupted)
            self.assertEqual([f["request"] for f in failures], [victim])

    def test_request_over_the_timeout_is_killed_and_failed(self):
        cli = run.load_cli()
        slow = ["suite", "--name", "leibniz", "--upto", "4"]
        saved, run.REQUEST_TIMEOUT_S = run.REQUEST_TIMEOUT_S, 0.05
        try:
            for cold in (True, False):
                records, _ = run.serve(cli, [slow], cold=cold)
                self.assertEqual([answer for _, answer, _ in records], [None])
                self.assertEqual(len(run.judge(records, _golden())), 1)
        finally:
            run.REQUEST_TIMEOUT_S = saved

    def test_oracles_accept_right_and_reject_wrong_results(self):
        fact = [1, 1, 2, 6, 24]
        cases = [
            (["coeffs", "E o C", "--upto", "4", "--json"], fact, [1, 1, 2, 6, 23]),
            (["coeffs", "P", "--upto", "3", "--json"], [1, 2, 4, 8], [1, 2, 4, 9]),
            (["coeffs", "X+X+X", "--upto", "2", "--json"], [0, 3, 0], [0, 2, 0]),
            (["coeffs", "D(D(E))", "--upto", "2", "--json"], [1, 1, 1], [1, 1, 2]),
            (
                ["solve", "--op", "1:0 + X:0", "--upto", "4", "--json"],
                {"limit": fact},
                {"limit": None},
            ),
            (
                ["iso", "S", "L", "--upto", "4", "--json"],
                {"isomorphic": False, "witness_degree": 2},
                {"isomorphic": False, "witness_degree": 3},
            ),
            (["iso", "S", "E o C", "--upto", "4", "--json"], {"isomorphic": True}, {"isomorphic": False}),
        ]
        for argv, right, wrong in cases:
            self.assertIsNone(oracles.check(argv, json.dumps({"result": right})), argv)
            self.assertIsNotNone(oracles.check(argv, json.dumps({"result": wrong})), argv)
        self.assertIsNotNone(oracles.check(cases[0][0], "not json"))


class Tracing(unittest.TestCase):
    def test_counts_repeat_and_absent_functions_are_reported(self):
        """Run in a forked child: installing wrappers changes the process."""
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(rfd)
                cli = run.load_cli()
                import espece.diffeq

                del espece.diffeq.fixpoint_check
                tracer = tracing.Tracer()
                absent = tracing.install(tracer)
                batch = Correctness.REQUESTS + [["orbits", "P", "--degree", "4"]]
                runs = []
                for _ in range(2):
                    records, _ = run.serve(cli, batch, cold=True, tracer=tracer)
                    totals = tracing.Tracer()
                    for _, answer, _ in records:
                        totals.merge(answer["trace"])
                    runs.append({"calls": totals.calls, "counts": totals.counts})
                with os.fdopen(wfd, "w") as pipe:
                    json.dump({"absent": absent, "runs": runs}, pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(wfd)
        with os.fdopen(rfd) as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        self.assertEqual(status, 0)
        got = json.loads(data)
        self.assertEqual(got["absent"], ["diffeq.fixpoint_check"])
        first, second = got["runs"]
        self.assertEqual(first, second)
        self.assertEqual(first["calls"]["cli.main"], 5)
        self.assertEqual(first["calls"]["diffeq.fixpoint_check"], 0)
        self.assertGreater(first["counts"][tracing.PERMS], 0)
        self.assertGreater(first["calls"]["species.cardinality"], 0)


if __name__ == "__main__":
    unittest.main()
