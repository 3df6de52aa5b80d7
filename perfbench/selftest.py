#!/usr/bin/env python3
"""Self-tests of the benchmark's analysis (perfbench/analysis.py).

    python3 perfbench/selftest.py

run.py runs the same suite before every measurement and refuses to
report numbers when it fails."""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import analysis  # noqa: E402


def record(conn, seq, due, done, status="ok", sent=None):
    return {"conn": conn, "seq": seq, "due": due,
            "sent": due if sent is None else sent, "done": done,
            "status": status}


def access(serial, seq, method="run_cell", queue_ns=10, run_ns=20):
    return {"schema": analysis.ACCESS_SCHEMA,
            "req_id": "c%d-%d" % (serial, seq), "method": method,
            "queue_ns": queue_ns, "run_ns": run_ns}


REQ = ('{"schema":"recover.req/1","id":7,"method":"run_cell","params":'
       '{"exp":"exp01","params":{"m":256,"d":2},"seed":5}}')
REPLY = ('{"schema":"recover.resp/1","id":7,"ok":true,"result":{"exp":"exp01",'
         '"key":"m=256,d=2","values":{"T_mean":12.5,"censored":0}}}')


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile(values, 0.5), 50)
        self.assertEqual(analysis.percentile(values, 0.9), 90)
        self.assertEqual(analysis.percentile(values, 0.99), 99)
        self.assertEqual(analysis.percentile([3.0], 0.9), 3.0)

    def test_latency_is_timed_from_due_time(self):
        # Sent 4 ms late, answered 1 ms after sending: 5 ms, not 1 ms.
        r = record(0, 2, due=0, sent=4_000_000, done=5_000_000)
        self.assertEqual(analysis.client_latencies_ms([r], 50.0), [5.0])

    def test_failed_requests_count_as_over_the_limit(self):
        records = [record(0, i + 2, 0, 1_000_000) for i in range(85)]
        records += [record(0, i + 90, 0, 1_000_000, status="error")
                    for i in range(15)]
        lat = analysis.client_latencies_ms(records, 50.0)
        self.assertEqual(analysis.percentile(lat, 0.5), 1.0)
        self.assertGreater(analysis.percentile(lat, 0.9), 50.0)
        # A timed-out request never answered also counts as over it.
        lost = record(1, 2, 0, 0, status="timeout")
        self.assertGreater(analysis.client_latencies_ms([lost], 50.0)[0], 50.0)


class JoinTest(unittest.TestCase):
    def test_joins_by_serial_order_and_sequence(self):
        records = [record(0, 2, 0, 1), record(1, 2, 0, 1), record(0, 3, 0, 1)]
        entries = [access(5, 1, method="ping"), access(6, 1, method="ping"),
                   access(6, 2, run_ns=200), access(5, 3, run_ns=300),
                   access(5, 2, run_ns=100)]
        joined = analysis.join_access_log(records, entries)
        self.assertEqual(joined[0]["run_ns"], 100)  # conn 0 is serial 5
        self.assertEqual(joined[1]["run_ns"], 200)
        self.assertEqual(joined[2]["run_ns"], 300)

    def test_missing_or_extra_lines_fail_the_join(self):
        records = [record(0, 2, 0, 1)]
        with self.assertRaises(ValueError):
            analysis.join_access_log(records, [access(1, 3)])
        with self.assertRaises(ValueError):
            analysis.join_access_log(records, [access(1, 2), access(1, 3)])

    def test_parses_access_log_lines(self):
        lines = [json.dumps(access(1, 2)), ""]
        self.assertEqual(analysis.parse_access_log(lines)[0]["req_id"], "c1-2")
        with self.assertRaises(ValueError):
            analysis.parse_access_log(['{"schema":"other"}'])


class MismatchTest(unittest.TestCase):
    def test_valid_reply_passes(self):
        self.assertIsNone(analysis.reply_problem(REQ, REPLY))

    def test_detector_fires_on_a_corrupted_reply(self):
        corrupted = REPLY.replace("12.5", "12.6")
        self.assertEqual(analysis.mismatches({7: REPLY}, {7: corrupted}), [7])
        self.assertEqual(analysis.mismatches({7: REPLY}, {7: REPLY}), [])
        self.assertEqual(analysis.mismatches({7: REPLY}, {}), [7])

    def test_dispatch_check_fires_on_a_corrupted_wire_reply(self):
        # serve-check rows carry the reply serve::dispatch recomputed.
        rows = [["D", "low", "7", "1000", REPLY], ["Q", "parse_ns", "3", "1"]]
        self.assertEqual(analysis.dispatch_mismatches({7: REPLY}, rows), [])
        corrupted = REPLY.replace("12.5", "12.6")
        self.assertEqual(analysis.dispatch_mismatches({7: corrupted}, rows), [7])
        # A recomputed reply with no wire reply to compare is a mismatch.
        self.assertEqual(analysis.dispatch_mismatches({}, rows), [7])

    def test_schema_problems_are_reported(self):
        self.assertIsNotNone(analysis.reply_problem(REQ, REPLY[:-1]))
        self.assertIsNotNone(
            analysis.reply_problem(REQ, REPLY.replace('"id":7', '"id":8')))
        self.assertIsNotNone(
            analysis.reply_problem(REQ, REPLY.replace("resp/1", "resp/2")))
        self.assertIsNotNone(
            analysis.reply_problem(REQ, REPLY.replace('"censored":0',
                                                      '"censored":1')))
        error = ('{"schema":"recover.resp/1","id":7,"ok":false,"error":'
                 '{"code":"overloaded","message":"full"}}')
        self.assertIsNotNone(analysis.reply_problem(REQ, error))


def run_quietly():
    """True when every self-test passes (output only on failure)."""
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    stream = open(os.devnull, "w")
    result = unittest.TextTestRunner(stream=stream, verbosity=0).run(suite)
    stream.close()
    if not result.wasSuccessful():
        for _, trace in result.failures + result.errors:
            print(trace, file=sys.stderr)
    return result.wasSuccessful()


if __name__ == "__main__":
    unittest.main()
