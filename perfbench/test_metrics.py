"""Self-tests of the benchmark's metric arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import metrics as M


def req(due, tokens, prompt=10, admitted=None, finished=True, shared=0):
    return {
        "due": due,
        "submit": due,
        "admitted": due if admitted is None else admitted,
        "done": tokens[-1] if tokens else -1.0,
        "prompt": prompt,
        "max_new": len(tokens),
        "shared": shared,
        "finished": finished,
        "token_times": tokens,
    }


class TailPercentile(unittest.TestCase):
    def test_supported_percentile_is_nearest_rank(self):
        vals = list(range(1, 1001))
        self.assertEqual(M.percentile(vals, 50)[0], 500)
        self.assertEqual(M.percentile(vals, 90)[0], 900)
        self.assertEqual(M.percentile(vals, 99)[0], 990)

    def test_exactly_ten_beyond_is_allowed(self):
        # p90 of 100 samples sits at index 89: samples 90..99 lie beyond.
        self.assertEqual(M.tail_index(100, 90), 89)
        value, reported, n = M.percentile(range(100), 90)
        self.assertEqual((value, reported, n), (89, 90.0, 100))

    def test_one_sample_short_lowers_the_percentile(self):
        # 99 samples: index 89 would leave only 9 beyond, so step down.
        self.assertEqual(M.tail_index(99, 90), 88)
        value, reported, _ = M.percentile(range(99), 90)
        self.assertEqual(value, 88)
        self.assertLess(reported, 90.0)

    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(M.tail_index(1000, 99), 989)
        self.assertEqual(M.tail_index(999, 99), 988)

    def test_smallest_sample_reports_its_minimum(self):
        self.assertEqual(M.tail_index(11, 90), 0)
        self.assertEqual(M.percentile([5, 4, 3, 2, 1, 6, 7, 8, 9, 10, 11], 99)[0], 1)

    def test_ten_or_fewer_samples_support_nothing(self):
        for n in (0, 1, 10):
            self.assertIsNone(M.tail_index(n, 50))
        self.assertEqual(M.percentile([1.0] * 10, 50), (None, None, 10))

    def test_median_is_unaffected_when_supported(self):
        self.assertEqual(M.tail_index(21, 50), 10)
        self.assertEqual(M.tail_index(20, 50), 9)


class SloPct(unittest.TestCase):
    def test_failed_and_refused_requests_are_misses(self):
        ok = req(0.0, [0.05, 0.06, 0.07])
        unfinished = req(0.0, [0.05], finished=False)
        # A refused request never reached the engine: it is only counted
        # in attempted.
        self.assertEqual(M.slo_pct([ok, unfinished], 3, 100, 20), 100.0 / 3)

    def test_limits_apply_to_ttft_and_mean_itl(self):
        fast = req(0.0, [0.05, 0.06, 0.07])   # TTFT 50 ms, ITL 10 ms
        slow_first = req(0.0, [0.2, 0.21])     # TTFT 200 ms
        slow_gaps = req(0.0, [0.05, 0.1, 0.15])  # mean ITL 50 ms
        self.assertEqual(M.slo_pct([fast, slow_first, slow_gaps], 3, 100, 20),
                         100.0 / 3)

    def test_nothing_attempted(self):
        self.assertEqual(M.slo_pct([], 0, 100, 20), 0.0)


class CpuPerToken(unittest.TestCase):
    def test_denominator_is_offered_tokens(self):
        reqs = [req(0.0, [0.1, 0.2], prompt=80), req(0.0, [0.1], prompt=20)]
        self.assertEqual(M.offered_tokens(reqs), 103)
        self.assertAlmostEqual(M.cpu_ms_per_tok(1.03, reqs), 10.0)

    def test_prefix_sharing_cannot_inflate_it(self):
        plain = [req(0.0, [0.1, 0.2], prompt=80)]
        shared = [req(0.0, [0.1, 0.2], prompt=80, shared=64)]
        self.assertEqual(M.offered_tokens(plain), M.offered_tokens(shared))
        # The same CPU over the same offered work reads the same; less
        # CPU (prefill skipped) reads lower.
        self.assertEqual(M.cpu_ms_per_tok(0.5, plain), M.cpu_ms_per_tok(0.5, shared))
        self.assertLess(M.cpu_ms_per_tok(0.3, shared), M.cpu_ms_per_tok(0.5, plain))


class TtftFromDue(unittest.TestCase):
    def test_measured_from_due_not_submit(self):
        r = req(1.0, [1.5])
        r["submit"] = 1.3  # the generator ran 300 ms late
        self.assertAlmostEqual(M.ttft_ms(r), 500.0)

    def test_queue_wait_is_from_due(self):
        r = req(1.0, [1.5], admitted=1.2)
        r["submit"] = 1.1
        self.assertAlmostEqual(M.queue_ms(r), 200.0)

    def test_no_token_no_ttft(self):
        self.assertIsNone(M.ttft_ms(req(0.0, [], finished=False)))


class OfflineBatches(unittest.TestCase):
    def test_median_over_batches(self):
        a = [req(0.0, [0.5, 1.0]), req(0.0, [0.5, 1.0])]   # 4 tok in 1 s
        b = [req(2.0, [2.5, 4.0]), req(2.0, [2.5, 4.0])]   # 4 tok in 2 s
        c = [req(5.0, [5.1, 5.5]), req(5.0, [5.1, 5.5])]   # 4 tok in 0.5 s
        self.assertEqual(M.batch_gen_tok_s(a + b + c), 4.0)


class Backlog(unittest.TestCase):
    def test_growing_queue_is_flagged(self):
        samples = [(t / 10, t // 5) for t in range(100)]  # rises to 19
        self.assertTrue(M.backlog_growing(samples, 10.0))

    def test_steady_queue_is_not(self):
        samples = [(t / 10, 2 + t % 3) for t in range(100)]
        self.assertFalse(M.backlog_growing(samples, 10.0))

    def test_idle_queue_is_not(self):
        self.assertFalse(M.backlog_growing([(t / 10, 0) for t in range(100)], 10.0))


if __name__ == "__main__":
    unittest.main()
