"""Tests for timeout/retry with exponential backoff and jitter."""

import numpy as np
import pytest

from repro.faults import RetryPolicy, simulate_retries


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.0)

    def test_backoff_doubles_without_jitter(self):
        policy = RetryPolicy(timeout_s=1e-3, backoff_factor=2.0,
                             jitter_fraction=0.0)
        rng = np.random.default_rng(0)
        assert policy.backoff_s(0, rng) == pytest.approx(1e-3)
        assert policy.backoff_s(1, rng) == pytest.approx(2e-3)
        assert policy.backoff_s(3, rng) == pytest.approx(8e-3)

    def test_jitter_bounds(self):
        policy = RetryPolicy(timeout_s=1e-3, jitter_fraction=0.2)
        rng = np.random.default_rng(1)
        draws = [policy.backoff_s(0, rng) for _ in range(200)]
        assert all(0.8e-3 <= d <= 1.2e-3 for d in draws)
        assert max(draws) > 1.05e-3 and min(draws) < 0.95e-3

    def test_deterministic_with_seeded_rng(self):
        policy = RetryPolicy(timeout_s=1e-3, jitter_fraction=0.3)
        a = [policy.backoff_s(i, np.random.default_rng(5)) for i in range(3)]
        b = [policy.backoff_s(i, np.random.default_rng(5)) for i in range(3)]
        assert a == b


class TestSimulateRetries:
    def test_first_attempt_success_has_no_delay(self):
        policy = RetryPolicy(timeout_s=1e-3)
        outcome = simulate_retries(lambda i: False, policy,
                                   np.random.default_rng(0))
        assert outcome.delivered and outcome.attempts == 1
        assert outcome.extra_delay_s == 0.0

    def test_eventual_success_accumulates_backoff(self):
        policy = RetryPolicy(timeout_s=1e-3, jitter_fraction=0.0)
        outcome = simulate_retries(lambda i: i < 2, policy,
                                   np.random.default_rng(0))
        assert outcome.delivered and outcome.attempts == 3
        assert outcome.extra_delay_s == pytest.approx(1e-3 + 2e-3)

    def test_exhaustion_reports_undelivered(self):
        policy = RetryPolicy(timeout_s=1e-3, max_attempts=3,
                             jitter_fraction=0.0)
        outcome = simulate_retries(lambda i: True, policy,
                                   np.random.default_rng(0))
        assert not outcome.delivered
        assert outcome.attempts == 3
        # No backoff is charged after the final (failed) attempt.
        assert outcome.extra_delay_s == pytest.approx(1e-3 + 2e-3)


class TestElapsedDeadline:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_elapsed_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=2.0, max_elapsed_s=1.0)
        # Exactly one attempt's timeout is a legal (tight) deadline.
        RetryPolicy(timeout_s=1.0, max_elapsed_s=1.0)

    def test_within_deadline(self):
        policy = RetryPolicy(timeout_s=0.1, max_elapsed_s=1.0)
        assert policy.within_deadline(0.5)
        assert not policy.within_deadline(1.0)
        assert not policy.within_deadline(2.0)
        unbounded = RetryPolicy(timeout_s=0.1)
        assert unbounded.within_deadline(1e12)

    def test_simulate_retries_gives_up_at_deadline(self):
        # 1 ms timeout doubling: backoffs 1, 2, 4, ... ms.  A 2.5 ms
        # deadline allows the first retry (1 ms) but not the second
        # (1 + 2 = 3 ms), even with attempts to spare.
        policy = RetryPolicy(timeout_s=1e-3, max_attempts=10,
                             jitter_fraction=0.0, max_elapsed_s=2.5e-3)
        rng = np.random.default_rng(0)
        outcome = simulate_retries(lambda i: True, policy, rng)
        assert not outcome.delivered
        assert outcome.attempts == 2
        assert outcome.extra_delay_s == pytest.approx(1e-3)

    def test_unbounded_policy_unchanged(self):
        bounded = RetryPolicy(timeout_s=1e-3, max_attempts=4,
                              jitter_fraction=0.0, max_elapsed_s=1.0)
        unbounded = RetryPolicy(timeout_s=1e-3, max_attempts=4,
                                jitter_fraction=0.0)
        rng = np.random.default_rng(0)
        # A generous deadline never changes the outcome.
        a = simulate_retries(lambda i: i < 2, bounded, rng)
        b = simulate_retries(lambda i: i < 2, unbounded, rng)
        assert (a.delivered, a.attempts) == (b.delivered, b.attempts)
        assert a.extra_delay_s == pytest.approx(b.extra_delay_s)
