"""Memoized per-record progression: sharing accounting, memo == naive."""

from repro.monitor import batch as batch_module
from repro.monitor.batch import BatchProgressor
from repro.quickltl import Always, And, Atom, ProgressionCaches, atom

# One shared formula object: atoms carry predicate closures, so sharing
# (and hence memo hits) requires reusing the node, exactly as a Monitor
# reuses its spec's formula for every session.
P = atom("p")
Q = atom("q")
FORMULA = Always(5, And(P, Q))


class TestBatching:
    def test_cohort_members_share_one_step(self):
        batcher = BatchProgressor(ProgressionCaches())
        state = {"p": True, "q": True}
        outcomes = [batcher.run_round(FORMULA, state, "key-same")
                    for _ in range(4)]
        assert batcher.session_steps == 4
        assert batcher.cohort_steps == 1
        assert batcher.sharing_ratio == 0.75
        # One computation, shared by assignment: identical outcome nodes.
        assert len({id(outcome) for outcome in outcomes}) == 1

    def test_different_states_split_cohorts(self):
        batcher = BatchProgressor(ProgressionCaches())
        first = batcher.run_round(FORMULA, {"p": True, "q": True}, "k1")
        second = batcher.run_round(FORMULA, {"p": True, "q": False}, "k2")
        assert batcher.cohort_steps == 2
        assert first.verdict is not None
        assert first.residual is not second.residual

    def test_batched_equals_naive_per_session(self):
        trace = [
            {"p": True, "q": True},
            {"p": True, "q": True},
            {"p": False, "q": True},
        ]

        def run(enabled):
            batcher = BatchProgressor(ProgressionCaches(), enabled=enabled)
            residuals = [FORMULA] * 6
            seen = []
            for position, state in enumerate(trace):
                outcomes = [
                    batcher.run_round(residual, state, f"state-{position}")
                    for residual in residuals
                ]
                residuals = [outcome.residual for outcome in outcomes]
                seen.append([
                    (outcome.verdict, outcome.residual, outcome.size)
                    for outcome in outcomes
                ])
            return seen

        assert run(True) == run(False)

    def test_disabled_batching_counts_every_step_as_a_cohort(self):
        batcher = BatchProgressor(ProgressionCaches(), enabled=False)
        state = {"p": True, "q": True}
        for _ in range(3):
            batcher.run_round(FORMULA, state, "same")
        assert batcher.cohort_steps == batcher.session_steps == 3
        assert batcher.sharing_ratio == 0.0


class TestMemo:
    def test_a_later_record_reuses_an_earlier_step(self):
        """The memo outlives any ingest chunk: a step is computed once
        per (state key, residual), whenever its records arrive."""
        batcher = BatchProgressor(ProgressionCaches())
        state = {"p": True, "q": True}
        first = batcher.run_round(FORMULA, state, "k")
        batcher.run_round(first.residual, state, "k")
        again = batcher.run_round(FORMULA, state, "k")
        assert again is first
        assert (batcher.session_steps, batcher.cohort_steps) == (3, 2)

    def test_residuals_of_one_state_share_its_unroll_memo(self):
        batcher = BatchProgressor(ProgressionCaches())
        state = {"p": True, "q": True}
        first = batcher.run_round(FORMULA, state, "k")
        batcher.run_round(first.residual, state, "k")
        assert list(batcher._unrolls) == ["k"]
        assert batcher._unrolls["k"]

    def test_a_full_memo_resets_whole(self, monkeypatch):
        monkeypatch.setattr(batch_module, "_MEMO_LIMIT", 2)
        batcher = BatchProgressor(ProgressionCaches())
        state = {"p": True, "q": True}
        for key in ("a", "b", "c"):
            batcher.run_round(FORMULA, state, key)
        assert list(batcher._outcomes) == [("c", FORMULA)]
        assert list(batcher._unrolls) == ["c"]
        batcher.run_round(FORMULA, state, "a")  # reset: a miss again
        assert batcher.cohort_steps == 4


class TestErrorIsolation:
    def test_failing_cohort_does_not_poison_others(self):
        def boom(state):
            raise KeyError("#missing")

        bad = Always(5, Atom("boom", boom))
        batcher = BatchProgressor(ProgressionCaches())
        state = {"p": True, "q": True}
        outcomes = [
            batcher.run_round(bad, state, "k"),
            batcher.run_round(bad, state, "k"),
            batcher.run_round(FORMULA, state, "k"),
        ]
        assert outcomes[0].error is not None
        assert "KeyError" in outcomes[0].error
        # Same state and residual, same (memoized) error outcome.
        assert outcomes[1].error == outcomes[0].error
        assert batcher.cohort_steps == 2
        assert outcomes[2].error is None
        assert outcomes[2].verdict is not None
