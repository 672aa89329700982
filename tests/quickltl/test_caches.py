"""`intern_delta` regions and the bounded `ProgressionCaches`."""

import pytest

from repro.quickltl import (
    Always,
    And,
    Atom,
    FormulaChecker,
    NextReq,
    ProgressionCaches,
    atom,
    intern_delta,
)

P = atom("p")
Q = atom("q")


def fresh_nodes(count):
    """Construct `count` new interned nodes (all misses the first time)."""
    return [NextReq(Always(depth + 2, And(P, Q))) for depth in range(count)]


class TestInternDelta:
    def test_live_deltas_while_open(self):
        # Settle the table; hold the nodes (the intern table is weak, so
        # dropping them would let re-building miss again).
        settled = fresh_nodes(3)
        with intern_delta() as delta:
            assert delta.as_tuple() == (0, 0)
            rebuilt = fresh_nodes(3)
            assert delta.misses == 0
            assert delta.hits > 0
        assert rebuilt[0] is settled[0]

    def test_freezes_at_exit(self):
        with intern_delta() as delta:
            fresh_nodes(2)
        frozen = delta.as_tuple()
        fresh_nodes(2)  # outside the region: must not move the counters
        assert delta.as_tuple() == frozen
        assert delta.constructions == delta.hits + delta.misses

    def test_reentry_resnapshots(self):
        delta = intern_delta()
        with delta:
            fresh_nodes(2)
        first = delta.as_tuple()
        with delta:
            pass
        assert delta.as_tuple() == (0, 0)
        assert first != (0, 0)

    def test_hit_ratio(self):
        settled = fresh_nodes(4)
        with intern_delta() as delta:
            fresh_nodes(4)  # every construction is served by the table
        assert settled is not None
        assert delta.hit_ratio == 1.0
        empty = intern_delta()
        assert empty.hit_ratio == 0.0


class TestBoundedCaches:
    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            ProgressionCaches(max_entries=0)
        ProgressionCaches(max_entries=1)  # the degenerate bound is legal

    def test_clear_reports_what_it_dropped(self):
        caches = ProgressionCaches()
        checker = FormulaChecker(Always(3, And(P, Q)), caches=caches)
        checker.observe({"p": True, "q": True})
        assert len(caches) > 0
        report = caches.clear()
        assert set(report) == {"simplify", "step", "valuation", "sizes",
                               "outcomes", "total"}
        assert report["total"] == sum(
            count for table, count in report.items() if table != "total"
        )
        assert report["total"] > 0
        assert len(caches) == 0
        assert caches.trims == 1
        assert caches.evicted_entries == report["total"]

    def test_clearing_nothing_is_not_a_trim(self):
        caches = ProgressionCaches()
        assert caches.clear()["total"] == 0
        assert caches.trims == 0
        assert caches.evicted_entries == 0

    def test_long_run_stays_under_the_bound(self):
        caches = ProgressionCaches(max_entries=16)
        formula = Always(4, And(P, Q))
        for round_index in range(30):
            checker = FormulaChecker(formula, caches=caches)
            for step in range(6):
                checker.observe({
                    "p": True, "q": (round_index + step) % 7 != 0,
                })
            # trim() runs inside progression: the bound holds between
            # observations up to one batch of insertions.
            assert len(caches) <= 16 + 32
        assert caches.trims > 0
        assert caches.evicted_entries > 0

    def test_bounded_and_unbounded_checkers_agree(self):
        formula = Always(6, And(P, Q))
        trace = [
            {"p": True, "q": index % 5 != 3} for index in range(12)
        ]
        bounded = FormulaChecker(
            formula, caches=ProgressionCaches(max_entries=4)
        )
        unbounded = FormulaChecker(formula, caches=ProgressionCaches())
        for state in trace:
            assert bounded.observe(state) is unbounded.observe(state)
        assert bounded.verdict is unbounded.verdict


def reads_p(state):
    # Module-level, so formulas over it pickle.
    return state["p"]


class TestStepTable:
    def test_pickles_without_the_step_table(self):
        import pickle

        caches = ProgressionCaches(max_entries=64)
        checker = FormulaChecker(Always(3, Atom("p", reads_p)), caches=caches)
        checker.observe({"p": True}, key="p")
        assert caches.outcomes
        copy = pickle.loads(pickle.dumps(caches))
        assert copy.outcomes == {}
        assert copy.simplify == caches.simplify
        assert (copy.max_entries, copy.trims) == (64, 0)

    def test_a_full_table_resets_whole(self, monkeypatch):
        import repro.quickltl.progression as progression

        monkeypatch.setattr(progression, "_STEP_LIMIT", 2)
        caches = ProgressionCaches()
        checker = FormulaChecker(Always(3, And(P, Q)), caches=caches)
        for key in ("a", "b", "c"):
            checker.observe({"p": True, "q": True}, key=key)
        assert len(caches.outcomes) == 1
