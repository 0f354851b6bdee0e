"""Direct unit tests for Topology semantics and CPPR setup checks."""

import pytest

from repro.apps.timing.cppr import generate_clock_tree, setup_slack_with_cppr
from repro.core import Heteroflow
from repro.core.topology import PASS_DONE, Topology
from repro.errors import ExecutorError


class TestTopology:
    def graph(self, k=3):
        hf = Heteroflow()
        for _ in range(k):
            hf.host(lambda: None)
        return hf

    def test_pass_accounting(self):
        t = Topology(self.graph(3), repeats=2)
        t.lower()
        t.begin_pass()
        assert t.join(0) is None
        assert t.join(1) is None
        assert t.join(2) is PASS_DONE  # third node completes the pass

    def test_slot_joins_release_and_rebuild(self):
        """The topology owns readiness: a diamond's join slot is ready
        only after both predecessors, and recovery recounts the joins
        over the slots not yet done."""
        hf = Heteroflow()
        a, b, c, d = (hf.host(lambda: None, name=n) for n in "abcd")
        a.precede(b, c)
        d.succeed(b, c)
        t = Topology(hf, repeats=1)
        t.lower()
        nodes = t.lowering.nodes
        assert [n.name for n in nodes] == ["a", "b", "c", "d"]
        t.begin_pass()
        # join() releases the successors and marks the slot done
        assert t.join(0) == [1, 2]
        assert t.join(1) is None
        assert [s for s in range(4) if t.done(s)] == [0, 1]
        # b is done, c is not: d waits on c alone, c is ready now;
        # done slots are parked at -1
        assert t.rebuild_joins() == [2]
        assert t.joins == [-1, -1, 0, 1]
        assert t.join(2) == [3]
        assert t.join(3) is PASS_DONE

    def test_rebuild_never_readies_a_done_slot(self):
        """Recovery retracts a finished pull and kernel but keeps the
        finished push: re-running the kernel must not release the push
        again, nor count it against the pass a second time."""
        hf = Heteroflow()
        p, k, s, h = (hf.host(lambda: None, name=n) for n in "pksh")
        p.precede(k)
        k.precede(s)
        s.precede(h)
        t = Topology(hf, repeats=1)
        t.lower()
        nodes = t.lowering.nodes
        assert [n.name for n in nodes] == ["p", "k", "s", "h"]
        t.begin_pass()
        for slot in range(3):
            t.join(slot)
        # p and k retracted (their device died), s stays done; h was
        # released by s but its item went stale, so it is ready again
        t.retract(0)
        t.retract(1)
        assert t.replayed == {nodes[0].nid, nodes[1].nid}
        assert t.rebuild_joins() == [0, 3]
        assert t.joins == [0, 1, -1, 0]
        assert t.pending == 3
        assert t.join(3) is None
        assert t.join(0) == [1]
        # k's re-run does not release s, and ends the pass
        assert t.join(1) is PASS_DONE
        assert t.joins[2] == -2

    def test_bindings_require_frozen_graph(self):
        with pytest.raises(ExecutorError, match="FrozenTopology"):
            Topology(self.graph(1), bindings={"x": lambda: None})

    def test_repeats_stop_condition(self):
        t = Topology(self.graph(1), repeats=2)
        assert not t.pass_completed()  # pass 1 of 2
        assert t.pass_completed()  # pass 2 of 2 -> stop

    def test_predicate_stop_condition(self):
        state = {"n": 0}

        def pred():
            state["n"] += 1
            return state["n"] >= 3

        t = Topology(self.graph(1), repeats=None, predicate=pred)
        assert not t.pass_completed()
        assert not t.pass_completed()
        assert t.pass_completed()

    def test_failure_stops_regardless_of_repeats(self):
        t = Topology(self.graph(1), repeats=100)
        t.fail(ValueError("x"))
        assert t.pass_completed()

    def test_first_error_wins(self):
        t = Topology(self.graph(1), repeats=1)
        first = ValueError("first")
        t.fail(first)
        t.fail(RuntimeError("second"))
        assert t.error is first

    def test_complete_sets_result(self):
        t = Topology(self.graph(1), repeats=1)
        t.passes_done = 1
        t.complete()
        assert t.future.result(timeout=1) == 1

    def test_complete_sets_exception(self):
        t = Topology(self.graph(1), repeats=1)
        t.fail(KeyError("boom"))
        t.complete()
        with pytest.raises(KeyError):
            t.future.result(timeout=1)


class TestSetupSlackWithCppr:
    @pytest.fixture
    def tree(self):
        return generate_clock_tree(list(range(8)), seed=4)

    def test_cppr_never_reduces_slack(self, tree):
        for a, b in [(0, 1), (0, 7), (3, 4)]:
            pess, corrected = setup_slack_with_cppr(tree, 100.0, a, b, 40.0)
            assert corrected >= pess

    def test_same_flop_pair_fully_credited(self, tree):
        """launch == capture: the entire clock path is common, so the
        derate asymmetry on it is fully credited back."""
        pess, corrected = setup_slack_with_cppr(tree, 100.0, 5, 5, 40.0)
        latency = tree.insertion_delay(5)
        assert corrected - pess == pytest.approx((1.05 - 0.95) * latency)

    def test_sibling_pair_credits_more_than_distant(self, tree):
        _, sib = setup_slack_with_cppr(tree, 100.0, 0, 1, 40.0)
        p_sib, _ = setup_slack_with_cppr(tree, 100.0, 0, 1, 40.0)
        _, far = setup_slack_with_cppr(tree, 100.0, 0, 7, 40.0)
        p_far, _ = setup_slack_with_cppr(tree, 100.0, 0, 7, 40.0)
        assert sib - p_sib > far - p_far

    def test_arrival_reduces_slack_linearly(self, tree):
        p1, c1 = setup_slack_with_cppr(tree, 100.0, 0, 3, 10.0)
        p2, c2 = setup_slack_with_cppr(tree, 100.0, 0, 3, 30.0)
        assert p1 - p2 == pytest.approx(20.0)
        assert c1 - c2 == pytest.approx(20.0)

    def test_symmetric_derates_no_credit(self, tree):
        pess, corrected = setup_slack_with_cppr(
            tree, 100.0, 0, 3, 40.0, early_derate=1.0, late_derate=1.0
        )
        assert corrected == pytest.approx(pess)
