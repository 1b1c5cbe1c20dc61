import pytest

from congestds.decomp import ClusterTree
from congestds.errors import DomainError
from congestds.sim import RoundStats, charge_oracle


class TestChargeOracle:
    def test_accumulates(self):
        stats = RoundStats()
        charge_oracle(stats, 0, "noop")
        charge_oracle(stats, 3, "a")
        charge_oracle(stats, 4, "b")
        assert stats.charged_rounds == 7
        assert stats.charges == [("noop", 0), ("a", 3), ("b", 4)]

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            charge_oracle(RoundStats(), -1, "bad")


class TestTreeAggregate:
    def test_depth(self):
        # a cluster tree's depth sets the 2*depth+2 rounds charged per aggregated bit
        tree = ClusterTree(root=0, parent={1: 0, 2: 1, 3: 1})
        assert tree.depth() == 2
        assert tree.members == [0, 1, 2, 3]
