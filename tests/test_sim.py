from congestds.decomp import ClusterTree


class TestTreeAggregate:
    def test_depth(self):
        # a cluster tree's depth sets the 2*depth+2 rounds charged per aggregated bit
        tree = ClusterTree(root=0, parent={1: 0, 2: 1, 3: 1})
        assert tree.depth() == 2
        assert tree.members == [0, 1, 2, 3]
