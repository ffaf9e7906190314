"""Unit tests for the component hierarchy."""

from repro.core import Component


class TestHierarchy:
    def test_path(self, sim):
        root = Component(sim, "platform")
        node = Component(sim, "n8", parent=root)
        arb = Component(sim, "arbiter", parent=node)
        assert arb.path == "platform.n8.arbiter"
        assert root.path == "platform"

    def test_children_registered(self, sim):
        root = Component(sim, "root")
        kid = Component(sim, "kid", parent=root)
        assert root.children == [kid]

    def test_iter_tree_depth_first(self, sim):
        root = Component(sim, "root")
        a = Component(sim, "a", parent=root)
        Component(sim, "a1", parent=a)
        Component(sim, "b", parent=root)
        names = [c.name for c in root.iter_tree()]
        assert names == ["root", "a", "a1", "b"]

    def test_children_nest(self, sim):
        root = Component(sim, "root")
        a = Component(sim, "a", parent=root)
        a1 = Component(sim, "a1", parent=a)
        assert root.children == [a] and a.children == [a1]
        assert list(root.iter_tree()) == [root, a, a1]
        assert a1.path == "root.a.a1"


class TestProcesses:
    def test_process_named_with_path(self, sim):
        comp = Component(sim, "unit")

        def body():
            yield sim.timeout(1)

        proc = comp.process(body(), name="engine")
        assert proc.name == "unit.engine"
        assert comp.processes == [proc]
        sim.run()
        assert not proc.is_alive
