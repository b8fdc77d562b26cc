"""Tests for the workload generator: python3 perfbench/test_gen.py"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in gen.SPECS:
            self.assertEqual(gen.render(name, 7, 200), gen.render(name, 7, 200))

    def test_other_seed_other_bytes(self):
        for name in gen.SPECS:
            self.assertNotEqual(gen.render(name, 7, 200),
                                gen.render(name, 8, 200))

    def test_deltas_are_valid(self):
        # Session.apply asserts that every addition is absent and every
        # removal present; drawing the ops applies them.
        for name in ("durable-edit", "routed-warm"):
            w = gen.Workload(name, 3)
            for _ in w.warmup_ops():
                pass
            for _ in range(2000):
                w.next_op()
            for s in w.sessions:
                self.assertEqual(len(s.keys), len(s.edges))
                lefts, rights = set(s.lefts), set(s.rights)
                for u, v in s.edges:
                    self.assertTrue(u in lefts and v in rights)

    def test_durable_edit_reverts(self):
        # Every session's 4th mutation undoes the 3rd, so the graph (and
        # its digest) returns to the state after the 2nd.
        w = gen.Workload("durable-edit", 5)
        for _ in w.warmup_ops():
            pass
        seen = {k: [] for k in range(len(w.sessions))}
        for _ in range(400):
            op = w.next_op()
            s = w.sessions[op["session"]]
            seen[op["session"]].append((s.n, dict(s.edges)))
        for states in seen.values():
            # states[t] follows the session's mutation t + 2 (warm-up made
            # two); mutation j with j % 4 == 3 reverts mutation j - 1.
            for t in range(2, len(states)):
                if (t + 2) % 4 == 3:
                    self.assertEqual(states[t], states[t - 2])

    def test_cold_solve_seeds_fresh(self):
        w = gen.Workload("cold-solve", 2)
        ops = list(w.warmup_ops()) + [w.next_op() for _ in range(1000)]
        self.assertEqual(len({o["seed"] for o in ops}), len(ops))
        self.assertEqual({o["algo"] for o in ops}, {"streaming", "mpc"})

    def test_routed_warm_keeps_size(self):
        w = gen.Workload("routed-warm", 4)
        m0 = [len(s.edges) for s in w.sessions]
        for _ in w.warmup_ops():
            pass
        for _ in range(1000):
            w.next_op()
        for s, m in zip(w.sessions, m0):
            self.assertLessEqual(abs(len(s.edges) - m), 2)

    def test_routed_warm_never_revisits_a_graph(self):
        # A revisited graph would make its re-solve a cache hit, a second
        # cost class (and the traced replay rejects cached core solves).
        w = gen.Workload("routed-warm", 6)
        for _ in w.warmup_ops():
            pass
        seen = {k: {frozenset(s.edges.items())}
                for k, s in enumerate(w.sessions)}
        for _ in range(1000):
            k = w.next_op()["session"]
            state = frozenset(w.sessions[k].edges.items())
            self.assertNotIn(state, seen[k])
            seen[k].add(state)


if __name__ == "__main__":
    unittest.main()
