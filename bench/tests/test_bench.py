"""Tests for the benchmark's own code.

    python3 -m unittest discover -s bench/tests
"""

import os
import sys
import unittest
from array import array

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import inputs  # noqa: E402
import spans  # noqa: E402


def _tracer(rows):
    """A tracer filled with (name, start, end, parent) rows, in start order."""
    t = spans.Tracer()
    ids = {q: i for i, q in enumerate(t.names)}
    for qualified, start, end, parent in rows:
        t.name.append(ids[qualified])
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.owner.append(0)
    return t


class SelfTime(unittest.TestCase):
    def test_children_are_clipped_and_counted_once(self):
        # 0 [0,10] has children [1,3] and [2,5], which overlap, and [9,12],
        # which outlives it; 2 [2,5] has the child [3,4].
        start = array("d", [0, 1, 2, 3, 9])
        end = array("d", [10, 3, 5, 4, 12])
        parent = array("i", [-1, 0, 0, 2, 0])
        self.assertEqual(spans.self_times(start, end, parent), [5, 2, 2, 1, 3])

    def test_layer_metrics_on_a_span_tree(self):
        t = _tracer([
            ("sop.depth_with_certificate", 0, 10, -1),
            ("groebner.Ideal.quotient_ideal", 1, 4, 0),
            ("groebner.Ideal.quotient", 1, 2, 1),
            ("groebner.Ideal.quotient", 2, 4, 1),
            ("groebner.buchberger", 2, 4, 3),
            ("groebner._buchberger_raw", 2, 3, 4),
            ("groebner.Ideal.saturation", 5, 9, 0),
            ("groebner.Ideal.quotient", 5, 6, 6),
            ("groebner.buchberger", 6, 7, 6),
        ])
        t.outcome = {4: True, 8: True}
        m = spans.layer_metrics(t, wall_s=20.0)
        self.assertEqual(m["groebner.Ideal.quotient.calls"], (3, "count"))
        self.assertEqual(m["groebner.Ideal.quotient.self_s"], (2.0, "s"))
        self.assertEqual(m["sop.depth_with_certificate.self_s"], (3.0, "s"))
        self.assertEqual(m["sop.depth_with_certificate.colons_per_call"], (3.0, "count"))
        self.assertEqual(m["groebner.Ideal.saturation.quotients_per_call"], (1.0, "count"))
        # one of the two non-monomial bases came back without _buchberger_raw
        self.assertEqual(m["groebner.buchberger.hit_ratio"], (0.5, "ratio"))
        self.assertEqual(m["trace.coverage"], (0.5, "ratio"))


class Wrappers(unittest.TestCase):
    def test_install_covers_every_binding_and_uninstall_restores_it(self):
        import redsop
        from redsop import session, suites  # noqa: F401  (bound before the snapshot)

        modules = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "redsop"}
        before = {k: dict(vars(m)) for k, m in modules.items()}
        methods = dict(vars(redsop.Ideal))

        t = spans.Tracer()
        t.install()
        try:
            patched = {(h.__name__, a) for h, a, _ in t._patches}
            for binding in [("redsop.poly", "_nf_raw"), ("redsop.groebner", "_nf_raw"),
                            ("redsop.sop", "depth_with_certificate"),
                            ("redsop.session", "depth_with_certificate"),
                            ("redsop.sop", "depth_oracle"), ("redsop.cmlocus", "depth_oracle"),
                            ("redsop.sop", "_assoc_dim_witness"),
                            ("redsop.cmlocus", "_assoc_dim_witness"),
                            ("Ideal", "quotient")]:
                self.assertIn(binding, patched)
            redsop.depth_oracle(suites.example_module(), seed=1)
        finally:
            t.uninstall()

        recorded = {t.names[i] for i in t.name}
        self.assertIn("sop.depth_with_certificate", recorded)
        self.assertIn("groebner.Ideal.quotient", recorded)
        for k, m in modules.items():
            after = vars(m)
            for attr, value in before[k].items():
                self.assertIs(after[attr], value, f"{k}.{attr}")
        for attr, value in methods.items():
            self.assertIs(vars(redsop.Ideal)[attr], value, f"Ideal.{attr}")


class Generator(unittest.TestCase):
    def test_same_seed_same_text(self):
        a = "".join(q.text for q in inputs.session_stream(7))
        b = "".join(q.text for q in inputs.session_stream(7))
        c = "".join(q.text for q in inputs.session_stream(8))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(inputs.suite_calls("check-colon", 7), inputs.suite_calls("check-colon", 7))

    def test_independent_sets_give_the_dimension(self):
        # (XY, XZ): V(J) is the plane X = 0 and the line Y = Z = 0
        sets = inputs.independent_sets([(1, 1, 0), (1, 0, 1)], 3)
        self.assertEqual(sorted(sorted(s) for s in sets), [[0], [1, 2]])


if __name__ == "__main__":
    unittest.main()
