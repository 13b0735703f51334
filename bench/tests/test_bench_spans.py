import types

import pytest

from spans import Span, Tracer, patched, self_times


def _tree(*spans):
    return [Span(name, start, end, parent, "run") for name, start, end, parent in spans]


def test_self_time_on_hand_built_tree():
    spans = _tree(
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("d", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
        ("e", 5.0, 6.0, 3),
        ("f", 7.0, 9.0, 3),
        ("g", 20.0, 22.5, -1),
    )
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0, 2.5])
    assert sum(self_times(spans)) == pytest.approx(12.5)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = _tree(
        ("p", 0.0, 10.0, -1),
        ("x", 1.0, 5.0, 0),
        ("y", 3.0, 7.0, 0),
        ("z", 4.0, 6.0, 0),
        ("late", 9.0, 12.0, 0),
    )
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


class _Counter:
    count = 0


def test_tracer_records_nesting_tags_rows_and_forward_rows():
    counter = _Counter()
    tracer = Tracer("run-1", counter)

    def leaf(x):
        counter.count += len(x)
        return len(x)

    def outer(x):
        return inner(x) + inner(x[:1])

    inner = tracer.wrap(leaf, "m.leaf", lambda x: ("tagged", len(x)))
    outer = tracer.wrap(outer, lambda x: f"m.outer{len(x)}")
    assert outer([1, 2, 3]) == 4
    names = [(s.name, s.parent, s.tag, s.rows, s.forward_rows) for s in tracer.spans]
    assert names == [
        ("m.outer3", -1, "", 0, 4),
        ("m.leaf", 0, "tagged", 3, 3),
        ("m.leaf", 0, "tagged", 1, 1),
    ]
    assert all(s.run_id == "run-1" and s.end >= s.start for s in tracer.spans)


def test_patched_restores_module_and_class_attributes_even_on_error():
    class Owner:
        def method(self):
            return "m"

    module = types.SimpleNamespace(fn=lambda: "f")
    originals = (vars(module)["fn"], vars(Owner)["method"])
    tracer = Tracer("run", _Counter())
    hooks = [(module, "fn", "mod.fn", None), (Owner, "method", "cls.method", None)]
    with pytest.raises(RuntimeError):
        with patched(tracer, hooks):
            assert module.fn() == "f" and Owner().method() == "m"
            assert vars(module)["fn"] is not originals[0]
            raise RuntimeError
    assert (vars(module)["fn"], vars(Owner)["method"]) == originals
    assert [s.name for s in tracer.spans] == ["mod.fn", "cls.method"]
