import types

import pytest

import run
import tracer

LIB_SOURCE = '''
def inner(rows):
    if rows is None:
        raise ValueError("no rows")
    return len(rows) - 1

def outer(n):
    return inner(list(range(n))) + inner([0])

def rec(n):
    return 0 if n == 0 else rec(n - 1)
'''
APP_SOURCE = '''
def main(n):
    return outer(n)
'''


class StepClock:
    """Returns the given readings one per call."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


def fake_modules():
    lib = types.ModuleType("fake.lib")
    exec(LIB_SOURCE, lib.__dict__)
    app = types.ModuleType("fake.app")
    app.outer = lib.outer  # what "from fake.lib import outer" binds
    exec(APP_SOURCE, app.__dict__)
    return {"fake.lib": lib, "fake.app": app}


LAYERS = (
    ("fake.lib", "outer", "outer"),
    ("fake.lib", "inner", "linalg.subspace_dim"),
    ("fake.lib", "rec", "rec"),
)


def install(readings):
    modules = fake_modules()
    t = tracer.Tracer(clock=StepClock(readings))
    t.install(modules, layers=LAYERS, cached=())
    return t, modules


def test_self_time_is_duration_minus_direct_children():
    # outer [0, 10] holds inner [2, 5] and inner [6, 7].
    t, modules = install([0, 2, 5, 6, 7, 10])
    assert modules["fake.app"].main(4) == 3
    s = tracer.summarize(t.spans)
    assert s["outer"]["calls"] == 1
    assert s["outer"]["s"] == 10
    assert s["outer"]["self_s"] == 10 - 3 - 1
    assert s["linalg.subspace_dim"]["calls"] == 2
    assert s["linalg.subspace_dim"]["self_s"] == 4
    # rows in and rank out come from the arguments and the result.
    assert s["linalg.subspace_dim"]["attr"] == (5, 3)
    totals = tracer.layer_totals(t.spans, (0, 0))
    assert totals["linalg.rows_in"] == 5
    assert tracer.layer_metrics(totals)["linalg.rank_per_row"] == 3 / 5


def test_every_alias_is_rebound():
    t, modules = install(range(100))
    assert modules["fake.app"].outer is modules["fake.lib"].outer
    modules["fake.app"].main(2)
    assert [span[0] for span in t.spans] == ["outer", "linalg.subspace_dim", "linalg.subspace_dim"]
    assert [span[3] for span in t.spans] == [-1, 0, 0]


def test_recursion_is_counted_once_in_inclusive_time():
    # rec(2) [0, 9] > rec(1) [1, 8] > rec(0) [2, 3]
    t, modules = install([0, 1, 2, 3, 8, 9])
    modules["fake.lib"].rec(2)
    s = tracer.summarize(t.spans)
    assert s["rec"]["calls"] == 3
    assert s["rec"]["s"] == 9
    assert s["rec"]["self_s"] == 9


def test_a_raising_call_still_closes_its_span():
    t, modules = install([0, 4])
    with pytest.raises(ValueError):
        modules["fake.lib"].inner(None)
    assert t.spans == [("linalg.subspace_dim", 0, 4, -1, None)]


def test_traced_output_is_byte_identical(tmp_path):
    argv = ("br", "demos/instances/killed_axis.txt", "--r", "1")
    deadline = run.time.monotonic() + 120
    plain = run.spawn(argv, deadline)
    spans = tmp_path / "spans.json"
    traced = run.spawn(argv, deadline, spans)
    assert plain.code == traced.code == 0
    assert traced.stdout == plain.stdout
    totals = run.read_totals(spans)
    assert totals["multiplicity.table.cells"] > 0
    assert totals["cli.parse_instance.s"] > 0


def test_layer_metrics_are_the_per_layer_metrics_of_benchmark_json():
    names = set(tracer.layer_metrics(tracer.layer_totals([], (0, 0))))
    assert names | {"trace_overhead_s"} == set(run.PER_LAYER_UNITS)
    assert set(run.end_to_end([run.PassResult(wall=2.0, setups=[0.5], maxrss_kb=1024, outputs=[b''])])) == set(
        run.END_TO_END_UNITS
    )
