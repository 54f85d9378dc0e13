import time
from types import SimpleNamespace

import meter


def test_metered_time_is_cpu_time_scaled_by_the_meter_speed():
    m = meter.Meter()
    # 40 units, one every 0.1 s of meter CPU time: 10 units per CPU second.
    m.cpu.extend(0.1 * k for k in range(40))
    m.stamps.extend(100.0 + 0.5 * k for k in range(40))
    assert abs(m.speed(110.0, 115.0) - 10.0) < 1e-9
    child = SimpleNamespace(start=110.0, end=115.0, cpu=4.0, cpu_setup=0.5)
    wall, setup = m.read(child)
    scale = 10.0 / meter.REFERENCE_RATE
    assert abs(wall - 4.0 * scale) < 1e-12
    assert abs(setup - 0.5 * scale) < 1e-12


def test_speed_takes_at_least_min_units_for_a_short_interval():
    m = meter.Meter()
    # Slow units first, then fast ones: a short interval at the end
    # still reaches back over MIN_UNITS units.
    cpu = [0.0]
    for k in range(1, 60):
        cpu.append(cpu[-1] + (0.2 if k < 30 else 0.1))
    m.cpu.extend(cpu)
    m.stamps.extend(float(k) for k in range(60))
    speed = m.speed(58.5, 59.5)
    assert abs(speed - 10.0) < 1e-9


def test_meter_runs_only_between_enter_and_exit():
    with meter.Meter() as m:
        assert len(m.stamps) >= meter.MIN_UNITS
        start = time.monotonic()
        time.sleep(0.05)
        end = time.monotonic()
        assert m.speed(start, end) > 0
    finished = len(m.stamps)
    assert not m._thread.is_alive()
    assert len(m.cpu) == finished
    time.sleep(0.02)
    assert len(m.stamps) == finished
