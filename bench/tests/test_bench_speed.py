import signal
import time

import pytest

import speed


def _sampler(samples):
    sampler = speed.Sampler({"text": (speed.text_kernel, 2.0), "step": (speed.text_kernel, 4.0)})
    sampler.samples = samples
    return sampler


def test_net_seconds_leaves_out_handler_time_clipped_to_the_interval():
    sampler = _sampler([(0.5, 1.5, {}), (3.0, 3.25, {}), (9.5, 10.5, {})])
    # Half of the first and last handler calls fall inside [1, 10].
    assert sampler.net_seconds(1.0, 10.0) == pytest.approx(9.0 - 0.5 - 0.25 - 0.5)
    assert sampler.net_seconds(4.0, 9.0) == pytest.approx(5.0)


def test_factor_averages_samples_within_the_window_over_nominal():
    w = speed.WINDOW_S
    sampler = _sampler([
        (1.0 - 2 * w, 0.0, {"text": 100.0}),  # outside the window
        (1.0 - w / 2, 0.0, {"text": 3.0, "step": 6.0}),
        (1.5, 0.0, {"text": 5.0, "step": 10.0}),
        (2.0 + w / 2, 0.0, {"text": 4.0}),
    ])
    assert sampler.factor("text", 1.0, 2.0) == pytest.approx(4.0 / 2.0)
    assert sampler.factor("step", 1.0, 2.0) == pytest.approx(8.0 / 4.0)
    with pytest.raises(ValueError):
        sampler.factor("step", 5.0, 6.0)


def test_sampler_samples_every_kernel_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler({"text": (speed.text_kernel, speed.TEXT_NOMINAL_S),
                             "step": (speed.step_kernel([2, 4, 2], 3, 1), 1e-4)})
    t0 = time.perf_counter()
    sampler.start()
    while time.perf_counter() - t0 < 10 * speed.INTERVAL_S:
        sum(range(1000))
    sampler.stop()
    end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3
    assert all(set(times) == {"text", "step"} for _, _, times in sampler.samples)
    assert sampler.factor("text", t0, end) > 0
    assert 0 < sampler.net_seconds(t0, end) < end - t0
