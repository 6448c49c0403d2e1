"""The traced run's bookkeeping: rebinding across module namespaces, self
time, and putting every name back.

    python3 -m pytest bench
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mpmath  # noqa: E402

import penner  # noqa: E402
from penner import catalog, core, spectral  # noqa: E402
from tracer import SETUP, Tracer  # noqa: E402


def test_spans_cover_calls_between_modules_and_names_are_restored():
    originals = (core.mat_mul, spectral.mat_mul, penner.char_poly_exact,
                 mpmath.polyroots)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = 7
        chi = spectral.char_poly_exact(((2, 1, 0), (1, 1, 0), (0, 0, 1)))
        spectral.pf_eigenvalue(chi, digits=20)
    finally:
        tracer.uninstall()
    assert (core.mat_mul, spectral.mat_mul, penner.char_poly_exact,
            mpmath.polyroots) == originals

    metrics = tracer.metrics({7: 1.0})
    assert metrics["spectral.char_poly_exact.calls"][0] == 1
    assert metrics["core.mat_mul.calls"][0] == 3  # one per coefficient
    assert metrics["ext.mpmath.polyroots.calls"][0] == 1
    assert metrics["spectral.pf_eigenvalue.ok_ratio"][0] == 1.0
    assert all(span[4] == 7 for span in tracer.spans)

    # Self times of a call tree add up to the duration of its root span.
    per_name = tracer.self_times({7: 1.0})
    roots = [end - start for _n, start, end, parent, _j in tracer.spans if parent < 0]
    total_self = sum(s for _calls, s in per_name.values())
    assert abs(total_self - sum(roots)) < 1e-9


def test_metrics_are_per_job_and_set_up_spans_count_only_for_catalog():
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.job == SETUP
        catalog.mr_matrix(3)
        spectral.char_poly_exact(((1, 1), (0, 1)))
        for job in (0, 1):
            tracer.job = job
            spectral.char_poly_exact(((2, 1, 0), (1, 1, 0), (0, 0, 1)))
    finally:
        tracer.uninstall()

    metrics = tracer.metrics({SETUP: 1.0, 0: 1.0, 1: 1.0})
    assert metrics["spectral.char_poly_exact.calls"] == (1.0, "count/job")
    assert metrics["core.mat_mul.calls"][0] == 3
    assert metrics["catalog.self_s"][0] > 0
    # Doubling the slowdown of every job halves its self times.
    slower = tracer.metrics({SETUP: 1.0, 0: 2.0, 1: 2.0})
    assert abs(2 * slower["spectral.char_poly_exact.self_s"][0]
               - metrics["spectral.char_poly_exact.self_s"][0]) < 1e-12
