"""§6.3 — state counts under no-opt / POR / atomic / both on the
Gao-Hesselink algorithm (SPIN replaced by our checker)."""

from repro.experiments import section63

N_THREADS = 3
MAX_STATES = 2_000_000


def test_section63(benchmark, report_sink):
    result = benchmark.pedantic(
        section63.run, kwargs=dict(n_threads=N_THREADS,
                                   max_states=MAX_STATES),
        rounds=1, iterations=1)
    assert result.matches_paper
    report_sink("section63", section63.main(N_THREADS, MAX_STATES))
