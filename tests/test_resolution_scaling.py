"""Resolution cost of the streamed call chain grows about quadratically.

Counts ``SystemView.status`` queries — deterministic, unlike seconds on a
shared host — for the paper's Fig. 3 streamed chain at N = 50, 100 and 200
calls.  Every message carries a guard of O(N) guesses, so O(N²) queries is
the floor; a resolution that rescans all threads or the whole pool after
each event grows like N³ (×8 per doubling).
"""

from repro.core import OptimisticSystem, stream_plan
from repro.core.history import SystemView
from repro.sim.network import FixedLatency
from repro.workloads.generators import ChainSpec, chain_workload

SIZES = (50, 100, 200)
#: allowed growth of the query count per doubling of N
MAX_GROWTH = 4.5


def _status_calls(n_calls: int, monkeypatch) -> int:
    calls = 0
    status = SystemView.status

    def counted(self, guess):
        nonlocal calls
        calls += 1
        return status(self, guess)

    spec = ChainSpec(n_calls=n_calls, n_servers=2, latency=5.0,
                     service_time=1.0)
    client, servers = chain_workload(spec)
    system = OptimisticSystem(FixedLatency(spec.latency))
    system.add_program(client, stream_plan(client))
    for server in servers:
        system.add_program(server)
    with monkeypatch.context() as patch:
        patch.setattr(SystemView, "status", counted)
        result = system.run()
    assert result.unresolved == []
    assert result.stats.get("opt.commits") == n_calls - 1
    return calls


def test_status_queries_grow_at_most_quadratically(monkeypatch):
    counts = [_status_calls(n, monkeypatch) for n in SIZES]
    for small, large in zip(counts, counts[1:]):
        assert large <= MAX_GROWTH * small, counts


def test_status_queries_stay_bounded(monkeypatch):
    # ~12k at N=100; rescanning all threads and the pool per event asks ~800k.
    assert _status_calls(100, monkeypatch) < 30_000
