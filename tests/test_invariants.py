"""Post-run invariant validation over the standard scenarios."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import OptimisticSystem, make_call_chain, stream_plan
from repro.core.invariants import validate_run
from repro.csp.process import server_program
from repro.sim.network import FixedLatency
from repro.workloads.generators import ChainSpec, chain_workload


def run_system(spec: ChainSpec) -> OptimisticSystem:
    client, servers = chain_workload(spec)
    system = OptimisticSystem(FixedLatency(spec.latency))
    system.add_program(client, stream_plan(client))
    for s in servers:
        system.add_program(s)
    system.run()
    return system


def test_fault_free_run_satisfies_all_invariants():
    system = run_system(ChainSpec(n_calls=8, n_servers=2, latency=5.0,
                                  service_time=0.5))
    assert validate_run(system) == ["I1", "I2", "I3", "I4", "I5", "I6",
                                    "I7", "I8"]


def test_faulty_runs_satisfy_all_invariants():
    for p_fail, seed in [(0.3, 2), (0.6, 5), (1.0, 1)]:
        system = run_system(ChainSpec(n_calls=8, n_servers=2, latency=5.0,
                                      service_time=0.5, p_fail=p_fail,
                                      seed=seed))
        validate_run(system)


def test_i4_flags_consumable_envelope_left_in_pool():
    """A non-orphan envelope beside a thread blocked at a matching receive
    is one dispatch failed to deliver: I4 must name it."""
    from repro.core.messages import DataEnvelope
    from repro.csp.payloads import OneWay
    from repro.errors import ProtocolError

    system = run_system(ChainSpec(n_calls=3, n_servers=1, latency=2.0,
                                  service_time=0.5))
    validate_run(system)
    server = system.runtimes["S0"]
    assert any(t.waiting_receive is not None
               for t in server.threads.values())
    server.pool.append(DataEnvelope(
        src="client", dst="S0", payload=OneWay(op="call", args=(99,)),
        guard=frozenset()))
    with pytest.raises(ProtocolError, match="I4: S0 pool holds envelope"):
        validate_run(system)


def test_fig7_requires_allow_unresolved():
    from repro.csp.plan import ForkSpec, ParallelizationPlan
    from repro.csp.effects import Receive, Send, Call
    from repro.csp.process import Program, Segment

    def s1(state):
        req = yield Receive()
        state["v"] = req.args[0]

    def x_s2(state):
        yield Call("W", "log", (state["v"],))
        yield Send("Z", "M2", (state["v"],))

    def z_s2(state):
        yield Call("Y", "log", (state["v"],))
        yield Send("X", "M1", (state["v"],))

    system = OptimisticSystem(FixedLatency(3.0))
    system.add_program(
        Program("X", [Segment("s1", s1, exports=("v",)),
                      Segment("s2", x_s2)]),
        ParallelizationPlan().add("s1", ForkSpec(predictor={"v": 7})))
    system.add_program(
        Program("Z", [Segment("s1", s1, exports=("v",)),
                      Segment("s2", z_s2)]),
        ParallelizationPlan().add("s1", ForkSpec(predictor={"v": 7})))
    system.add_program(server_program("W", lambda s, r: True))
    system.add_program(server_program("Y", lambda s, r: True))
    system.run(until=300.0)
    # after the mutual abort, the re-executed S1s block forever: the run
    # quiesces with deliberately-unresolved state
    validate_run(system, allow_unresolved=True)


@settings(max_examples=25, deadline=None)
@given(
    n_calls=st.integers(1, 7),
    n_servers=st.integers(1, 3),
    latency=st.floats(0.5, 10.0),
    p_fail=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 5000),
)
def test_invariants_hold_across_workload_space(n_calls, n_servers, latency,
                                               p_fail, seed):
    system = run_system(ChainSpec(n_calls=n_calls, n_servers=n_servers,
                                  latency=latency, service_time=0.5,
                                  p_fail=p_fail, seed=seed))
    validate_run(system)
