"""The benchmark's four workloads, generated from a seed.

Each workload is a list of :class:`Case` objects, one per system.  A case
knows how to build its optimistic system (the timed set-up) and the
``SequentialSystem`` reference over freshly built, identical programs (the
correctness oracle).  The seed only ever reaches the generated inputs:
request payloads, data values and CPU payload inputs.

Shapes that drive host cost (chain length, which guesses are wrong, the
fault schedules) are fixed per workload so that one seed costs about as
much as another; the seed varies the data flowing through them.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Tuple

from repro import (
    Compute,
    FixedLatency,
    OptimisticSystem,
    ProcessPoolBackend,
    SequentialSystem,
    make_call_chain,
    server_program,
    stream_plan,
)
from repro.bench.chaos import chaos_config, fault_schedule
from repro.obs.access import AccessTracker
from repro.workloads.generators import ChainSpec, chain_workload
from repro.workloads.random_duplex import (
    VALUE_DOMAIN,
    DuplexSpec,
    build_duplex_system,
)
from repro.workloads.random_programs import build_random_system

#: stream_chain: the paper's Fig. 3 call streaming at two chain lengths.
CHAIN_SIZES = (50, 100)
#: duplex_rollback: structural seeds of the four DuplexSpec systems.
DUPLEX_SHAPES = (0, 1, 2, 3)
DUPLEX_STEPS = 24
DUPLEX_SIGNALS = 8
DUPLEX_WRONG_BIAS = 2
#: chaos_zoo: how many of ``fault_schedule``'s schedules one pass runs.
CHAOS_SCHEDULES = 72
#: pool_cpu: chain length, pool size and per-call CPU payload.
POOL_CALLS = 40
POOL_WORKERS = 2
#: LCG rounds of one payload: about 20 ms of CPU on a 2.1 GHz core.
POOL_ROUNDS = 180_000


def draw(seed: int, *parts: Any) -> int:
    """Deterministic 64-bit draw from ``(seed, parts)``."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8],
                          "little")


@dataclass
class Case:
    """One system of a workload."""

    label: str
    #: problem size (calls or steps) — the x axis of ``scale.host_exponent``
    size: int
    #: builds programs, plans and the OptimisticSystem: the timed set-up
    build: Callable[[], OptimisticSystem]
    #: builds the SequentialSystem reference over identical programs
    build_reference: Callable[[], SequentialSystem]
    #: the generated inputs (specs, fault plans, tokens), comparable by ==
    inputs: Any = None
    #: servers whose cross-client consumption order is free choice
    free_interleaving: Tuple[str, ...] = ()
    #: compare committed traces (off where the repo's oracle is the sink)
    compare_traces: bool = True
    #: audit access sets against static effects (system has a tracker)
    certify: bool = False
    #: host cores the run keeps busy (the calibration runs on as many)
    cores: int = 1


# ------------------------------------------------------------ stream_chain

@dataclass
class SeededChainSpec(ChainSpec):
    """A ``ChainSpec`` whose request payloads carry a seeded token."""

    token: str = ""

    def calls(self) -> List[Tuple[str, str, Tuple[Any, ...]]]:
        names = self.server_names()
        return [(names[i % len(names)], "op", (f"req{self.token}.{i}",))
                for i in range(self.n_calls)]


def _chain_system(spec: ChainSpec, optimistic: bool):
    client, servers = chain_workload(spec)
    if optimistic:
        system = OptimisticSystem(FixedLatency(spec.latency))
        system.add_program(client, stream_plan(client))
    else:
        system = SequentialSystem(FixedLatency(spec.latency))
        system.add_program(client)
    for server in servers:
        system.add_program(server)
    return system


def stream_chain(seed: int) -> List[Case]:
    token = f"{draw(seed, 'chain') % 10**6:06d}"
    cases = []
    for n in CHAIN_SIZES:
        spec = SeededChainSpec(n_calls=n, n_servers=2, latency=5.0,
                               service_time=1.0, seed=seed, token=token)
        cases.append(Case(
            label=f"chain{n}", size=n,
            build=partial(_chain_system, spec, True),
            build_reference=partial(_chain_system, spec, False),
            inputs=spec))
    return cases


# --------------------------------------------------------- duplex_rollback

@dataclass
class SeededDuplexSpec(DuplexSpec):
    """A ``DuplexSpec`` whose data values come from ``value_seed``.

    ``seed`` keeps fixing the shape (signal steps, server choice, which
    guesses are wrong); signal payloads and server replies are drawn from
    ``value_seed``.
    """

    value_seed: int = 0

    def signal_value(self, idx: int) -> int:
        return draw(self.value_seed, "sigval", idx) % VALUE_DOMAIN

    def server_reply(self, server: str, args: Tuple) -> int:
        return draw(self.value_seed, "reply", server, args) % VALUE_DOMAIN


def duplex_rollback(seed: int) -> List[Case]:
    cases = []
    for shape in DUPLEX_SHAPES:
        spec = SeededDuplexSpec(
            n_steps=DUPLEX_STEPS, n_signals=DUPLEX_SIGNALS,
            wrong_guess_bias=DUPLEX_WRONG_BIAS, seed=shape,
            value_seed=draw(seed, "duplex", shape))
        cases.append(Case(
            label=f"duplex{shape}", size=DUPLEX_STEPS,
            build=partial(build_duplex_system, spec, True),
            build_reference=partial(build_duplex_system, spec, False),
            inputs=spec, free_interleaving=tuple(spec.server_names())))
    return cases


# --------------------------------------------------------------- chaos_zoo

def chaos_zoo(seed: int) -> List[Case]:
    """The chaos harness's own schedules ``fault_schedule(k)``, k < 72.

    The seed does not reach them.  Re-seeding their fault draws moved
    ``run_s`` by 19% and ``virtual_speedup`` by 9% (IQR/median over five
    seeds): input variance beyond the bounds, which would hide the change
    a later PR makes.
    """
    cases = []
    for k in range(CHAOS_SCHEDULES):
        spec, plan = fault_schedule(k)
        cases.append(Case(
            label=f"chaos{k}", size=spec.n_segments,
            build=partial(_chaos_system, spec, plan),
            build_reference=partial(build_random_system, spec, False),
            inputs=(spec, plan), compare_traces=False, certify=True))
    return cases


def _chaos_system(spec, plan) -> OptimisticSystem:
    return build_random_system(spec, optimistic=True, config=chaos_config(),
                               faults=plan, access=AccessTracker())


# ---------------------------------------------------------------- pool_cpu

def burn(rounds: int, x: int, ctx: Any = None) -> int:
    """CPU-bound, effect-free payload: ``rounds`` steps of an LCG.

    Module-level so ``ProcessPoolBackend`` can pickle ``partial(burn, ...)``.
    A worker forked while the driver traces allocations inherits the
    tracing; it stops it, because the memory pass measures the driver.
    """
    if tracemalloc.is_tracing():
        tracemalloc.stop()
    for _ in range(rounds):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return x


def _cpu_server(name: str) -> Any:
    def handler(state: Dict[str, Any], req: Any):
        x0 = draw(0, name, req.args) & 0xFFFFFFFF
        yield Compute(1.0, work=partial(burn, POOL_ROUNDS, x0))
        state.setdefault("served", []).append(tuple(req.args))
        return True

    return server_program(name, handler)


def _pool_system(token: str, optimistic: bool):
    calls = [(f"S{i % 2}", "op", (f"req{token}.{i}",))
             for i in range(POOL_CALLS)]
    client = make_call_chain("client", calls)
    if optimistic:
        system = OptimisticSystem(FixedLatency(5.0),
                                  backend=ProcessPoolBackend(POOL_WORKERS))
        system.add_program(client, stream_plan(client))
    else:
        system = SequentialSystem(FixedLatency(5.0))
        system.add_program(client)
    for name in ("S0", "S1"):
        system.add_program(_cpu_server(name))
    return system


def pool_cpu(seed: int) -> List[Case]:
    token = f"{draw(seed, 'pool') % 10**6:06d}"
    return [Case(label=f"pool{POOL_CALLS}", size=POOL_CALLS,
                 build=partial(_pool_system, token, True),
                 build_reference=partial(_pool_system, token, False),
                 inputs=token, cores=POOL_WORKERS)]


#: name -> case generator, in BENCHMARK.json order
WORKLOADS: Dict[str, Callable[[int], List[Case]]] = {
    "stream_chain": stream_chain,
    "duplex_rollback": duplex_rollback,
    "chaos_zoo": chaos_zoo,
    "pool_cpu": pool_cpu,
}

#: workloads whose cases are one shape at two sizes (scale.host_exponent)
SIZE_LADDERS = ("stream_chain",)
