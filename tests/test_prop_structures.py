"""Property-based tests on the core data structures."""

from hypothesis import example, given, settings, strategies as st

from repro.core.cdg import CommitDependencyGraph
from repro.core.guards import GuardSet
from repro.core.guess import GuessId, IncarnationTable
from repro.core.history import GuessStatus, PeerView, SystemView
from repro.sim.events import EventQueue

guesses = st.builds(
    GuessId,
    process=st.sampled_from(["A", "B", "C"]),
    incarnation=st.integers(0, 3),
    index=st.integers(0, 8),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(guesses, max_size=12), st.lists(guesses, max_size=12))
def test_new_guards_is_exact_set_difference(mine, incoming):
    g = GuardSet(mine)
    assert g.new_guards(set(incoming)) == set(incoming) - set(mine)


@settings(max_examples=100, deadline=None)
@given(st.lists(guesses, max_size=12))
def test_guard_set_roundtrip_and_size(members):
    g = GuardSet(members)
    assert g.members() == set(members)
    assert g.tag_size() == len(set(members))
    assert set(g) == set(members)
    assert g.sorted_members() == sorted(set(members))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(guesses, guesses), max_size=20))
def test_cdg_cycle_detection_matches_networkx(edges):
    import networkx as nx

    cdg = CommitDependencyGraph()
    nxg = nx.DiGraph()
    for src, dst in edges:
        cdg.add_edge(src, dst)
        nxg.add_edge(src, dst)
    has_cycle_nx = not nx.is_directed_acyclic_graph(nxg)
    assert (cdg.find_any_cycle() is not None) == has_cycle_nx
    # per-node agreement
    for node in cdg.nodes():
        in_cycle_nx = any(
            node in c for c in nx.simple_cycles(nxg)
        )
        assert (cdg.cycle_through(node) is not None) == in_cycle_nx


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(guesses, guesses), max_size=20), guesses)
def test_cdg_descendants_is_reachability(edges, start):
    import networkx as nx

    cdg = CommitDependencyGraph()
    nxg = nx.DiGraph()
    for src, dst in edges:
        cdg.add_edge(src, dst)
        nxg.add_edge(src, dst)
    if not cdg.has_node(start):
        assert cdg.descendants(start) == set()
        return
    expected = set()
    for succ in nxg.successors(start):
        expected.add(succ)
        expected |= nx.descendants(nxg, succ)
    assert cdg.descendants(start) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 10)), max_size=8))
def test_incarnation_truncation_is_monotone(aborts):
    """Once implicitly aborted, learning more never resurrects a guess."""
    table = IncarnationTable()
    probe = GuessId("X", 0, 5)
    dead = False
    for inc, idx in aborts:
        table.learn_start(inc, idx)
        now_dead = table.implicitly_aborted(probe)
        if dead:
            assert now_dead
        dead = now_dead


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["commit", "abort"]),
                          st.integers(0, 6)), max_size=10))
def test_history_aborts_win_over_pending_never_flip_commits(events):
    """Explicit resolutions are stable under later unrelated updates."""
    view = PeerView("X")
    resolved = {}
    for kind, idx in events:
        g = GuessId("X", 0, idx)
        if idx in resolved:
            continue  # a real run never re-resolves the same guess
        if kind == "commit":
            view.note_commit(g)
        else:
            view.note_abort(g)
        resolved[idx] = kind
    for idx, kind in resolved.items():
        status = view.status(GuessId("X", 0, idx))
        if kind == "abort":
            assert status is GuessStatus.ABORTED
        else:
            # commit may be shadowed only by a *later-learned* abort of an
            # earlier index (incarnation truncation) — which a correct run
            # never produces; absent that, it stays committed.
            if not view.incarnations.implicitly_aborted(GuessId("X", 0, idx)):
                assert status is GuessStatus.COMMITTED


_guesses = st.builds(GuessId, st.sampled_from(["X", "Y"]),
                     st.integers(0, 2), st.integers(0, 4))
_view_ops = st.one_of(
    st.tuples(st.sampled_from(["watch", "commit", "abort", "unknown"]),
              _guesses),
    st.tuples(st.just("start"), st.sampled_from(["X", "Y"]),
              st.integers(1, 3), st.integers(0, 4)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_view_ops, max_size=30))
# a lowered start of incarnation 1 commits x_{1,1} under an earlier
# COMMIT(x_{1,3}): an update can commit guesses of its own incarnation
@example([("start", "X", 1, 3), ("commit", GuessId("X", 1, 3)),
          ("watch", GuessId("X", 1, 1)), ("start", "X", 1, 0)])
def test_watched_view_is_a_cache_of_the_peer_rules(ops):
    """The watched-guess cache answers exactly as PeerView.status's §4.1.5
    rules, and every update reports exactly the watched guesses it
    resolved — the index caches the one rule set, it adds none."""
    view = SystemView()
    rules = {p: PeerView(p) for p in ("X", "Y")}
    universe = [GuessId(p, i, n) for p in ("X", "Y")
                for i in range(4) for n in range(5)]
    watched = set()
    for op in ops:
        kind = op[0]
        if kind == "watch":
            g = op[1]
            assert view.watch(g) is rules[g.process].status(g)
            if not rules[g.process].status(g).resolved:
                watched.add(g)
            continue
        if kind == "start":
            _, process, inc, idx = op
            rules[process].incarnations.learn_start(inc, idx)
            reported = view.learn_start(process, inc, idx)
        else:
            g = op[1]
            getattr(rules[g.process], f"note_{kind}")(g)
            reported = getattr(view, f"note_{kind}")(g)
        newly = sorted(g for g in watched
                       if rules[g.process].status(g).resolved)
        assert reported == newly
        watched -= set(newly)
        for g in universe:
            assert view.status(g) is rules[g.process].status(g)
        assert {g for incs in view._watched.values()
                for bucket in incs.values() for g in bucket} == watched


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                          st.integers(-1, 1)), max_size=30))
def test_event_queue_pops_sorted(entries):
    q = EventQueue()
    for t, prio in entries:
        q.push(t, lambda: None, priority=prio)
    popped = []
    while True:
        ev = q.pop()
        if ev is None:
            break
        popped.append((ev.time, ev.priority, ev.seq))
    assert popped == sorted(popped)
