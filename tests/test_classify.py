import hashlib
import importlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from charideals import (BlowupSpec, CrossCheckResult, InvariantFactors, adjacency_matrix,
                        algebraic_corank, blowup, canonical_form, classify, cross_check,
                        intlinalg, invariant_factors_from_deltas, delta_sequence, is_C_leq,
                        is_K_leq_regular, is_S_leq, laplacian_matrix, lookup,
                        parse_graph6, snf_diagonal)
from charideals.catalog import (FAMILY_F, FORBIDDEN_S4, complete_graph,
                                complete_multipartite_graph, cycle_graph, path_graph,
                                star_graph)
from charideals.classify import (RouteDisagreement, _s4_partial,
                                 complete_multipartite_parts, imap_workers)
from charideals import mining
from charideals.graphs import Graph
from charideals.mining import enumerate_connected

import oracles

REPO = Path(__file__).resolve().parent.parent


def test_classify_rejects_disconnected_and_empty():
    with pytest.raises(ValueError):
        classify(Graph(2))
    with pytest.raises(ValueError):
        classify(Graph(0))


def test_c5_report():
    rep = classify(cycle_graph(5))
    assert rep.memberships["C<=3"] and not rep.memberships["C<=2"]
    assert rep.memberships["K<=3"] and not rep.memberships["K<=2"]
    assert rep.corank == 3
    assert rep.phi_laplacian is not None


def test_regular_tripartite_in_k2():
    g = complete_multipartite_graph((2, 2, 2))
    rep = classify(g)
    assert rep.memberships["K<=2"]
    lap = snf_diagonal(laplacian_matrix(g))
    assert lap.factors[2] != 1


def test_paw_not_in_s3():
    rep = classify(lookup("paw"))
    assert not rep.memberships["S<=3"]
    assert rep.phi_adjacency == 4


def test_k4_s_memberships():
    member2, _ = is_S_leq(complete_graph(4), 2)
    member3, _ = is_S_leq(complete_graph(4), 3)
    assert not member2 and member3


def test_k123_in_s2():
    member, cert = is_S_leq(complete_multipartite_graph((1, 2, 3)), 2)
    assert member
    assert cert["form"] == "complete-multipartite"


def test_k1_in_s1():
    member, cert = is_S_leq(complete_graph(1), 1)
    assert member and cert["form"] == "K1"
    assert not is_S_leq(complete_graph(2), 1)[0]


def test_k5_minus_e_not_in_c2():
    member, cert = is_C_leq(lookup("k5-e"), 2)
    assert not member
    assert cert["forbidden"] == "k5-e"


def test_prism_in_c3():
    member, cert = is_C_leq(lookup("prism"), 3)
    assert member


def test_mixed_sign_star_blowup_is_outside_c3():
    # A star blow-up with a stable apex pair is NOT covered by the structural
    # theorem (which requires all-clique classes): the stable pair joined to
    # K_2 + 2K_1 is exactly one of the 14 obstructions, so the co-rank is 4.
    g = blowup(BlowupSpec(star_graph(4), (2, 1, -2, -2)))
    member, cert = is_C_leq(g, 3)
    assert not member
    assert algebraic_corank(g) == 4
    assert cert["forbidden"] == "co-diamond-k2"
    # with every class a clique, membership holds as the theorem states
    g = blowup(BlowupSpec(star_graph(4), (-2, -1, -2, -2)))
    member, _ = is_C_leq(g, 3)
    assert member
    assert algebraic_corank(g) <= 3


def test_all_clique_star_blowups_in_c3():
    rng = random.Random(11)
    for _ in range(20):
        r = tuple(rng.choice((-1, -2, -3)) for _ in range(4))
        assert is_C_leq(blowup(BlowupSpec(star_graph(4), r)), 3)[0]
        assert is_C_leq(blowup(BlowupSpec(cycle_graph(4), r)), 3)[0]


def test_petersen_not_in_k3():
    pet = lookup("petersen")
    member, _ = is_K_leq_regular(pet, 3)
    assert not member
    assert snf_diagonal(laplacian_matrix(pet)).ones >= 4
    # independent delta route on the Laplacian
    assert invariant_factors_from_deltas(delta_sequence(laplacian_matrix(pet))).ones >= 4


def test_cycle_blowups_in_k3():
    for r in (1, 2, 3):
        g = blowup(BlowupSpec(cycle_graph(4), (-r,) * 4))
        assert is_K_leq_regular(g, 3)[0]


def test_k6_in_k1():
    member, cert = is_K_leq_regular(complete_graph(6), 1)
    assert member and cert["form"] == "complete"


def test_k_routes_reject_irregular():
    with pytest.raises(ValueError):
        is_K_leq_regular(path_graph(3), 2)


def test_k_closed_list_members():
    assert is_K_leq_regular(complete_multipartite_graph((3, 3)), 2)[0]
    assert is_K_leq_regular(complete_multipartite_graph((3, 3, 3)), 2)[0]
    assert not is_K_leq_regular(cycle_graph(5), 2)[0]
    assert is_K_leq_regular(lookup("prism"), 3)[0]
    assert is_K_leq_regular(complete_multipartite_graph((2, 2, 2, 2)), 3)[0]
    assert not is_K_leq_regular(cycle_graph(6), 3)[0]


def test_invalid_k_values():
    with pytest.raises(ValueError):
        is_S_leq(complete_graph(2), 4)
    with pytest.raises(ValueError):
        is_C_leq(complete_graph(2), 0)
    with pytest.raises(ValueError):
        is_K_leq_regular(complete_graph(2), 5)


def test_complete_multipartite_recognition():
    assert complete_multipartite_parts(complete_multipartite_graph((3, 2, 1))) == (3, 2, 1)
    assert complete_multipartite_parts(complete_graph(4)) == (1, 1, 1, 1)
    assert complete_multipartite_parts(path_graph(4)) is None
    assert complete_multipartite_parts(cycle_graph(4)) == (2, 2)


def test_complete_multipartite_parts_match_the_complement_route():
    rng = random.Random(151)
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    graphs += [oracles.random_graph(rng, n, p) for n in range(12) for p in (0.3, 0.6, 0.9)
               for _ in range(20)]
    graphs += [blowup(BlowupSpec(complete_graph(m), [rng.randint(1, 4) for _ in range(m)]))
               for m in range(1, 7) for _ in range(20)]
    found = 0
    for g in graphs:
        parts = complete_multipartite_parts(g)
        assert parts == oracles.complete_multipartite_parts(g), g
        found += parts is not None
    assert found > 150 and any(not g.is_connected() for g in graphs)


def test_s4_screen_finds_witness():
    # K_6 has phi = 5 and is itself one of the 43 minimal graphs
    rep = classify(complete_graph(6))
    assert not rep.memberships["S<=4"]
    assert "forbidden" in rep.certificates["S<=4"]
    assert rep.certificates["S<=4"]["route"] == "partial"


def test_report_json_shape():
    rep = classify(lookup("diamond"))
    d = rep.to_json_dict()
    assert d["graph6"] == canonical_form(lookup("diamond"))
    assert list(d) == ["graph6", "phi_adjacency", "phi_laplacian", "corank",
                       "memberships", "certificates"]
    import json
    json.dumps(d)


def test_report_json_dicts_are_fresh_copies():
    # the JSON dict of a record may be edited without editing the record
    rep = classify(lookup("diamond"))
    memberships, certificates = dict(rep.memberships), dict(rep.certificates)
    d = rep.to_json_dict()
    d["memberships"]["S<=1"] = "edited"
    d["certificates"].clear()
    assert rep.memberships == memberships and rep.certificates == certificates
    res = CrossCheckResult(2, 2, {"S<=1": 1}, [{"graph6": "A_", "detail": "synthetic"}])
    d = res.to_json_dict()
    assert list(d) == ["max_n", "graphs_checked", "family_counts", "violations"]
    d["family_counts"]["S<=1"] = 5
    d["violations"].clear()
    assert res == (2, 2, {"S<=1": 1}, [{"graph6": "A_", "detail": "synthetic"}])


def test_cross_check_n1():
    res = cross_check(1)
    assert res.graphs_checked == 1
    assert not res.violations
    assert all(res.family_counts[f] == 1 for f in res.family_counts)


def test_cross_check_rejects_max_n_below_1():
    # a run over no graphs would report graphs_checked 0 as a pass
    for max_n in (0, -1):
        with pytest.raises(ValueError, match="max_n >= 1"):
            cross_check(max_n)


def test_cross_check_rejects_a_non_integer():
    # 3.5 once classified the graphs on at most 4 vertices and reported 3.5
    with pytest.raises(ValueError, match=r"^not an integer: 3\.5$"):
        cross_check(3.5)
    assert cross_check(3.0).max_n == 3


def test_cross_check_parallel_matches_sequential(monkeypatch):
    seq = cross_check(4)
    monkeypatch.setenv("GRAPHTOOL_THREADS", "2")
    par = cross_check(4)
    assert seq.family_counts == par.family_counts
    assert seq.graphs_checked == par.graphs_checked == 10
    assert not par.violations


def test_cross_check_classifies_while_it_walks(monkeypatch):
    # one worker: K_1 is classified before any child on 6 vertices is
    # labelled, where building every level first labelled all of them
    classify_mod = importlib.import_module("charideals.classify")
    real_classify, real_label = classify_mod.classify, mining._label
    events = []
    monkeypatch.setattr(classify_mod, "classify",
                        lambda g: events.append("classify") or real_classify(g))
    monkeypatch.setattr(mining, "_label", lambda adj: events.append(len(adj)) or real_label(adj))
    res = cross_check(6)
    assert res.graphs_checked == events.count("classify") == 143
    assert events.index("classify") < events.index(6)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cross_check_reports_violations_in_level_order(monkeypatch, threads):
    # the walk meets the graphs on 4 and 5 vertices interleaved; the
    # violations come sorted by (size, graph6), as the levels gave them
    classify_mod = importlib.import_module("charideals.classify")
    real = classify_mod._check_line
    failing = set(mining._level(4) + mining._level(5))
    assert [s for s in mining._walk(5) if s in failing] != sorted(failing)
    monkeypatch.setattr(classify_mod, "_check_line",
                        lambda g6: (g6, None, "injected") if g6 in failing else real(g6))
    monkeypatch.setenv("GRAPHTOOL_THREADS", threads)
    res = cross_check(5)
    assert res.graphs_checked == 31
    assert res.violations == [{"graph6": s, "detail": "injected"} for s in sorted(failing)]
    assert res.family_counts == cross_check(3).family_counts


_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
_FORK = os.fork


def _recorded_forks(monkeypatch):
    """The pids of the children os.fork makes from here on.  A fork past one
    per usable CPU raises in the parent instead of forking."""
    pids = []

    def fork():
        if len(pids) == len(_CPUS):
            raise AssertionError(f"a fork past the {len(_CPUS)} usable CPUs")
        pid = _FORK()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _forks_for(threads):
    """How many workers GRAPHTOOL_THREADS=threads forks here: one per CPU
    up to the usable ones, and none for a single one."""
    workers = min(threads, len(_CPUS))
    return workers if workers > 1 else 0


_TWO_CPUS = pytest.mark.skipif(len(_CPUS) < 2, reason="needs os.sched_setaffinity and "
                                                      "2 usable CPUs to fork workers")


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _uneven(x):
    # items cost from nothing to a few ms, so workers finish out of order
    return x, sum(range((x * 7919) % 13 * 20000))


@pytest.mark.parametrize("threads", [1, 2, 5])  # 5: usually more than the usable CPUs
@pytest.mark.parametrize("chunksize", [1, 16])
def test_imap_workers_matches_map(monkeypatch, threads, chunksize):
    monkeypatch.setenv("GRAPHTOOL_THREADS", str(threads))
    forks = _recorded_forks(monkeypatch)
    items = list(range(53))
    assert list(imap_workers(_uneven, items, chunksize)) == list(map(_uneven, items))
    assert len(forks) == _forks_for(threads)
    assert all(_reaped(pid) for pid in forks)


def _fails_on_21(x):
    if x == 21:
        raise KeyError(f"no item {x}")
    return x


@pytest.mark.parametrize("chunksize", [1, 16])
def test_imap_workers_raises_what_fn_raises(monkeypatch, chunksize):
    monkeypatch.setenv("GRAPHTOOL_THREADS", "2")
    forks = _recorded_forks(monkeypatch)
    with pytest.raises(KeyError, match="no item 21"):
        list(imap_workers(_fails_on_21, range(40), chunksize))
    assert len(forks) == _forks_for(2) and all(_reaped(pid) for pid in forks)


def _disagrees(x):
    raise RouteDisagreement("C^", "S<=1", {"count": x})


@_TWO_CPUS
def test_imap_workers_names_an_exception_it_cannot_rebuild(monkeypatch):
    # RouteDisagreement needs three arguments, so unpickling it would fail
    monkeypatch.setenv("GRAPHTOOL_THREADS", "2")
    with pytest.raises(RuntimeError, match="^RouteDisagreement: routes disagree on S<=1 "
                                           "for C\\^: count=3$"):
        list(imap_workers(_disagrees, [3]))


def test_imap_workers_closed_early_reaps_its_workers(monkeypatch):
    monkeypatch.setenv("GRAPHTOOL_THREADS", "2")
    forks = _recorded_forks(monkeypatch)
    results = imap_workers(_uneven, iter(range(10**9)))
    assert next(results) == _uneven(0)
    results.close()
    assert len(forks) == _forks_for(2) and all(_reaped(pid) for pid in forks)


def _ten_items_then_raise():
    yield from range(10)
    raise LookupError("no item 10")


@pytest.mark.parametrize("chunksize", [1, 5])
def test_imap_workers_raises_what_items_raise(monkeypatch, chunksize):
    # in its place: after the results of every item read before it
    monkeypatch.setenv("GRAPHTOOL_THREADS", "2")
    forks = _recorded_forks(monkeypatch)
    seen = []
    with pytest.raises(LookupError, match="no item 10"):
        seen.extend(imap_workers(_uneven, _ten_items_then_raise(), chunksize))
    assert seen == list(map(_uneven, range(10)))
    assert len(forks) == _forks_for(2) and all(_reaped(pid) for pid in forks)


def _where(x):
    # a few ms each, so every worker asks for an item before they run out
    time.sleep(0.005)
    return os.getpid(), tuple(sorted(os.sched_getaffinity(0)))


def _slow_on_the_first_cpu(x):
    cpus = tuple(os.sched_getaffinity(0))
    time.sleep(0.02 if cpus == tuple(_CPUS[:1]) else 0.001)
    return cpus


@_TWO_CPUS
def test_imap_workers_deal_fewer_batches_to_a_slower_worker(monkeypatch):
    # each batch goes to the worker that asks next, so the worker on the
    # first CPU, 20 times slower, answers fewer; dealt in turn, they tie
    monkeypatch.setenv("GRAPHTOOL_THREADS", "2")
    answered = Counter(imap_workers(_slow_on_the_first_cpu, range(60)))
    assert sum(answered.values()) == 60
    assert answered[(_CPUS[1],)] > answered[(_CPUS[0],)]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _open_fds_within(limit):
    # the feeder thread closes its pipe ends as it ends, just after the parent
    deadline = time.monotonic() + 10
    while _open_fds() > limit and time.monotonic() < deadline:
        time.sleep(0.01)
    return _open_fds()


def _closed_early(fn, items):
    results = imap_workers(fn, items)
    next(results)
    results.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("run", [
    lambda: list(imap_workers(_uneven, range(53))),
    lambda: _closed_early(_uneven, iter(range(10**9))),
    lambda: pytest.raises(KeyError, list, imap_workers(_fails_on_21, range(40))),
    lambda: pytest.raises(LookupError, list, imap_workers(_uneven, _ten_items_then_raise())),
], ids=["full-run", "closed-early", "fn-raises", "items-raise"])
def test_imap_workers_leaves_no_pipe_open(monkeypatch, run):
    monkeypatch.setenv("GRAPHTOOL_THREADS", "2")
    before = _open_fds()
    run()
    assert _open_fds_within(before) <= before


@_TWO_CPUS
@pytest.mark.parametrize("threads", [2, len(_CPUS) + 1])  # then more than the usable CPUs
def test_imap_workers_pins_each_worker_to_one_cpu(monkeypatch, threads):
    # worker i runs on the i-th usable CPU alone; the parent stays unpinned
    monkeypatch.setenv("GRAPHTOOL_THREADS", str(threads))
    forks = _recorded_forks(monkeypatch)
    before = os.sched_getaffinity(0)
    where = dict(imap_workers(_where, range(8 * threads)))
    assert sorted(where) == sorted(forks)
    assert sorted(where.values()) == [(cpu,) for cpu in _CPUS[:threads]]
    assert os.sched_getaffinity(0) == before
    forks = _recorded_forks(monkeypatch)
    results = imap_workers(_where, iter(range(10**9)))
    assert len(next(results)[1]) == 1
    results.close()
    assert len(forks) == _forks_for(threads)
    assert os.sched_getaffinity(0) == before


@_TWO_CPUS
def test_workers_are_capped_at_the_usable_cpus(monkeypatch):
    # the library follows GRAPHTOOL_THREADS as the CLI does, one worker per
    # usable CPU at most; a fork past them raises in _recorded_forks
    classify_mod = importlib.import_module("charideals.classify")
    monkeypatch.setenv("GRAPHTOOL_THREADS", "1000000")
    before = os.sched_getaffinity(0)
    forks = _recorded_forks(monkeypatch)
    where = dict(imap_workers(_where, range(8 * len(_CPUS))))
    assert sorted(where) == sorted(forks)
    assert sorted(where.values()) == [(cpu,) for cpu in _CPUS]
    assert os.sched_getaffinity(0) == before
    # each graph reports where it was checked, as a violation
    forks = _recorded_forks(monkeypatch)
    monkeypatch.setattr(classify_mod, "_check_line",
                        lambda g6: (g6, None, json.dumps(_where(g6))))
    res = cross_check(4)
    assert res.graphs_checked == len(res.violations) == 10
    where = {pid: tuple(cpus) for pid, cpus in (json.loads(v["detail"]) for v in res.violations)}
    assert len(forks) == len(_CPUS) and set(where) <= set(forks)
    assert all(len(cpus) == 1 and cpus[0] in _CPUS for cpus in where.values())
    assert os.sched_getaffinity(0) == before


@pytest.mark.skipif(not _CPUS, reason="needs os.sched_setaffinity")
def test_imap_workers_runs_unpinned_where_pinning_fails(monkeypatch):
    def refuse(pid, cpus):
        raise OSError(22, "Invalid argument")
    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    monkeypatch.setenv("GRAPHTOOL_THREADS", "2")
    assert {cpus for _, cpus in imap_workers(_where, range(8))} == {tuple(_CPUS)}


_DEAD_WORKER = """
import os
from charideals.classify import imap_workers

def fn(x):
    if {dies}:
        os._exit(7)
    return x

{setup}
try:
    list(imap_workers(fn, range(40)))
except ChildProcessError as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
    print("a worker is left")
except ChildProcessError:
    print("no worker left")
"""


def _run_dying_workers(dies, setup=""):
    """Check what the _DEAD_WORKER script prints with two workers, each
    exiting with code 7 on an item x for which `dies` holds, after `setup`."""
    env = dict(os.environ, GRAPHTOOL_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    script = _DEAD_WORKER.format(dies=dies, setup=setup)
    with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("imap_workers hung on a dead worker")
    assert proc.returncode == 0, err
    assert err == ""
    died, left = out.splitlines()
    assert died.startswith("worker process ") and died.endswith(
        " exited with code 7 before returning its results")
    assert left == "no worker left"


@_TWO_CPUS
def test_imap_workers_raises_when_a_worker_dies():
    _run_dying_workers("x == 5")


@_TWO_CPUS
@pytest.mark.parametrize("setup", [
    "",
    # a worker pins itself first: this one exits before it asks for a batch,
    # so the request pipe ends with none asked for
    "os.sched_setaffinity = lambda pid, cpus: os._exit(7)",
], ids=["on-its-first-item", "before-it-asks"])
def test_imap_workers_raises_when_every_worker_dies(setup):
    _run_dying_workers("True", setup)


def test_cross_check_reports_unexpected_exception(monkeypatch):
    # the package's `classify` attribute is the function, not the module
    classify_mod = importlib.import_module("charideals.classify")
    baseline = cross_check(3)
    target = canonical_form(complete_graph(2))
    real = classify_mod.classify

    def flaky(g):
        if canonical_form(g) == target:
            raise RuntimeError("boom")
        return real(g)

    monkeypatch.setattr(classify_mod, "classify", flaky)
    res = cross_check(3)
    assert res.graphs_checked == baseline.graphs_checked == 4
    assert res.violations == [{"graph6": target, "detail": "RuntimeError: boom"}]
    lost = real(complete_graph(2)).memberships
    assert res.family_counts == {f: c - lost[f] for f, c in baseline.family_counts.items()}


def test_cross_check_n5():
    res = cross_check(5)
    assert res.graphs_checked == 31
    assert not res.violations
    assert res.family_counts["S<=1"] == 1
    assert res.family_counts["C<=1"] == 5  # K_1 .. K_5


def test_hereditary_closure_sampled():
    rng = random.Random(91)
    fams = [("S<=2", lambda g: is_S_leq(g, 2)[0]), ("C<=2", lambda g: is_C_leq(g, 2)[0]),
            ("S<=3", lambda g: is_S_leq(g, 3)[0]), ("C<=3", lambda g: is_C_leq(g, 3)[0])]
    for _ in range(60):
        g = oracles.random_connected_graph(rng, rng.randint(2, 6))
        results = {name: fn(g) for name, fn in fams}
        keep = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        h = g.subgraph(keep)
        if not h.is_connected():
            continue
        for name, fn in fams:
            if results[name]:
                assert fn(h), (name, canonical_form(g), keep)


def test_blowup_stability_of_s4():
    # stable-set blow-ups preserve nonzero adjacency invariant factors,
    # hence membership
    rng = random.Random(93)
    cases = 0
    while cases < 60:
        g = oracles.random_connected_graph(rng, rng.randint(2, 5))
        phi = snf_diagonal(adjacency_matrix(g)).ones
        if phi > 4:
            continue
        d = tuple(rng.randint(1, 3) for _ in range(g.n))
        if sum(d) > 10:
            continue
        big = blowup(BlowupSpec(g, d))
        small_nz = [v for v in snf_diagonal(adjacency_matrix(g)) if v]
        big_snf = snf_diagonal(adjacency_matrix(big))
        big_nz = [v for v in big_snf if v]
        assert small_nz == big_nz
        assert big_snf.ones <= 4
        cases += 1


_ONE_UNIT = InvariantFactors((1, 0, 0))
_FOUR_UNITS = InvariantFactors((1, 1, 1, 1, 0))


@pytest.mark.parametrize("graph, attr, fake, check, message, routes", [
    ("fork", "algebraic_corank", lambda g: 3, lambda g: is_C_leq(g, 3),
     "routes disagree on C<=3 for DC[: count=True, forbidden-free=False, structural=False",
     {"count": True, "forbidden-free": False, "structural": False}),
    ("p3", "snf_diagonal", lambda m: _ONE_UNIT, lambda g: is_S_leq(g, 1),
     "routes disagree on S<=1 for BW: count=True, forbidden-free=False, structural=False",
     {"count": True, "forbidden-free": False, "structural": False}),
    # the Laplacian is the matrix with a nonzero diagonal
    ("c5", "snf_diagonal", lambda m: _FOUR_UNITS if m[0][0] else snf_diagonal(m),
     lambda g: is_K_leq_regular(g, 3),
     "routes disagree on K<=3 for DqK: count=False, structural=True",
     {"count": False, "structural": True}),
])
def test_route_disagreement_names_graph_family_and_routes(graph, attr, fake, check,
                                                         message, routes, monkeypatch):
    # the package's `classify` attribute is the function, not the module
    monkeypatch.setattr(sys.modules["charideals.classify"], attr, fake)
    if attr == "snf_diagonal":
        # is_S_leq and the Laplacian count read mining's STATISTICS, which
        # read only the unit count, not the Smith form
        monkeypatch.setattr(sys.modules["charideals.mining"], "_unit_count",
                            lambda m: fake(m).ones)
    for run in (classify, check):
        with pytest.raises(RouteDisagreement) as info:
            run(lookup(graph))
        assert str(info.value) == message
        assert info.value.routes == routes


def test_s4_screen_disagreement_names_the_witness():
    g = parse_graph6("Edo_")
    with pytest.raises(RouteDisagreement) as info:
        _s4_partial(g, InvariantFactors((1, 1, 2, 2, 0)))
    assert str(info.value) == "routes disagree on S<=4 for EgCw: count=True, forbidden-witness=Edo_"
    assert info.value.routes == {"count": True, "forbidden-witness": "Edo_"}


def certificate_lines():
    """One JSON line of classify per graph: every connected graph on at most
    6 vertices, FAMILY_F by name, then the 43 S<=4 forbidden graphs."""
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    graphs += [FAMILY_F[name] for name in sorted(FAMILY_F)]
    graphs += [parse_graph6(s) for s in FORBIDDEN_S4]
    return [json.dumps(classify(g).to_json_dict()) for g in graphs]


def test_classify_takes_one_smith_form_per_graph(monkeypatch):
    # only phi_adjacency, whose factors the S<=4 certificate prints, is a
    # full Smith form; every point of the co-rank bound, t = 0 included, and
    # phi_laplacian are unit counts: 5,912 Smith forms and unit counts on
    # the ten seed-1 classify-stream inputs of perfbench.  1,469 of the
    # 4,772 unit counts leave a residue whose entries have gcd 1 and take
    # its Smith form
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import inputs
    calls = {}

    def counting(key, fn):
        def counted(m):
            calls[key] = calls.get(key, 0) + 1
            return fn(m)
        return counted
    for name in ("classify", "graph_ideals", "mining"):
        mod = importlib.import_module("charideals." + name)
        for attr in ("snf_diagonal", "_unit_count"):
            if hasattr(mod, attr):
                monkeypatch.setattr(mod, attr, counting(attr, getattr(mod, attr)))
    # the unit count reaches the Smith form through its own module
    monkeypatch.setattr(intlinalg, "snf_diagonal", counting("residue", intlinalg.snf_diagonal))
    graphs = 0
    for i in range(10):
        for line in inputs.classify_stream(1, i)[0]:
            classify(parse_graph6(line))
            graphs += 1
    assert graphs == 1140
    assert calls == {"snf_diagonal": 1140, "_unit_count": 4772, "residue": 1469}


# sha256 of certificate_lines() joined by newlines
CERTIFICATES_SHA256 = "67d89340631b16772bf24fc3f2c8c84626a123bad47ef34d1df24292a1aa41cf"


def test_classify_certificates_are_byte_identical():
    lines = certificate_lines()
    assert len(lines) == 143 + 14 + 43
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CERTIFICATES_SHA256, (
        "classify output changed; to see which graph changed, run "
        "`PYTHONPATH=src python tests/test_classify.py > new.txt` here and at the "
        "last commit that passed, and diff the two files")


if __name__ == "__main__":
    print("\n".join(certificate_lines()))
