"""Workload ``serve-mix``: user flows against ``python -m repro serve``.

The server runs in a child process with ``--store DIR`` (a fresh store per
run).  One load process — this one — drives it over at most two
connections, in two phases:

* **open loop**: flows arrive at a fixed rate (Poisson arrivals), each
  queued until a connection is free; every request is timed from when it
  was due, so a stall also delays the flows queued behind it;
* **closed loop**: two connections run flows back to back, which
  measures capacity.

A round is one flow per suite program, with strategies assigned so that
each of the four gets a quarter of the flows.  The open
loop runs one round; the closed loop runs the same flows again (so
sessions warm-start from the store) in whole rounds.  The order of each
phase is drawn from the seed; the flows' content (strategies, query
targets, deltas) and the arrival times are fixed draws.  A flow creates a session (a program
seen before warm-starts from the store), asks ``points_to`` twice (once
with ``demand=1``), ``alias`` once and one of ``modref``, ``callgraph``
or ``derefs``; it then posts a two-statement delta, asks ``points_to``
of the pointer the delta wrote, reads the session document and deletes
the session.  A flow keeps one connection from its first request to its
last.

Every 2xx answer is compared, after timing, with the same query answered
in-process by an exhaustive solve of the same program plus its delta.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import statistics
import subprocess
import sys
import threading
import urllib.parse
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    STRATEGIES, SUITE_DIR, BenchError, Outcome, child_env, measure_setup,
    passes_for, run_dir, tail, vm_hwm_mb,
)
from perfbench.spans import clock, load_dump

#: Open-loop arrival rate (flows per second) and per-request latency
#: limit.  See README.md for the capacity measurement they come from.
OPEN_RATE = 1.4
LATENCY_LIMIT_S = 2.0
CONNECTIONS = 2
#: Seconds one closed-loop round took when the workload was defined.
ROUND_S = 6.0
#: Seeds of the flows' content (strategies, targets, deltas) and of the
#: open loop's arrival times; the run's seed orders the flows.  With both
#: drawn per run, the run-to-run spread of the latency tail was 0.4-0.5
#: of its median, of throughput 0.1 and of peak RSS 0.15: which flows a
#: seed drew, and where it put its bursts, outweighed the service.
CONTENT_SEED = 0
ARRIVALS_SEED = 0
REQUEST_TIMEOUT_S = 10.0
TRACE_GROUPS = ",".join(("frontend", "engine", "session", "demand", "store",
                         "clients", "service"))
_EXTRA_KINDS = ("modref", "callgraph", "derefs")

#: A program outside the suite that set-up sends through every endpoint,
#: query kind and strategy, so that one-time costs (lazy imports, the
#: first solve of each strategy) are paid before timing starts.
WARM_UP_SOURCE = """
struct node { int v; struct node *next; };
struct pair { int *a; int *b; };
int g;
int h;
struct node n1;
struct node n2;
int *pick(int *x) { return x; }
int main(void) {
    struct node *p;
    struct pair pr;
    int *q;
    char *c;
    int *(*fp)(int *);
    fp = pick;
    p = &n1;
    p->next = &n2;
    pr.a = &g;
    pr.b = &h;
    q = fp(pr.a);
    c = (char *)p;
    return *q + c[0];
}
"""


class Flow:
    """One user's requests, with the answers expected for each."""

    def __init__(self, name: str, strategy: str, stmts: int,
                 steps: List[Tuple[str, str, Optional[dict], Optional[dict]]],
                 expected: List[object]) -> None:
        self.name = name
        self.strategy = strategy
        self.stmts = stmts
        #: (method, path template, query params, JSON body); the path
        #: template's ``{id}`` is the session id the create step returns.
        self.steps = steps
        self.expected = expected


def _candidates(program, result) -> List[str]:
    """Named pointer variables with a non-empty points-to set."""
    from repro.ctype.types import PointerType
    from repro.ir.objects import ObjKind

    kinds = (ObjKind.GLOBAL, ObjKind.LOCAL, ObjKind.PARAM)
    return sorted(o.name for o in program.objects.all_objects()
                  if o.kind in kinds and isinstance(o.type, PointerType)
                  and result.points_to(o))


def _comparable(route: str, kind: Optional[str], status: int, payload):
    """The part of a response that must equal the exhaustive answer."""
    if not 200 <= status < 300:
        return status, None
    if route == "create":
        doc = payload["session"]
        return status, doc["statements"], doc["functions"]
    if route == "get":
        return status, payload["session"]["statements"]
    if route == "statements":
        return status, payload["added"]
    if route == "delete":
        return (status,)
    if kind == "points_to":
        return status, payload["points_to"]
    if kind == "alias":
        return status, payload["may_alias"], payload["may_point_to_same"]
    if kind == "modref":
        return status, payload["functions"]
    if kind == "callgraph":
        return status, payload["edges"], payload["edge_count"]
    return (status, payload["count"], payload["average"], payload["max"],
            payload["empty_sites"])


def _answer(session, result, route: str, params: Optional[dict]):
    """:func:`_comparable` of a step, computed in-process."""
    from repro.clients.alias import may_alias, may_point_to_same
    from repro.clients.callgraph import build_call_graph
    from repro.clients.derefstats import deref_stats
    from repro.clients.modref import mod_ref
    from repro.service.codec import resolve_ref

    program = session.program
    if route == "create":
        return 201, program.stmt_count(), sorted(program.functions)
    if route == "get":
        return 200, program.stmt_count()
    kind = params["kind"]
    if kind == "points_to":
        ref = resolve_ref(program, params["target"])
        return 200, sorted(map(repr, result.points_to(ref)))
    if kind == "alias":
        a = resolve_ref(program, params["a"])
        b = resolve_ref(program, params["b"])
        return 200, may_alias(result, a, b), may_point_to_same(result, a, b)
    if kind == "modref":
        mr = mod_ref(result)
        return 200, {fn: {"mod": sorted(mr.mod_of(fn)),
                          "ref": sorted(mr.ref_of(fn))}
                     for fn in sorted(mr.mod)}
    if kind == "callgraph":
        cg = build_call_graph(result)
        return (200, {fn: sorted(c) for fn, c in sorted(cg.edges.items())},
                cg.edge_count())
    ds = deref_stats(result)
    return 200, ds.count, ds.average, ds.maximum, ds.empty_sites


def _flow(rng: random.Random, name: str, source: str, key: str,
          layout) -> Flow:
    """One user's flow over one suite program under strategy ``key``.

    The expected answers come from in-process exhaustive solves: of the
    program for the steps before the delta, and of the grown program,
    from scratch, for the steps after it.
    """
    from repro.core import STRATEGY_BY_KEY
    from repro.service.codec import statements_from_json
    from repro.session import AnalysisSession

    strategy = STRATEGY_BY_KEY[key](layout)
    session = AnalysisSession.from_c(source, name=name)
    result = session.solve(strategy)
    ptrs = _candidates(session.program, result)
    picks = rng.sample(ptrs, 2)
    lhs, rhs = rng.sample(ptrs, 2)
    delta = [{"form": "copy", "lhs": lhs, "rhs": rhs},
             {"form": "addrof", "lhs": lhs, "target": picks[1]}]
    sid = "/v1/sessions/{id}"

    def query(**params):
        return ("GET", sid + "/query", params, None)

    pre = [query(kind="points_to", target=picks[0], demand="1"),
           query(kind="points_to", target=picks[1]),
           query(kind="alias", a=picks[0], b=picks[1]),
           query(kind=rng.choice(_EXTRA_KINDS))]
    post = [query(kind="points_to", target=lhs), ("GET", sid, None, None)]
    create = ("POST", "/v1/sessions", None,
              {"source": source, "name": name, "strategy": key})
    add = ("POST", sid + "/statements", None, {"statements": delta})
    steps = [create] + pre + [add] + post + [("DELETE", sid, None, None)]
    expected = [_answer(session, result, "create", None)]
    expected += [_answer(session, result, "query", q) for _m, _p, q, _b in pre]
    expected.append((200, len(delta)))
    stmts = session.program.stmt_count()
    # A from-scratch solve of the grown program, in a new session.
    program = session.program
    program.add_statements(statements_from_json(program, delta))
    grown = AnalysisSession(program)
    result = grown.solve(strategy)
    expected += [_answer(grown, result, _route(m, p), q) for m, p, q, _b in post]
    expected.append((200,))
    return Flow(name, key, stmts, steps, expected)


class Plan:
    """One round of flows and a started server."""

    def __init__(self, traced: bool) -> None:
        from repro.ctype.layout import ILP32, Layout
        from repro.suite.registry import SUITE

        rng = random.Random(CONTENT_SEED)
        layout = Layout(ILP32)
        # Program k of a shuffled order gets strategy k (mod 4): every
        # strategy runs on exactly a quarter of the flows.
        programs = list(SUITE)
        rng.shuffle(programs)
        self.flows = [
            _flow(rng, prog.filename, (SUITE_DIR / prog.filename).read_text(),
                  STRATEGIES[k % len(STRATEGIES)], layout)
            for k, prog in enumerate(programs)
        ]
        self.dir = run_dir("serve-mix")
        self.server, self.url = self._start_server("server", traced)

    # -- server ----------------------------------------------------------
    def _start_server(self, label: str, traced: bool):
        store = self.dir / f"{label}-store"
        args = ["serve", "--port", "0", "--store", str(store)]
        if traced:
            self.spans_path = self.dir / f"{label}-spans.json"
            argv = [sys.executable, "-m", "perfbench.child",
                    str(self.spans_path), TRACE_GROUPS] + args
            env = child_env(bench=True, extra={"PERFBENCH_SPAWN": repr(clock())})
        else:
            argv = [sys.executable, "-m", "repro"] + args
            env = child_env(bench=False)
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        line = proc.stdout.readline()
        if not line.startswith("serving on "):
            _stop(proc)
            raise BenchError(f"server failed to start: {line!r}")
        url = line.split()[-1]
        client = Client(url)
        for _ in range(200):
            status, _payload = client.call("GET", "/healthz")
            if status == 200:
                break
            threading.Event().wait(0.05)
        else:
            _stop(proc)
            raise BenchError("server never answered /healthz")
        try:
            _warm_up(client)
        except BenchError:
            _stop(proc)
            raise
        finally:
            client.close()
        return proc, url

    def close(self) -> None:
        _stop(self.server)


def _warm_up(client: "Client") -> None:
    status, doc = client.call("POST", "/v1/sessions", None,
                              {"source": WARM_UP_SOURCE, "name": "warm-up.c"})
    if status != 201:
        raise BenchError(f"warm-up session failed: {status} {doc}")
    path = f"/v1/sessions/{doc['session']['id']}"
    requests = [("GET", path + "/query", {"kind": "points_to", "target": "q",
                                          "strategy": key})
                for key in STRATEGIES]
    requests += [
        ("GET", path + "/query", {"kind": "points_to", "target": "p",
                                  "demand": "1"}),
        ("GET", path + "/query", {"kind": "alias", "a": "p", "b": "q"}),
    ] + [("GET", path + "/query", {"kind": kind}) for kind in _EXTRA_KINDS]
    for method, where, params in requests:
        status, answer = client.call(method, where, params)
        if status != 200:
            raise BenchError(f"warm-up query failed: {status} {answer}")
    status, answer = client.call(
        "POST", path + "/statements", None,
        {"statements": [{"form": "copy", "lhs": "q", "rhs": "p"}]})
    if status != 200:
        raise BenchError(f"warm-up delta failed: {status} {answer}")
    client.call("GET", path + "/query", {"kind": "points_to", "target": "q"})
    client.call("DELETE", path)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _route(method: str, path: str) -> str:
    if path == "/v1/sessions":
        return "create"
    if path.endswith("/query"):
        return "query"
    if path.endswith("/statements"):
        return "statements"
    return "delete" if method == "DELETE" else "get"


class Client:
    """One keep-alive HTTP connection; errors come back as status 0."""

    def __init__(self, url: str) -> None:
        parts = urllib.parse.urlsplit(url)
        self.host, self.port = parts.hostname, parts.port
        self.conn: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str, params: Optional[dict] = None,
             body: Optional[dict] = None) -> Tuple[int, object]:
        if params:
            path = f"{path}?{urllib.parse.urlencode(params)}"
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=REQUEST_TIMEOUT_S)
            self.conn.request(method, path, body=data, headers=headers)
            resp = self.conn.getresponse()
            payload = json.loads(resp.read())
            return resp.status, payload
        except (OSError, http.client.HTTPException, ValueError) as err:
            self.close()
            return 0, f"{type(err).__name__}: {err}"

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Record:
    """What one request did: timings, status and the answer."""

    __slots__ = ("flow", "step", "due", "sent", "done", "status", "answer")

    def __init__(self, flow, step, due, sent, done, status, answer):
        self.flow, self.step, self.due, self.sent = flow, step, due, sent
        self.done, self.status, self.answer = done, status, answer

    @property
    def latency(self) -> float:
        return self.done - self.due


class FlowState:
    """Where one running flow is: its next step, when that step is due
    and the session it created."""

    __slots__ = ("index", "step", "due", "sid")

    def __init__(self, index: int, due: float) -> None:
        self.index, self.step, self.due, self.sid = index, 0, due, None


def run_step(client: Client, flow: Flow, state: FlowState,
             out: List[Record]) -> bool:
    """Send a flow's next request; True when the flow has finished."""
    method, path, params, body = flow.steps[state.step]
    if "{id}" in path and state.sid is None:
        # The session was never created: the rest of the flow fails.
        for step in range(state.step, len(flow.steps)):
            out.append(Record(state.index, step, state.due, state.due,
                              state.due, -1, None))
        return True
    sent = clock()
    status, answer = client.call(method, path.replace("{id}", state.sid or ""),
                                 params, body)
    done = clock()
    out.append(Record(state.index, state.step, state.due, sent, done, status,
                      answer))
    if state.step == 0 and status == 201:
        state.sid = answer["session"]["id"]
    state.step += 1
    state.due = done
    return state.step == len(flow.steps)


def run_flow(client: Client, flow: Flow, index: int,
             out: List[Record]) -> None:
    """One whole flow on one connection, due now."""
    state = FlowState(index, clock())
    while not run_step(client, flow, state, out):
        pass


def drive(url: str, flows: List[Flow],
          schedule: List[Tuple[int, Optional[float]]],
          ) -> Tuple[List[Record], float]:
    """Run ``schedule`` — ``(flow index, arrival offset)`` pairs — over
    :data:`CONNECTIONS` connections; returns the records and the wall time.

    A flow keeps one connection from its first request to its last, as
    a client with a keep-alive connection would; each request after the
    first is due when the previous one is answered.  With offsets (open
    loop) a flow's first request is due that many seconds after the
    start, whether or not a connection is free; with ``None`` offsets
    (closed loop) each finished flow starts the next one.
    """
    work: "queue.Queue" = queue.Queue()
    records: List[Record] = []
    lock = threading.Lock()
    closed = schedule[0][1] is None
    upcoming = iter(schedule)
    remaining = [len(schedule)]
    start = clock()

    def flow_done() -> None:
        with lock:
            remaining[0] -= 1
            last = remaining[0] == 0
            following = next(upcoming, None) if closed else None
        if following is not None:
            work.put(FlowState(following[0], clock()))
        if last:
            for _ in range(CONNECTIONS):
                work.put(None)

    def worker() -> None:
        client = Client(url)
        mine: List[Record] = []
        while True:
            state = work.get()
            if state is None:
                break
            while not run_step(client, flows[state.index], state, mine):
                pass
            flow_done()
        client.close()
        with lock:
            records.extend(mine)

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    if closed:
        with lock:
            first = [next(upcoming, None) for _ in range(CONNECTIONS)]
        for item in first:
            if item is not None:
                work.put(FlowState(item[0], clock()))
    else:
        for index, offset in schedule:
            due = start + offset
            delay = due - clock()
            if delay > 0:
                threading.Event().wait(delay)
            work.put(FlowState(index, due))
    for t in threads:
        t.join()
    return records, clock() - start


def check(flows: List[Flow], records: List[Record]) -> Tuple[int, List[str]]:
    """Failed requests and one line per problem."""
    failed = 0
    problems = []
    for r in records:
        flow = flows[r.flow]
        method, path = flow.steps[r.step][:2]
        route = _route(method, path)
        what = f"{flow.name}/{flow.strategy} step {r.step} ({route})"
        if r.status == -1:
            problem = "not sent: the session was never created"
        elif not 200 <= r.status < 300:
            problem = f"status {r.status}: {str(r.answer)[:160]}"
        elif _comparable(route, (flow.steps[r.step][2] or {}).get("kind"),
                         r.status, r.answer) != flow.expected[r.step]:
            problem = "answer differs from the exhaustive solve"
        elif r.latency > LATENCY_LIMIT_S:
            problem = f"latency {r.latency:.3f} s over the limit"
        else:
            continue
        failed += 1
        problems.append(f"{what}: {problem}")
    return failed, problems


def _phases(seed: int, n: int) -> Tuple[List[Tuple[int, float]], List[int]]:
    """The open-loop schedule (every flow once) and the closed-loop order.

    The arrival times are one Poisson draw at :data:`OPEN_RATE`, the same
    for every seed; the seed decides which flow arrives at each of them.
    """
    arrivals = random.Random(ARRIVALS_SEED)
    offsets, t = [], 0.0
    for _ in range(n):
        t += arrivals.expovariate(OPEN_RATE)
        offsets.append(t)
    rng = random.Random(seed + 1)
    opened = list(range(n))
    rng.shuffle(opened)
    closed = list(range(n))
    rng.shuffle(closed)
    return list(zip(opened, offsets)), closed


def closed_rounds(seconds: float, n_flows: int) -> int:
    """Closed-loop rounds in a ``seconds`` run, after the open loop."""
    return passes_for(seconds - n_flows / OPEN_RATE, ROUND_S)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    setup_s, plan = measure_setup(lambda: Plan(trace))
    schedule, order = _phases(seed, len(plan.flows))
    try:
        opened, _ = drive(plan.url, plan.flows, schedule)
        if trace:
            return _run_traced(plan, opened,
                               order * closed_rounds(seconds, len(plan.flows)),
                               setup_s)
        rounds = closed_rounds(seconds, len(plan.flows))
        closed, elapsed = drive(plan.url, plan.flows,
                                [(i, None) for i in order * rounds])
        peak = vm_hwm_mb(plan.server.pid)
    finally:
        plan.close()
    failed, problems = check(plan.flows, opened + closed)
    latencies = [r.latency for r in opened if r.status > 0]
    value, pct, n = tail(latencies)
    sessions = [r for r in closed if r.step == 0 and r.status == 201]
    return Outcome(
        attempted=len(opened) + len(closed), failed=failed, problems=problems,
        metrics={
            "setup_s": setup_s,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": value,
            "throughput_ops_s": sum(r.status > 0 for r in closed) / elapsed,
            "stmts_per_s": sum(plan.flows[r.flow].stmts for r in sessions) / elapsed,
            "peak_rss_mb": peak,
        },
        notes={"latency_tail_s": f"p{pct:.1f} of {n} samples",
               "throughput_ops_s": f"{CONNECTIONS} connections, closed loop",
               "latency_p50_s": f"open loop, {OPEN_RATE} flows/s"},
    )


def _run_traced(plan: Plan, opened: List[Record], order: List[int],
                setup_s: float) -> Outcome:
    """After the open loop against the traced server: flows that
    alternate between an untraced and the traced server (one connection
    each), for the tracing overhead; every flow runs on both."""
    from perfbench.layers import layer_metrics

    plain, plain_url = plan._start_server("plain", False)
    paired: Dict[bool, List[Record]] = {False: [], True: []}
    try:
        clients = {False: Client(plain_url), True: Client(plan.url)}
        for i, index in enumerate(order):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                run_flow(clients[traced], plan.flows[index], index,
                         paired[traced])
        for c in clients.values():
            c.close()
        metrics = Client(plan.url)
        _status, server_metrics = metrics.call("GET", "/metrics")
        metrics.close()
    finally:
        _stop(plain)
        plan.close()
    records = opened + paired[True]
    failed, problems = check(plan.flows, records + paired[False])
    spans = load_dump(plan.spans_path)["spans"]
    served = [r for r in records if r.status > 0]
    layers = layer_metrics([spans], len(served))
    handle = sum(s[5] - s[4] for s in spans
                 if s[3] == "service.handle"
                 and (s[6] or {}).get("route") != "other")
    client_time = sum(r.done - r.sent for r in served)
    layers["service.wire_s"] = (client_time - handle) / len(served)
    layers["trace.unattributed_s"] = layers["service.wire_s"]
    walls = {k: sum(r.done - r.sent for r in v) for k, v in paired.items()}
    layers["trace.overhead_share"] = walls[True] / walls[False] - 1.0
    late = sorted(r.sent - r.due for r in opened if r.step == 0)
    layers["loadgen.late_p99_s"] = late[min(len(late) - 1,
                                            int(0.99 * len(late)))]
    server = server_metrics["server"]
    hits, solves = server["solve_cache_hits"], server["solves"]
    layers["session.cache_hit_ratio"] = (hits / (hits + solves)
                                         if hits + solves else 0.0)
    layers["service.internal_errors"] = server["internal_errors"]
    layers["pool.evictions"] = server["evictions"]
    layers.update(_store_metrics(plan.flows, records))
    return Outcome(attempted=len(records) + len(paired[False]), failed=failed,
                   problems=problems, metrics=layers,
                   notes={"setup_s": f"{setup_s:.3f} s"})


def _store_metrics(flows: List[Flow], records: List[Record]) -> Dict[str, float]:
    """Store hits ÷ loads and ``store-corrupt`` warnings, from the
    session documents each flow reads before deleting its session."""
    hits: Dict[str, int] = dict.fromkeys(STRATEGIES, 0)
    loads: Dict[str, int] = dict.fromkeys(STRATEGIES, 0)
    corrupt = 0
    for r in records:
        flow = flows[r.flow]
        if flow.steps[r.step][0] != "GET" or flow.steps[r.step][1] != "/v1/sessions/{id}":
            continue
        if r.status != 200:
            continue
        doc = r.answer["session"]
        store = doc.get("store") or {}
        hits[flow.strategy] += store.get("hits", 0)
        loads[flow.strategy] += store.get("hits", 0) + store.get("misses", 0)
        corrupt += doc["diagnostics"]["by_kind"].get("store-corrupt", 0)
    out = {f"store.hit_ratio.{k}": hits[k] / loads[k] if loads[k] else 0.0
           for k in STRATEGIES}
    total = sum(loads.values())
    out["store.hit_ratio"] = sum(hits.values()) / total if total else 0.0
    out["store.corrupt_warnings"] = corrupt
    return out
