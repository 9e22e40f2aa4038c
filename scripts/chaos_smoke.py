#!/usr/bin/env python3
"""Chaos smoke for the reliability layer, driven over the wire.

Stages against a spawned starringd:

  stdio  — a failpoint storm (STARRING_FAILPOINTS) over mixed requests,
           some deadlined.  Asserts: every request reaches a terminal
           status, FAIL re-arms (and rejects garbage) live, PING works
           mid-storm, at least three distinct failpoint sites fired,
           svc.failpoints_fired equals the sum of the fail.<site>
           counters, and — after FAIL clear — a verify sweep of every
           instance comes back ok+verified with zero svc.verify_failures
           (the cache survived the storm uncorrupted).

  stdio write failure — io.write_response armed to fail once: the
           daemon must release stdout (EOF, no answer after the failed
           one), stop reading at its next record and exit non-zero;
           dropping answers and exiting 0 is a failed gate.

  tcp    — connection-cap bounce (`status rejected`), then a slow-client
           eviction: a reader that never drains its socket must be cut
           loose within the write timeout (svc.evicted_conns rises) while
           a healthy connection keeps scraping STATS.  Ends with SIGTERM
           and a clean, bounded drain (exit code 0).

The driver is deliberately independent of the C++ protocol code: a
second implementation of the framing that would catch asymmetric
serialization bugs.  Run under a hard wall-clock `timeout` in CI; any
hang is a failed gate.

Usage: chaos_smoke.py <path-to-starringd> [--port N]
"""

import argparse
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

CHAOS_CONFIG = (
    "svc.cache_lookup=error@p:0.4,svc.cache_insert=error@p:0.4,"
    "svc.embed=error@p:0.2,svc.batch=throw@every:4"
)


def log(msg):
    print(f"chaos_smoke: {msg}", flush=True)


def perm_literal(p):
    if len(p) < 10:
        return "".join(str(x) for x in p)
    return ".".join(str(x) for x in p)


def request_frame(rid, n, faults, verify=False, deadline_ms=0):
    lines = [
        "starring-request v1",
        f"id {rid}",
        f"n {n}",
        f"vertex_faults {len(faults)}",
    ]
    lines += [perm_literal(f) for f in faults]
    lines += ["edge_faults 0", f"verify {1 if verify else 0}"]
    if deadline_ms:
        lines.append(f"deadline_ms {deadline_ms}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def make_instances(count, seed):
    """(n, faults) pairs with |F| <= n-3, so embeds cannot fail honestly."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 4 + (i % 3)
        nf = rng.randrange(0, n - 2)  # 0..n-3
        faults = set()
        while len(faults) < nf:
            p = list(range(1, n + 1))
            rng.shuffle(p)
            faults.add(tuple(p))
        out.append((n, sorted(faults)))
    return out


class TokenReader:
    """Whitespace tokenizer over a text stream with line-level access,
    mirroring the daemon's token-based framing."""

    def __init__(self, stream):
        self.stream = stream
        self.tokens = []

    def next_token(self):
        while not self.tokens:
            line = self.stream.readline()
            if line == "":
                return None
            self.tokens = line.split()
        return self.tokens.pop(0)

    def rest_of_line(self):
        rest = " ".join(self.tokens)
        self.tokens = []
        return rest

    def raw_line(self):
        assert not self.tokens, "raw read would skip buffered tokens"
        return self.stream.readline().rstrip("\n")


def read_record(tr):
    """One protocol record: PONG / FAIL reply / stats / response."""
    tok = tr.next_token()
    if tok is None:
        return None
    if tok == "PONG":
        return ("pong",)
    if tok == "FAIL":
        return ("fail", tr.rest_of_line())
    if tok == "starring-stats":
        assert tr.next_token() == "v1"
        assert tr.next_token() == "lines"
        count = int(tr.next_token())
        body = [tr.raw_line() for _ in range(count)]
        assert tr.next_token() == "end"
        return ("stats", body)
    assert tok == "starring-response", f"unexpected record start {tok!r}"
    assert tr.next_token() == "v1"
    assert tr.next_token() == "id"
    rid = int(tr.next_token())
    assert tr.next_token() == "status"
    status = tr.next_token()
    if status == "ok":
        assert tr.next_token() == "cache"
        cache_hit = tr.next_token() == "hit"
        assert tr.next_token() == "verified"
        verified = tr.next_token() == "1"
        assert tr.next_token() == "ring"
        count = int(tr.next_token())
        ring = [int(tr.next_token()) for _ in range(count)]
        assert tr.next_token() == "end"
        return ("resp", rid, "ok", cache_hit, verified, ring)
    assert status in ("error", "rejected", "timeout"), status
    assert tr.next_token() == "reason"
    reason = tr.rest_of_line()
    assert tr.next_token() == "end"
    return ("resp", rid, status, None, None, reason)


def parse_prometheus(body):
    counters = {}
    for line in body:
        if line.startswith("#") or not line.strip():
            continue
        parts = line.split()
        if len(parts) == 2:
            try:
                counters[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return counters


def collect_responses(tr, want_ids):
    got = {}
    while want_ids - got.keys():
        rec = read_record(tr)
        assert rec is not None, (
            f"stream ended with {sorted(want_ids - got.keys())[:5]}... "
            "unanswered")
        assert rec[0] == "resp", rec
        got[rec[1]] = rec
    return got


def stdio_stage(daemon):
    env = dict(os.environ)
    env["STARRING_FAILPOINTS"] = CHAOS_CONFIG
    env["STARRING_FAILPOINT_SEED"] = "1234"
    proc = subprocess.Popen(
        [daemon, "--verify-on-hit", "--batch-max", "4"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env=env, text=True)
    tr = TokenReader(proc.stdout)
    instances = make_instances(60, seed=42)

    # Storm: all requests up front; every fifth carries a budget.
    for i, (n, faults) in enumerate(instances):
        deadline = 500 if i % 5 == 0 else 0
        proc.stdin.write(request_frame(i, n, faults, deadline_ms=deadline))
    proc.stdin.flush()
    got = collect_responses(tr, set(range(len(instances))))
    by_status = {}
    for rec in got.values():
        by_status[rec[2]] = by_status.get(rec[2], 0) + 1
    assert by_status.get("rejected", 0) == 0, by_status
    assert by_status.get("error", 0) > 0, (
        f"the storm injected nothing: {by_status}")
    log(f"stdio storm: 60/60 terminal, statuses {by_status}")

    # Live FAIL handling: garbage is bounced, then the storm is cleared.
    proc.stdin.write("FAIL svc.embed=explode\n")
    proc.stdin.flush()
    rec = read_record(tr)
    assert rec[0] == "fail" and rec[1].startswith("bad "), rec
    proc.stdin.write("FAIL clear\n")
    proc.stdin.write("PING\n")
    proc.stdin.flush()
    rec = read_record(tr)
    assert rec == ("fail", "ok"), rec
    assert read_record(tr) == ("pong",)
    log("stdio: FAIL bounce/clear + PING ok mid-session")

    # Post-chaos verify sweep through the surviving cache: every
    # instance again, verification forced, no failpoints armed.
    base = 1000
    for i, (n, faults) in enumerate(instances):
        proc.stdin.write(request_frame(base + i, n, faults, verify=True))
    proc.stdin.flush()
    sweep = collect_responses(
        tr, set(range(base, base + len(instances))))
    for rid, rec in sorted(sweep.items()):
        assert rec[2] == "ok", f"sweep id={rid}: {rec}"
        assert rec[4], f"sweep id={rid} not verified"
        assert len(rec[5]) > 0, f"sweep id={rid} empty ring"
    log(f"verify sweep: {len(sweep)}/{len(instances)} ok+verified")

    # Counter reconciliation on an idle service.
    proc.stdin.write("STATS\n")
    proc.stdin.flush()
    rec = read_record(tr)
    assert rec[0] == "stats", rec
    counters = parse_prometheus(rec[1])
    fired = counters.get("starring_svc_failpoints_fired", 0)
    per_site = {k: v for k, v in counters.items()
                if k.startswith("starring_fail_")}
    assert fired > 0, counters
    assert len(per_site) >= 3, (
        f"want >=3 distinct failpoint sites, got {sorted(per_site)}")
    assert sum(per_site.values()) == fired, (fired, per_site)
    assert counters.get("starring_svc_verify_failures", 0) == 0, counters
    log(f"counters: {int(fired)} fires across {len(per_site)} sites, "
        "aggregate == per-site sum, 0 verify failures")

    proc.stdin.close()
    rc = proc.wait(timeout=60)
    assert rc == 0, f"stdio daemon exit code {rc}"
    log("stdio: clean EOF drain, exit 0")


def stdio_write_failure_stage(daemon):
    proc = subprocess.Popen([daemon], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    tr = TokenReader(proc.stdout)
    proc.stdin.write("FAIL io.write_response=error@once\n")
    proc.stdin.flush()
    assert read_record(tr) == ("fail", "ok")
    for i, (n, faults) in enumerate(make_instances(3, seed=7)):
        proc.stdin.write(request_frame(i, n, faults))
    proc.stdin.flush()
    # stdout must reach EOF with stdin still open; a watchdog kill
    # (which would also end the read) fails the stage.
    killed = []
    watchdog = threading.Timer(30, lambda: (killed.append(1), proc.kill()))
    watchdog.start()
    rest = proc.stdout.read()
    watchdog.cancel()
    assert not killed, "stdout stayed open after a failed answer write"
    assert rest == "", f"output after the failed write: {rest[:80]!r}"
    try:
        proc.stdin.write("PING\n")  # the reader stops after this record
        proc.stdin.flush()
    except BrokenPipeError:
        pass
    rc = proc.wait(timeout=30)
    assert rc != 0, f"stdio daemon exit code {rc} after dropping answers"
    log(f"stdio write failure: stdout closed, answers dropped, exit {rc}")


def connect(port, timeout=20):
    s = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    s.settimeout(timeout)
    return s


def sock_reader(s):
    return TokenReader(s.makefile("r", encoding="ascii"))


def scrape_stats(port, retries=40):
    # A scrape can race a just-released connection slot and get bounced;
    # retry until a slot frees.
    for _ in range(retries):
        with connect(port) as s:
            s.sendall(b"STATS\n")
            rec = read_record(sock_reader(s))
            if rec[0] == "resp" and rec[2] == "rejected":
                time.sleep(0.25)
                continue
            assert rec[0] == "stats", rec
            return parse_prometheus(rec[1])
    raise AssertionError("stats scrape kept getting rejected")


def tcp_stage(daemon, port):
    proc = subprocess.Popen(
        [daemon, "--listen", str(port), "--max-conns", "2",
         "--write-timeout-ms", "400", "--drain-timeout-ms", "4000"])
    try:
        deadline = time.time() + 20
        while True:
            try:
                with connect(port, timeout=2) as s:
                    s.sendall(b"PING\n")
                    assert read_record(sock_reader(s)) == ("pong",)
                break
            except OSError:
                assert time.time() < deadline, "daemon never came up"
                assert proc.poll() is None, "daemon died during startup"
                time.sleep(0.1)
        log(f"tcp: daemon up on :{port}, PING ok")

        # Connection cap: two holders fill it, the third is bounced
        # with an explicit `status rejected` record.
        hold1, hold2 = connect(port), connect(port)
        with connect(port) as third:
            rec = read_record(sock_reader(third))
            assert rec[0] == "resp" and rec[2] == "rejected", rec
            assert "connection limit" in rec[5], rec
        hold1.close()
        hold2.close()
        time.sleep(0.5)  # let the holders' threads deregister
        assert scrape_stats(port).get("starring_svc_rejected_conns", 0) >= 1
        log("tcp: connection cap bounced the overflow with status rejected")

        # Slow client: bursts large-ring requests and never reads.  A
        # tiny receive buffer (set before connect) caps the TCP window,
        # so the daemon's responses back up, POLLOUT times out, and the
        # connection is evicted.
        slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        slow.settimeout(20)
        slow.connect(("127.0.0.1", port))
        burst = b""
        for i in range(400):
            burst += request_frame(i, 7, []).encode("ascii")
        slow.sendall(burst)
        deadline = time.time() + 30
        evicted = 0
        while time.time() < deadline:
            evicted = scrape_stats(port).get("starring_svc_evicted_conns", 0)
            if evicted >= 1:
                break
            time.sleep(0.25)
        assert evicted >= 1, "slow client never evicted"
        log(f"tcp: slow client evicted (svc.evicted_conns={int(evicted)})")
        slow.close()

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
        assert rc == 0, f"tcp daemon exit code {rc}"
        log("tcp: SIGTERM drain within budget, exit 0")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def wait_ping(proc, port, what):
    deadline = time.time() + 20
    while True:
        try:
            with connect(port, timeout=2) as s:
                s.sendall(b"PING\n")
                assert read_record(sock_reader(s)) == ("pong",)
            return
        except OSError:
            assert time.time() < deadline, f"{what} never came up"
            assert proc.poll() is None, f"{what} died during startup"
            time.sleep(0.1)


def read_members(port):
    """The MEMBERS command: {addr: (shard_id, incarnation, state)}."""
    with connect(port) as s:
        s.sendall(b"MEMBERS\n")
        tr = sock_reader(s)
        assert tr.next_token() == "starring-membership"
        assert tr.next_token() == "v1"
        assert tr.next_token() == "epoch"
        epoch = int(tr.next_token())
        assert tr.next_token() == "replication"
        tr.next_token()
        assert tr.next_token() == "vnodes"
        tr.next_token()
        assert tr.next_token() == "members"
        count = int(tr.next_token())
        members = {}
        for _ in range(count):
            assert tr.next_token() == "member"
            addr = tr.next_token()
            members[addr] = (int(tr.next_token()), int(tr.next_token()),
                             tr.next_token())
        assert tr.next_token() == "end"
        return epoch, members


def fail_cmd(port, config):
    with connect(port) as s:
        s.sendall(f"FAIL {config}\n".encode("ascii"))
        rec = read_record(sock_reader(s))
        assert rec == ("fail", "ok"), rec


def embed_ok(port, rid):
    with connect(port) as s:
        s.sendall(request_frame(rid, 5, []).encode("ascii"))
        rec = read_record(sock_reader(s))
        assert rec[0] == "resp" and rec[2] == "ok", rec


def wait_state(port, addr, want, budget, what):
    deadline = time.time() + budget
    state = "?"
    while time.time() < deadline:
        state = read_members(port)[1].get(addr, (0, 0, "absent"))[2]
        if state == want:
            return
        time.sleep(0.1)
    raise AssertionError(f"{what}: {addr} stuck at {state!r}, want {want!r}")


def gossip_stage(daemon, port_a, port_b):
    """Asymmetric gossip partition, healed by refutation.

    Two shards form a cluster over SWIM.  B's gossip plane is then
    severed with failpoints — `gossip.probe` silences its prober,
    `gossip.ack` makes it swallow its replies (while still merging the
    incoming updates, like a one-way link) — so A's probes go
    unanswered and A marks B suspect.  The suspicion window is set far
    past the drill so B is never buried: when the failpoints clear, A's
    next ping piggybacks the suspicion to B, B outbids it with a higher
    incarnation, and A flips B back to alive.  Throughout, the data
    plane on BOTH sides keeps answering embeds — a gossip partition is
    not a service outage — and A must record zero deaths.
    """
    addr_a = f"127.0.0.1:{port_a}"
    addr_b = f"127.0.0.1:{port_b}"
    gossip = ["--gossip-interval-ms", "100",
              "--suspicion-timeout-ms", "15000"]
    proc_a = subprocess.Popen(
        [daemon, "--listen", str(port_a), "--shard-id", "0",
         "--bootstrap"] + gossip)
    proc_b = None
    try:
        wait_ping(proc_a, port_a, "gossip daemon A")
        proc_b = subprocess.Popen(
            [daemon, "--listen", str(port_b), "--shard-id", "1",
             "--join", addr_a] + gossip)
        wait_ping(proc_b, port_b, "gossip daemon B")
        wait_state(port_a, addr_b, "alive", 10, "join")
        inc_before = read_members(port_a)[1][addr_b][1]
        log(f"gossip: B joined A's view (incarnation {inc_before})")

        # Sever B's gossip plane only.
        fail_cmd(port_b, "gossip.probe=error,gossip.ack=error")
        wait_state(port_a, addr_b, "suspect", 10, "partition")
        log("gossip: dropped acks drove A to suspect B")

        # A suspect is not an outage: both data planes still answer.
        embed_ok(port_a, 9001)
        embed_ok(port_b, 9002)
        log("gossip: embeds served on both sides mid-partition")

        # Heal: A's next ping delivers the suspicion, B refutes it.
        fail_cmd(port_b, "clear")
        wait_state(port_a, addr_b, "alive", 10, "refutation")
        inc_after = read_members(port_a)[1][addr_b][1]
        assert inc_after > inc_before, (
            f"B revived without an incarnation bump "
            f"({inc_before} -> {inc_after}): not a refutation")
        log(f"gossip: B refuted at incarnation {inc_after}")

        stats_a = scrape_stats(port_a)
        assert stats_a.get("starring_cluster_membership_suspects", 0) >= 1, \
            stats_a
        assert stats_a.get("starring_cluster_membership_deaths", 0) == 0, (
            "a healed partition must not bury anyone")
        stats_b = scrape_stats(port_b)
        assert stats_b.get("starring_cluster_membership_refutes", 0) >= 1, \
            stats_b
        log("gossip: >=1 suspicion, >=1 refutation, 0 deaths")

        for proc in (proc_b, proc_a):
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
            assert rc == 0, f"gossip daemon exit code {rc}"
        log("gossip: both daemons drained clean")
    finally:
        for proc in (proc_a, proc_b):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("daemon", help="path to the starringd binary")
    ap.add_argument("--port", type=int, default=47161)
    args = ap.parse_args()
    stdio_stage(args.daemon)
    stdio_write_failure_stage(args.daemon)
    tcp_stage(args.daemon, args.port)
    gossip_stage(args.daemon, args.port + 2, args.port + 3)
    log("all stages passed")


if __name__ == "__main__":
    main()
