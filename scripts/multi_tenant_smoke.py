#!/usr/bin/env python3
"""Multi-tenant stress smoke test for the analysis daemon over TCP.

Starts one `suif-explorer serve --tcp 127.0.0.1:0` daemon, then drives N
concurrent client threads against it, each over its own connection:

  load -> analyze -> stats -> quit

and asserts that (a) every client completes without error or deadlock,
(b) every connection got a distinct session id and identical loop verdicts
(no cross-talk), (c) the process-wide shared fact tier served hits (late
tenants recompute nothing), and (d) a `shutdown` request checkpoints and
terminates the daemon cleanly.

While the clients run, one hostile sibling loads four programs nested past
the parser's limits (2 000 parentheses, 1 000 `if` blocks, a 20 000-term
`1+1+…` chain, each of which once overflowed a worker's stack and aborted
the whole daemon; and 63 parentheses around 64-term chains, a tree about
4 000 levels high), one with 1 025 procedures, one past the parser's
limit of 1 024, and one whose storage is 2^20 + 1 cells, one past the
layout's limit (an unbounded layout once allocated whatever a declaration
asked for).  Each must get an error reply, and the daemon must stay alive.
Next the sibling loads `real a[1000000]` with a 10^6-iteration DOALL loop
and asks to `certify` it under two schedules: the reply must come,
race-free, with 2 000 000 iterations certified, and the daemon's peak RSS
(`stats`) must stay under 1 GB (a detector that gave every iteration a
vector clock as long as its index once asked for about 2 TB here).
Then the sibling loads a program that prints 20 000 lines before a loop it
invokes 2 000 times, and asks to `certify` that loop under two schedules
(a certifier that copied the printed lines at every invocation once took
seconds on it): the reply must come, race-free, while the clients work.
Last, the sibling asks for a certify-all of that program under 64
schedules, the most a request may ask for, and closes its socket without
reading the reply.  The well-behaved clients' replies must stay correct, a
fresh connection must still be answered (`load` and `stats`), and the
daemon must shut down cleanly.

With --pipeline each client writes its whole command sequence in ONE send
(no waiting between requests) and then reads the replies back, asserting
they arrive in request order with matching ids — exercising the evented
daemon's frame decoder and per-connection ordering guarantee.

With --idle N the run additionally holds N idle connections open on the
single reactor thread for the whole test, and asserts the daemon's stats
saw them all concurrently.

With --persist-dir DIR the daemon persists into DIR, every session being a
writer of the same two files: the run then also asserts that no write
failed, that DIR holds exactly `facts.snap` and `facts.snap.log` (no stray
temp file), and that a second daemon started over DIR loads the image,
interprets nothing (`execution.reused`, no `execute` invocation) and answers
`guru` exactly as the first did, rendered report included.

Usage: multi_tenant_smoke.py BINARY PROGRAM.mf [--clients N] [--pipeline]
                             [--idle N] [--persist-dir DIR]
"""

import argparse
import json
import os
import socket
import subprocess
import sys
import threading
import time


def roundtrip(sock_file, sock, request):
    sock.sendall((json.dumps(request) + "\n").encode())
    line = sock_file.readline()
    if not line:
        raise RuntimeError(f"connection closed during {request['cmd']}")
    resp = json.loads(line)
    if not resp.get("ok"):
        raise RuntimeError(f"request {request['cmd']} failed: {resp}")
    return resp


def client(addr, source, out, idx, pipeline):
    requests = [
        {"cmd": "load", "text": source, "id": "load"},
        {"cmd": "analyze", "id": "analyze"},
        {"cmd": "stats", "id": "stats"},
        {"cmd": "quit", "id": "quit"},
    ]
    try:
        with socket.create_connection(addr, timeout=120) as sock:
            sock_file = sock.makefile("r", encoding="utf-8")
            if pipeline:
                # One write for the whole session; replies must come back
                # in request order, tagged with the ids we sent.
                payload = "".join(json.dumps(r) + "\n" for r in requests)
                sock.sendall(payload.encode())
                resps = {}
                for want in requests:
                    line = sock_file.readline()
                    if not line:
                        raise RuntimeError(f"closed before reply {want['id']}")
                    resp = json.loads(line)
                    if resp.get("id") != want["id"]:
                        raise RuntimeError(
                            f"reply out of order: want {want['id']}, got {resp}"
                        )
                    if not resp.get("ok"):
                        raise RuntimeError(f"request {want['id']} failed: {resp}")
                    resps[want["id"]] = resp
                load, analyze, stats = resps["load"], resps["analyze"], resps["stats"]
            else:
                load = roundtrip(sock_file, sock, requests[0])
                analyze = roundtrip(sock_file, sock, requests[1])
                stats = roundtrip(sock_file, sock, requests[2])
                roundtrip(sock_file, sock, requests[3])
            out[idx] = {
                "session": load["session"],
                "loops": json.dumps(analyze["loops"], sort_keys=True),
                "computed": load["facts"]["computed"],
                "tier": stats.get("tier", {}),
                "service": stats.get("service", {}),
            }
    except Exception as e:  # surfaces in the main thread's report
        out[idx] = {"error": f"{type(e).__name__}: {e}"}


MAX_PROCS = 1024
MAX_MEMORY_CELLS = 1 << 20


def over_limit_programs():
    """Sources past the parser's and the layout's limits, by shape:
    (text, expected error)."""

    def wrap(body):
        return f"program p\nproc main() {{\n real x\n int k\n{body}\n}}\n"

    # About 4 000 levels high in 8 KB: 63 parentheses, each around a
    # 64-term chain (a left operand's height adds to the operators after it).
    nested_chains = "1"
    for _ in range(63):
        nested_chains = "(" + nested_chains + "+1" * 63 + ")"
    nested = "nested deeper than"
    procs = "".join(f"proc p{k}() {{ }}\n" for k in range(1, MAX_PROCS + 1))
    return {
        "2000 nested parentheses": (wrap(" x = " + "(" * 2000 + "1" + ")" * 2000), nested),
        "1000 nested ifs": (wrap(" if k == 0 {\n" * 1000 + " k = 1\n" + " }\n" * 1000), nested),
        "a 20000-term chain": (wrap(" x = 1" + "+1" * 19999), nested),
        "63 parentheses around 64-term chains": (
            wrap(" x = " + nested_chains + "+1" * 63),
            nested,
        ),
        "1025 procedures": (
            "program p\n" + procs + wrap("")[len("program p\n"):],
            f"line {MAX_PROCS + 2}: more than {MAX_PROCS} procedures",
        ),
        # `x` and `k` take two cells, so `a` is the one past the limit.
        "storage past MAX_MEMORY_CELLS": (
            wrap(f" real a[{MAX_MEMORY_CELLS - 1}]"),
            f"storage for `a` takes the program past {MAX_MEMORY_CELLS} cells",
        ),
    }


HUGE_CERTIFY = "certify of a 10^6-iteration loop"
LOUD_CERTIFY = "certify after 20000 printed lines"
ABANDONED = "64-schedule certify-all abandoned"


def huge_program():
    """`main/1` writes every cell of a 10^6-cell array, once."""
    return (
        "program p\nproc main() {\n real a[1000000]\n int i\n"
        " do 1 i = 1, 1000000 {\n  a[i] = i\n }\n print a[1000000]\n}\n"
    )


def loud_program():
    """20 000 printed lines, then `main/2`, invoked 2 000 times."""
    return (
        "program p\nproc main() {\n real a[4]\n int i, k\n"
        " do 1 k = 1, 20000 {\n  print k\n }\n"
        " do 3 k = 1, 2000 {\n  do 2 i = 1, 4 {\n   a[i] = a[i] + k\n  }\n }\n"
        " print a[4]\n}\n"
    )


def hostile(addr, out):
    """The hostile sibling: every over-limit `load` must answer an error,
    a `certify` of 10^6 iterations must answer race-free inside 1 GB, a
    `certify` after 20 000 printed lines must answer race-free, and a
    64-schedule certify-all goes unread."""
    try:
        with socket.create_connection(addr, timeout=120) as sock:
            sock_file = sock.makefile("r", encoding="utf-8")
            for shape, (text, expected) in over_limit_programs().items():
                sock.sendall((json.dumps({"cmd": "load", "text": text}) + "\n").encode())
                line = sock_file.readline()
                if not line:
                    raise RuntimeError(f"connection closed on {shape}")
                resp = json.loads(line)
                if resp.get("ok") or expected not in resp.get("error", ""):
                    raise RuntimeError(f"{shape}: want an error naming {expected!r}, got {resp}")
                out.append(shape)
            roundtrip(sock_file, sock, {"cmd": "load", "text": huge_program()})
            resp = roundtrip(
                sock_file, sock, {"cmd": "certify", "loop": "main/1", "schedules": 2}
            )
            (entry,) = [l for l in resp["loops"] if l["loop"] == "main/1"]
            stats = roundtrip(sock_file, sock, {"cmd": "stats"})
            peak = stats["service"]["process"]["peak_rss_bytes"]
            if not (
                resp.get("schedules_run") == 2
                and entry["race_free"]
                and entry["iterations"] == 2_000_000
                and peak < 1 << 30
            ):
                raise RuntimeError(f"{HUGE_CERTIFY}: peak RSS {peak} B, {resp}")
            out.append(HUGE_CERTIFY)
            roundtrip(sock_file, sock, {"cmd": "load", "text": loud_program()})
            resp = roundtrip(
                sock_file, sock, {"cmd": "certify", "loop": "main/2", "schedules": 2}
            )
            (entry,) = [l for l in resp["loops"] if l["loop"] == "main/2"]
            if not (
                resp.get("schedules_run") == 2
                and entry["race_free"]
                and entry["iterations"] == 2 * 2000 * 4
            ):
                raise RuntimeError(f"{LOUD_CERTIFY}: {resp}")
            out.append(LOUD_CERTIFY)
            request = {"cmd": "certify", "schedules": 64}
            sock.sendall((json.dumps(request) + "\n").encode())
        # The socket is closed with the certify-all's reply unread.
        out.append(ABANDONED)
    except Exception as e:  # surfaces in the main thread's report
        out.append(f"error: {type(e).__name__}: {e}")


def start_daemon(binary, persist_dir):
    """Spawn a TCP daemon on a free port; returns (process, address)."""
    cmd = [binary, "serve", "--tcp", "127.0.0.1:0", "--workers", "2"]
    if persist_dir:
        cmd += ["--persist-dir", persist_dir]
    daemon = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    banner = daemon.stdout.readline().strip()
    if not banner.startswith("listening on "):
        daemon.kill()
        sys.exit(f"unexpected daemon banner: {banner!r}")
    host, port = banner.removeprefix("listening on ").rsplit(":", 1)
    return daemon, (host, int(port))


def shut_down(daemon, addr):
    """Graceful shutdown: ack, final checkpoint, process exit; returns stderr."""
    with socket.create_connection(addr, timeout=30) as sock:
        sock_file = sock.makefile("r", encoding="utf-8")
        resp = roundtrip(sock_file, sock, {"cmd": "shutdown"})
        assert resp.get("shutdown") is True, f"bad shutdown ack: {resp}"
    _, stderr = daemon.communicate(timeout=60)
    assert daemon.returncode == 0, f"daemon exit code {daemon.returncode}"
    return stderr


def load_and_guru(addr, source):
    """One more tenant: (`load` reply, `guru` reply without its session id)."""
    with socket.create_connection(addr, timeout=120) as sock:
        sock_file = sock.makefile("r", encoding="utf-8")
        load = roundtrip(sock_file, sock, {"cmd": "load", "text": source})
        guru = roundtrip(sock_file, sock, {"cmd": "guru"})
        roundtrip(sock_file, sock, {"cmd": "quit"})
    assert "rendered" in guru, f"guru reply carries no rendered report: {guru}"
    del guru["session"]
    return load, json.dumps(guru, sort_keys=True)


def check_persisted(binary, persist_dir, source, stderr, guru_before):
    """One owner of the directory: clean writes, two files, a warm restart."""
    assert "write failed" not in stderr, f"a persistence write failed:\n{stderr}"
    files = sorted(os.listdir(persist_dir))
    assert files == ["facts.snap", "facts.snap.log"], f"persist dir holds {files}"
    daemon, addr = start_daemon(binary, persist_dir)
    try:
        load, guru = load_and_guru(addr, source)
        snap = load["snapshot"]
        assert snap["status"] == "loaded", f"restart did not load: {snap}"
        run = load["execution"]
        assert run["reused"] is True, f"restart interpreted again: {run}"
        # A pass without traffic has no row.
        execute = load["passes"].get("execute", {})
        assert execute.get("invocations", 0) == 0, f"restart ran: {execute}"
        assert guru == guru_before, (
            f"guru diverged across restart:\n  before: {guru_before}\n  after: {guru}"
        )
        shut_down(daemon, addr)
    finally:
        if daemon.poll() is None:
            daemon.kill()
        daemon.wait()
    return snap["warm_hits"]


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("binary", help="path to the suif-explorer binary")
    ap.add_argument("program", help="program source to load in every session")
    ap.add_argument("--clients", type=int, default=6, help="concurrent clients")
    ap.add_argument(
        "--pipeline",
        action="store_true",
        help="each client writes all requests in one send and checks reply order",
    )
    ap.add_argument(
        "--idle",
        type=int,
        default=0,
        metavar="N",
        help="hold N idle connections open for the whole run",
    )
    ap.add_argument(
        "--persist-dir",
        metavar="DIR",
        help="persist into DIR (fresh), then check it and restart over it",
    )
    args = ap.parse_args()
    with open(args.program) as f:
        source = f.read()

    daemon, addr = start_daemon(args.binary, args.persist_dir)
    idle_socks = []
    try:
        # Idle load: connections that never send a byte, held across the
        # whole active phase on the one reactor thread.
        for i in range(args.idle):
            idle_socks.append(socket.create_connection(addr, timeout=30))
            if i % 64 == 63:
                time.sleep(0.002)  # stay under the listen backlog

        results = [None] * args.clients
        threads = [
            threading.Thread(
                target=client, args=(addr, source, results, i, args.pipeline)
            )
            for i in range(args.clients)
        ]
        refused = []
        threads.append(threading.Thread(target=hostile, args=(addr, refused)))
        start = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        if any(t.is_alive() for t in threads):
            sys.exit("deadlock: client threads still running after 180s")
        elapsed = time.monotonic() - start

        assert daemon.poll() is None, f"daemon died (exit {daemon.returncode}): {refused}"
        want = list(over_limit_programs()) + [HUGE_CERTIFY, LOUD_CERTIFY, ABANDONED]
        assert refused == want, f"hostile sibling: {refused}"
        errors = [r for r in results if r is None or "error" in r]
        assert not errors, f"client failures: {errors}"

        sessions = [r["session"] for r in results]
        assert len(set(sessions)) == args.clients, f"session ids not distinct: {sessions}"
        verdicts = {r["loops"] for r in results}
        assert len(verdicts) == 1, f"tenants disagree on verdicts: {verdicts}"

        # The tier must have served cross-session hits: with N concurrent
        # tenants on one program, at most one computes each fact.
        hits = max(r["tier"].get("hits", 0) for r in results)
        assert hits > 0, f"shared tier served no hits: {results}"
        zero_recompute = sum(1 for r in results if r["computed"] == 0)

        # With idle load, the daemon's own accounting must have seen every
        # connection concurrently on the reactor.
        if args.idle:
            peak = max(
                r["service"].get("reactor", {}).get("peak_connections", 0)
                for r in results
            )
            assert peak >= args.idle, (
                f"reactor held {peak} connections, wanted >= {args.idle}"
            )

        # A fresh connection is served after the abandoned certify-all.
        with socket.create_connection(addr, timeout=120) as sock:
            sock_file = sock.makefile("r", encoding="utf-8")
            roundtrip(sock_file, sock, {"cmd": "load", "text": source})
            stats = roundtrip(sock_file, sock, {"cmd": "stats"})
            roundtrip(sock_file, sock, {"cmd": "quit"})
        assert "certification" in stats, f"stats after the abandoned certify-all: {stats}"
        assert daemon.poll() is None, f"daemon died (exit {daemon.returncode})"

        guru_before = load_and_guru(addr, source)[1] if args.persist_dir else None
        stderr = shut_down(daemon, addr)
        persist_note = ""
        if args.persist_dir:
            warm = check_persisted(
                args.binary, args.persist_dir, source, stderr, guru_before
            )
            persist_note = f", warm restart over the persist dir ({warm} warm hits)"

        mode = "pipelined" if args.pipeline else "serial"
        idle_note = f", {args.idle} idle connections held" if args.idle else ""
        print(
            f"multi-tenant OK: {args.clients} concurrent {mode} sessions in "
            f"{elapsed:.1f}s, {hits} shared-tier hits, {zero_recompute} sessions "
            f"with zero recompute{idle_note}, {len(refused) - 3} over-limit loads "
            f"refused, a certify of 10^6 iterations and a certify after 20000 "
            f"printed lines answered, a "
            f"64-schedule certify-all abandoned and a fresh session served after "
            f"it, clean shutdown{persist_note}"
        )
    finally:
        for s in idle_socks:
            s.close()
        if daemon.poll() is None:
            daemon.kill()
        daemon.wait()


if __name__ == "__main__":
    main()
