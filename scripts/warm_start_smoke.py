#!/usr/bin/env python3
"""Warm-start smoke test for the persistent analysis daemon.

Drives `suif-explorer serve --persist-dir DIR` twice over stdio with the
same program:

  run 1: load -> guru -> slice -> checkpoint -> stats -> quit
  run 2 (fresh process, same DIR): load -> guru -> slice -> stats -> quit

where `slice` asks for the Guru's top target (the program's first loop when
the Guru has none), and asserts that the restart (a) reports a loaded
snapshot with warm hits and no stale evictions, (b) invoked the summarize,
liveness, classify, deps and execute passes zero times and computed no fact
at all (`cold_misses == 0`: every pass's facts are persisted;
`execution.reused`: the program was not interpreted again), and (c) answered
`guru` and `slice` identically, the rendered report's wall-clock estimate
included — it is the producing run's.  In both runs `stats.service.latency`
must count every command sent before the `stats`.

Usage: warm_start_smoke.py <suif-explorer binary> <program.mf>
"""

import json
import re
import subprocess
import sys
import tempfile


def first_loop(source):
    """`proc/label` of the first `do` loop in the source text."""
    proc = None
    for line in source.splitlines():
        m = re.match(r"\s*proc\s+(\w+)", line)
        if m:
            proc = m.group(1)
        m = re.match(r"\s*do\s+(\d+)\b", line)
        if m and proc:
            return f"{proc}/{m.group(1)}"
    sys.exit("the program has no loop to slice")


def drive(binary, persist_dir, source, checkpoint):
    """One daemon, one request at a time; returns the replies by command."""
    proc = subprocess.Popen(
        [binary, "serve", "--persist-dir", persist_dir],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    sent, by_cmd = {}, {}

    def request(req):
        proc.stdin.write(json.dumps(req) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            sys.exit(f"daemon closed stdout on {req['cmd']}:\n{proc.stderr.read()}")
        resp = json.loads(line)
        if not resp.get("ok"):
            sys.exit(f"request {req['cmd']} failed: {resp}")
        sent[req["cmd"]] = sent.get(req["cmd"], 0) + 1
        by_cmd[req["cmd"]] = resp
        return resp

    request({"cmd": "load", "text": source})
    targets = request({"cmd": "guru"}).get("targets", [])
    target = targets[0]["loop"] if targets else first_loop(source)
    request({"cmd": "slice", "loop": target})
    if checkpoint:
        request({"cmd": "checkpoint"})
    before_stats = dict(sent)
    stats = request({"cmd": "stats"})
    request({"cmd": "quit"})
    proc.stdin.close()
    code = proc.wait(timeout=300)
    stderr = proc.stderr.read()
    if code != 0:
        sys.exit(f"daemon exited with {code}:\n{stderr}")

    latency = stats["service"]["latency"]
    counted = {cmd: h["count"] for cmd, h in latency.items()}
    assert counted == before_stats, f"latency counts {counted}, sent {before_stats}"
    for cmd, h in latency.items():
        assert 0 < h["p50_us"] <= h["p90_us"] <= h["p99_us"], f"{cmd}: {h}"
    return by_cmd


def guru_fingerprint(resp):
    assert "rendered" in resp, f"guru reply carries no rendered report: {resp}"
    return json.dumps(resp, sort_keys=True)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, program = sys.argv[1], sys.argv[2]
    with open(program) as f:
        source = f.read()

    with tempfile.TemporaryDirectory(prefix="suif_warm_smoke_") as persist_dir:
        cold = drive(binary, persist_dir, source, checkpoint=True)
        warm = drive(binary, persist_dir, source, checkpoint=False)

    cold_snap = cold["stats"]["snapshot"]
    assert cold_snap["status"] == "none", f"fresh dir must cold-start: {cold_snap}"
    assert cold["checkpoint"]["facts"] > 0, f"checkpoint persisted nothing: {cold['checkpoint']}"

    warm_snap = warm["stats"]["snapshot"]
    assert warm_snap["status"] == "loaded", f"restart must load the snapshot: {warm_snap}"
    assert warm_snap["warm_hits"] > 0, f"restart must import facts: {warm_snap}"
    assert warm_snap["evicted_stale"] == 0, f"unchanged program evicted facts: {warm_snap}"
    assert warm_snap["cold_misses"] == 0, f"restart computed facts anew: {warm_snap}"

    # Zero-traffic passes are omitted from `passes`, so a missing entry is
    # itself a pass with zero invocations.
    assert cold["stats"]["passes"]["deps"]["invocations"] > 0, (
        f"a cold open computes the carried-dependence tables: {cold['stats']['passes']}"
    )
    for pass_name in ("summarize", "liveness", "classify", "deps", "execute"):
        p = warm["stats"]["passes"].get(pass_name, {})
        assert p.get("invocations", 0) == 0, (
            f"warm start must not re-run {pass_name}: {p}"
        )
    cold_run, warm_run = cold["stats"]["execution"], warm["stats"]["execution"]
    assert cold_run["reused"] is False, f"a fresh dir must interpret: {cold_run}"
    assert warm_run["reused"] is True, f"restart interpreted again: {warm_run}"
    assert warm_run["ops"] == cold_run["ops"], f"{cold_run} vs {warm_run}"

    cold_guru, warm_guru = guru_fingerprint(cold["guru"]), guru_fingerprint(warm["guru"])
    assert cold_guru == warm_guru, (
        f"guru diverged across restart:\n  cold: {cold_guru}\n  warm: {warm_guru}"
    )

    cold_slice = json.dumps(cold["slice"], sort_keys=True)
    warm_slice = json.dumps(warm["slice"], sort_keys=True)
    assert cold_slice == warm_slice, (
        f"slice diverged across restart:\n  cold: {cold_slice}\n  warm: {warm_slice}"
    )

    print(
        f"warm start OK: {warm_snap['warm_hits']} facts imported, "
        f"0 summarize/liveness/classify/deps/execute invocations, "
        f"identical guru and slice output, every command in stats.service.latency"
    )


if __name__ == "__main__":
    main()
