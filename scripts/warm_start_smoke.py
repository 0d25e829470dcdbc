#!/usr/bin/env python3
"""Warm-start smoke test for the persistent analysis daemon.

Drives `suif-explorer serve --persist-dir DIR` twice over stdio with the
same program:

  run 1: load -> guru -> slice -> checkpoint -> stats -> quit
  run 2 (fresh process, same DIR): load -> guru -> slice -> stats -> quit

and asserts that the restart (a) reports a loaded snapshot with warm hits
and no stale evictions, (b) invoked the summarize, liveness, classify and
execute passes zero times and computed no fact at all (`cold_misses == 0`:
every pass's facts are persisted; `execution.reused`: the program was not
interpreted again), and (c) answered `guru` identically, the rendered
report's wall-clock estimate included — it is the producing run's.

Usage: warm_start_smoke.py <suif-explorer binary> <program.mf>
"""

import json
import subprocess
import sys
import tempfile


def drive(binary, persist_dir, source, checkpoint):
    reqs = [
        {"cmd": "load", "text": source},
        {"cmd": "guru"},
        {"cmd": "stats"},
        {"cmd": "quit"},
    ]
    if checkpoint:
        reqs.insert(2, {"cmd": "checkpoint"})
    stdin = "".join(json.dumps(r) + "\n" for r in reqs)
    proc = subprocess.run(
        [binary, "serve", "--persist-dir", persist_dir],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        sys.exit(f"daemon exited with {proc.returncode}:\n{proc.stderr}")
    resps = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    if len(resps) != len(reqs):
        sys.exit(f"expected {len(reqs)} responses, got {len(resps)}:\n{proc.stdout}")
    for req, resp in zip(reqs, resps):
        if not resp.get("ok"):
            sys.exit(f"request {req['cmd']} failed: {resp}")
    by_cmd = {req["cmd"]: resp for req, resp in zip(reqs, resps)}
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
    for pass_name in ("summarize", "liveness", "classify", "execute"):
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

    print(
        f"warm start OK: {warm_snap['warm_hits']} facts imported, "
        f"0 summarize/liveness/classify/execute invocations, identical guru output"
    )


if __name__ == "__main__":
    main()
