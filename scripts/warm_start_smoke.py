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
`execution.reused`: the program was not interpreted again), (c) answered
`guru` and `slice` identically, the rendered report's wall-clock estimate
included — it is the producing run's, and (d) decoded at most `loops + 2`
persisted values (`snapshot.values_decoded`: a persisted value decodes at
its first read, and `load → guru → slice` reads the verdicts, the run and
one dependence table — no summary and no liveness).  In both runs
`stats.service.latency` must count every command sent before the `stats`.

Then the run's key, across processes:

  run 3 (fresh process, same DIR): load the program with one data-only
         literal edited -> guru -> slice -> reload with a loop bound
         edited -> quit

The data edit is read by no branch, bound, subscript or divisor, so the
warm-start validator keeps the persisted run and the `load` interprets
nothing (`passes.execute.invocations == 0`, `execution.reused`).  It
changes no section either, so the edited procedure's summary comes out
equal and the persisted `Liveness` fact, keyed by the summaries' values,
is imported rather than recomputed (`passes.liveness`: 0 invocations, 1
served from the persisted image) — and never decoded: every value the
`load` decoded is a verdict, a dependence table, the run or a summary the
reclassified loops read.  Its `guru` and `slice` equal a fresh
daemon's on the edited text, the wall-clock estimate masked.  The bound
edit interprets again.  The two edits are
fixed replacements of text in docs/samples/demo.mf (`DATA_EDIT`,
`BOUND_EDIT`); run 3 is skipped, and says so, for a program that does not
contain each exactly once.

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


# `(old, new)` edits of docs/samples/demo.mf: a literal only a data array
# reads, and a loop bound.
DATA_EDIT = ("t[j] = col[j] * 0.25", "t[j] = col[j] * 0.2512")
BOUND_EDIT = ("do 20 j = 1, m", "do 20 j = 2, m")


def apply_edit(source, edit):
    """`source` with the one occurrence of `old` replaced by `new`, or None
    when `old` does not occur exactly once."""
    old, new = edit
    return source.replace(old, new) if source.count(old) == 1 else None


class Daemon:
    """One `serve` process over stdio, one request at a time."""

    def __init__(self, binary, persist_dir=None):
        args = [binary, "serve"]
        if persist_dir:
            args += ["--persist-dir", persist_dir]
        self.proc = subprocess.Popen(
            args,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.sent, self.by_cmd = {}, {}

    def request(self, req):
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"daemon closed stdout on {req['cmd']}:\n{self.proc.stderr.read()}")
        resp = json.loads(line)
        if not resp.get("ok"):
            sys.exit(f"request {req['cmd']} failed: {resp}")
        self.sent[req["cmd"]] = self.sent.get(req["cmd"], 0) + 1
        self.by_cmd[req["cmd"]] = resp
        return resp

    def quit(self):
        self.request({"cmd": "quit"})
        self.proc.stdin.close()
        code = self.proc.wait(timeout=300)
        stderr = self.proc.stderr.read()
        if code != 0:
            sys.exit(f"daemon exited with {code}:\n{stderr}")

    def guru_and_slice(self, source):
        """`guru`, then `slice` of its top target (else the first loop)."""
        guru = self.request({"cmd": "guru"})
        targets = guru.get("targets", [])
        target = targets[0]["loop"] if targets else first_loop(source)
        return guru, self.request({"cmd": "slice", "loop": target})


def drive(binary, persist_dir, source, checkpoint):
    """One daemon, one request at a time; returns the replies by command."""
    daemon = Daemon(binary, persist_dir)
    daemon.request({"cmd": "load", "text": source})
    daemon.guru_and_slice(source)
    if checkpoint:
        daemon.request({"cmd": "checkpoint"})
    before_stats = dict(daemon.sent)
    stats = daemon.request({"cmd": "stats"})
    daemon.quit()

    latency = stats["service"]["latency"]
    counted = {cmd: h["count"] for cmd, h in latency.items()}
    assert counted == before_stats, f"latency counts {counted}, sent {before_stats}"
    for cmd, h in latency.items():
        assert 0 < h["p50_us"] <= h["p90_us"] <= h["p99_us"], f"{cmd}: {h}"
    return daemon.by_cmd


def guru_fingerprint(resp):
    assert "rendered" in resp, f"guru reply carries no rendered report: {resp}"
    return json.dumps(resp, sort_keys=True)


def without_wall_clock(resp):
    """A reply's JSON with the Guru's `(~… ms)` estimate masked."""
    return re.sub(r"\(~[0-9.]+ ms\)", "(~ ms)", json.dumps(resp, sort_keys=True))


def execute_of(resp):
    """`(passes.execute.invocations, execution.reused)` of an open."""
    runs = resp["passes"].get("execute", {}).get("invocations", 0)
    return runs, resp["execution"]["reused"]


def drive_edits(binary, persist_dir, data_edited, bound_edited):
    """Run 3 over the persisted DIR, and a fresh daemon on the same text."""
    daemon = Daemon(binary, persist_dir)
    opened = daemon.request({"cmd": "load", "text": data_edited})
    assert execute_of(opened) == (0, True), (
        f"a data-only edit interpreted again across the restart: {execute_of(opened)}"
    )
    liveness = opened["passes"].get("liveness", {})
    assert (liveness.get("invocations", 0), liveness.get("shared", 0)) == (0, 1), (
        f"a data-only edit must import the persisted liveness fact: {liveness}"
    )
    passes = daemon.request({"cmd": "stats"})["passes"]
    decoded = daemon.by_cmd["stats"]["snapshot"]["values_decoded"]
    assert passes["classify"]["invocations"] > 0, f"the edit reclassifies: {passes}"

    def served(name):
        p = passes.get(name, {})
        return p.get("reused", 0) + p.get("shared", 0)

    read = sum(served(name) for name in ("summarize", "classify", "deps", "execute"))
    assert decoded == read, (
        f"the data-edited load decoded {decoded} values, not the {read} verdicts, "
        f"tables, run and summaries it read: the liveness fact was decoded"
    )
    replies = [without_wall_clock(r) for r in daemon.guru_and_slice(data_edited)]
    reloaded = daemon.request({"cmd": "reload", "text": bound_edited})
    assert execute_of(reloaded) == (1, False), (
        f"a bound edit must interpret again: {execute_of(reloaded)}"
    )
    daemon.quit()

    fresh = Daemon(binary)
    assert execute_of(fresh.request({"cmd": "load", "text": data_edited})) == (1, False)
    expected = [without_wall_clock(r) for r in fresh.guru_and_slice(data_edited)]
    fresh.quit()
    assert replies == expected, (
        f"a reused run answered differently:\n  reused: {replies}\n  fresh: {expected}"
    )
    return opened


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, program = sys.argv[1], sys.argv[2]
    with open(program) as f:
        source = f.read()
    data_edited = apply_edit(source, DATA_EDIT)
    bound_edited = apply_edit(source, BOUND_EDIT)
    edits = data_edited is not None and bound_edited is not None

    with tempfile.TemporaryDirectory(prefix="suif_warm_smoke_") as persist_dir:
        cold = drive(binary, persist_dir, source, checkpoint=True)
        warm = drive(binary, persist_dir, source, checkpoint=False)
        edited = drive_edits(binary, persist_dir, data_edited, bound_edited) if edits else None

    cold_snap = cold["stats"]["snapshot"]
    assert cold_snap["status"] == "none", f"fresh dir must cold-start: {cold_snap}"
    assert cold["checkpoint"]["facts"] > 0, f"checkpoint persisted nothing: {cold['checkpoint']}"

    warm_snap = warm["stats"]["snapshot"]
    assert warm_snap["status"] == "loaded", f"restart must load the snapshot: {warm_snap}"
    assert warm_snap["warm_hits"] > 0, f"restart must import facts: {warm_snap}"
    assert warm_snap["evicted_stale"] == 0, f"unchanged program evicted facts: {warm_snap}"
    assert warm_snap["cold_misses"] == 0, f"restart computed facts anew: {warm_snap}"
    loops = len(re.findall(r"^\s*do\s+\d+\b", source, re.MULTILINE))
    assert 0 < warm_snap["values_decoded"] <= loops + 2, (
        f"load -> guru -> slice decoded more than {loops} verdicts, the run and "
        f"one dependence table: {warm_snap}"
    )

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

    if edited is not None:
        assert edited["execution"]["ops"] == cold_run["ops"], (
            f"{cold_run} vs {edited['execution']}"
        )

    print(
        f"warm start OK: {warm_snap['warm_hits']} facts imported, "
        f"0 summarize/liveness/classify/deps/execute invocations, "
        f"{warm_snap['values_decoded']} values decoded, "
        f"identical guru and slice output, every command in stats.service.latency; "
        + (
            "a data-only edit reused the persisted run and liveness (never decoded), "
            "a bound edit ran again"
            if edited is not None
            else "run 3 skipped: the program lacks the demo.mf edits"
        )
    )


if __name__ == "__main__":
    main()
