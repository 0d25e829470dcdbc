#!/usr/bin/env python3
"""Fleet memory smoke test: does `--shared-budget` bound what a `corpus` costs?

Drives `suif-explorer serve` over stdio (no network) with six
`{"cmd":"corpus","gen":500}` requests over disjoint seed ranges — 3000
generated programs, the `gen_fleet` workload's population — and reads the
daemon's memory from `/proc/<pid>/status` after every reply:

  budgeted:   `serve --shared-budget 4000000` — the peak resident set
              (`VmHWM`) must stay under 20 MB: every analysis result is a
              fact in the tier, so the tier's budget is the fleet's budget.
  unbudgeted: plain `serve` — the resident set (`VmRSS`) may grow by at
              most 30 MB per 500 programs (the tier keeps every fact, each
              in its compact form).

After each run it prints the tier's ledger (`summary.tier.resident_bytes`)
over what the process holds (`summary.process.rss_bytes`).

Usage: fleet_rss_smoke.py <suif-explorer binary>
"""

import json
import subprocess
import sys

BATCHES = 6
BATCH = 500
BUDGETED_PEAK_MB = 20
UNBUDGETED_GROWTH_MB = 30


def status_mb(pid, field):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    sys.exit(f"/proc/{pid}/status has no {field}")


def drive(binary, flags):
    """Run the six batches; return (VmRSS after each batch, final VmHWM,
    the last summary)."""
    proc = subprocess.Popen(
        [binary, "serve", *flags],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    rss = []
    try:
        for i in range(BATCHES):
            req = {"cmd": "corpus", "gen": BATCH, "seed_base": i * BATCH}
            proc.stdin.write(json.dumps(req) + "\n")
            proc.stdin.flush()
            reply = json.loads(proc.stdout.readline())
            summary = reply.get("summary", {})
            if not reply.get("ok") or summary.get("ok") != BATCH:
                sys.exit(f"corpus batch {i} failed: {json.dumps(reply)[:400]}")
            rss.append(status_mb(proc.pid, "VmRSS"))
        peak = status_mb(proc.pid, "VmHWM")
        proc.stdin.write('{"cmd":"quit"}\n')
        proc.stdin.flush()
        proc.stdin.close()
        if proc.wait(timeout=60) != 0:
            sys.exit(f"daemon exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return rss, peak, summary


def ledger_line(summary):
    """The tier's ledger over the process's resident set, from a summary."""
    ledger = summary.get("tier", {}).get("resident_bytes")
    rss = summary.get("process", {}).get("rss_bytes")
    if ledger is None or not rss:
        return "ledger/RSS n/a (no summary.process)"
    return f"ledger {ledger / 2**20:.1f} MB / RSS {rss / 2**20:.1f} MB = {ledger / rss:.2f}"


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = sys.argv[1]
    failures = []

    rss, peak, summary = drive(binary, ["--shared-budget", "4000000"])
    print(f"budgeted:   VmHWM {peak:.1f} MB, VmRSS per batch {[round(r, 1) for r in rss]}")
    print(f"            {ledger_line(summary)}")
    if peak > BUDGETED_PEAK_MB:
        failures.append(
            f"--shared-budget 4000000: VmHWM {peak:.1f} MB > {BUDGETED_PEAK_MB} MB"
        )

    rss, peak, summary = drive(binary, [])
    growth = (rss[-1] - rss[0]) / (BATCHES - 1)
    print(
        f"unbudgeted: VmHWM {peak:.1f} MB, {growth:.1f} MB per {BATCH} programs, "
        f"VmRSS per batch {[round(r, 1) for r in rss]}"
    )
    print(f"            {ledger_line(summary)}")
    if growth > UNBUDGETED_GROWTH_MB:
        failures.append(
            f"plain serve: {growth:.1f} MB per {BATCH} programs > {UNBUDGETED_GROWTH_MB} MB"
        )

    if failures:
        sys.exit("FAIL: " + "; ".join(failures))
    print("OK: the fleet path's memory is bounded by the tier's budget")


if __name__ == "__main__":
    main()
