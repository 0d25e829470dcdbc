#!/usr/bin/env bash
# Append one line to the benchmark trajectory, docs/bench-history/trajectory.jsonl.
#
#   scripts/trajectory.sh --pr <n> [--trace <0|1>]
#
# Runs `perfbench/run.sh` for the five workloads at seed 1 for 12 s each (the
# benchmark's `run_seconds`), so that every line compares with the others, and
# appends one JSON object: the PR number, the commit (`git describe --always
# --dirty`), the seed, the length, the host's CPU count, and per workload the
# four end-to-end metrics (`setup_s`, `cold_ms`, `warm_ms`, `peak_rss_mb`).
# With `--trace 1` every workload also runs traced and the line gains
# `layers`: per workload, its per-layer metrics (`dynamic.plain_run_s`,
# `dynamic.dyndep_run_s`, `analysis.analyze_s`, `server.cmd_ms.*`, ...).  A
# workload that fails an operation fails the script, and nothing is appended.
# Lines marked `"backfilled": true` were transcribed from the ROADMAP's table,
# not run.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/docs/bench-history/trajectory.jsonl"
seed=1 seconds=12 pr="" trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --pr) pr="$2" ;;
    --trace) trace="$2" ;;
    *) echo "usage: $0 --pr <n> [--trace <0|1>]" >&2
       exit 1 ;;
  esac
  shift 2
done
[ -n "$pr" ] || { echo "$0: --pr is required" >&2; exit 1; }

runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT
workloads="ch4_open ch4_interactive suite_static gen_fleet ch4_certify"
for w in $workloads; do
  bash "$root/perfbench/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
    | tail -n 1 > "$runs/$w.json"
  if [ "$trace" = 1 ]; then
    bash "$root/perfbench/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
      | tail -n 1 > "$runs/$w.traced.json"
  fi
done

python3 - "$runs" "$out" "$pr" "$seed" "$seconds" "$(git -C "$root" describe --always --dirty)" \
  "$(nproc)" $workloads <<'EOF'
import json, os, sys
runs, out, pr, seed, seconds, commit, cpus, *workloads = sys.argv[1:]
END_TO_END = ('setup_s', 'cold_ms', 'warm_ms', 'peak_rss_mb')

def result(path):
    r = json.load(open(path))
    if r['failed'] != 0 or not r['correct']:
        sys.exit(f'{path}: {r["failed"]} of {r["attempted"]} operations failed')
    return {name: m['value'] for name, m in r['metrics'].items()}

line = {'pr': int(pr), 'commit': commit, 'seed': int(seed), 'seconds': float(seconds),
        'cpus': int(cpus), 'backfilled': False, 'workloads': {}}
for w in workloads:
    metrics = result(os.path.join(runs, w + '.json'))
    line['workloads'][w] = {name: metrics[name] for name in END_TO_END}
    traced = os.path.join(runs, w + '.traced.json')
    if os.path.exists(traced):
        line.setdefault('layers', {})[w] = result(traced)
with open(out, 'a') as f:
    f.write(json.dumps(line, sort_keys=True) + '\n')
print(json.dumps(line['workloads'], sort_keys=True))
EOF
