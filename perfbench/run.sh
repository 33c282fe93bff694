#!/bin/sh
# Builds the server and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#   sh perfbench/run.sh --workload serve-point --seed 1 --seconds 10 --trace 0
#
# The benchmark and every server it spawns run pinned to one CPU (the
# last this process may use). On a VM with few vCPUs, a request handed
# between processes on two vCPUs wakes a halted vCPU, and the host
# charges the wait to run it again as steal; with everything on one CPU
# that CPU stays busy for the whole closed loop. See README.md.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a full tcsq source checkout: $(pwd)" >&2
  exit 2
fi
dune build --root . ./bin/tcsq.exe ./perfbench/perfbench.exe 1>&2
cpu=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status | tr ',' '\n' | tail -n 1 | sed 's/.*-//')
if [ -z "$cpu" ] || ! command -v taskset >/dev/null 2>&1; then
  echo "perfbench: cannot pin to one CPU (needs taskset and /proc/self/status)" >&2
  exit 2
fi
exec taskset -c "$cpu" ./_build/default/perfbench/perfbench.exe "$@"
