#!/bin/sh
# Full pre-merge check: build everything under the strict dev profile
# (warnings are errors), run the test suite, lint every example
# workload with the static analyzer, run every example program, run
# the end-to-end smoke aliases
# (query server, bench JSON export, multi-domain execution, explain
# reports, conformance fuzzing, extended relational operators,
# structured query log, plan cache, standing queries, the served-path
# benchmark at smoke size), and compare a fresh bench run
# against the committed BENCH_seed.json (an enforcing gate:
# drift-normalized p50 regressions that persist across three re-runs
# fail the check unless TCSQ_BENCH_ALLOW_REGRESSION=1).
# Fails fast on the first broken step, printing one `ok`/`FAIL`
# summary line per step so the break point is obvious in CI logs.
set -u
cd "$(dirname "$0")/.."

step() {
    name=$1
    shift
    if "$@"; then
        echo "check.sh: ok   $name"
    else
        echo "check.sh: FAIL $name ($*)" >&2
        exit 1
    fi
}

step build          dune build
step tests          dune runtest
step lint           dune build @lint
step examples       dune build @examples
step server-smoke   dune build @server-smoke
step bench-smoke    dune build @bench-smoke
step parallel-smoke dune build @parallel-smoke
step explain-smoke  dune build @explain-smoke
step fuzz-smoke     dune build @fuzz-smoke
step relops-smoke   dune build @relops-smoke
step qlog-smoke     dune build @qlog-smoke
step plancache-smoke dune build @plancache-smoke
step subscribe-smoke dune build @subscribe-smoke
step perfbench-smoke dune build @perfbench-smoke
step bench-compare  bin/bench_compare.sh
echo "check.sh: all steps clean"
