# Sourced by every cram test here. `tcsq` is the binary under test;
# background jobs run "$TCSQ" itself so that $! is that process.
# start_server runs `tcsq serve ARGS` on the relative socket s.sock
# (output in server.log) and waits at most 30 s for the socket; its EXIT
# trap kills a server the test never stopped and keeps the cram runner's
# own `exit 0`. `ask` is `tcsq client` on that socket; stop_server shuts
# the server down over the protocol and waits for it. `both Q GRAPH...`
# prints Q's count over the wire and from one-shot `tcsq query GRAPH...`.
# `scrub` blanks wall-clock stamps and timings.

TCSQ=../../bin/tcsq.exe
tcsq() { "$TCSQ" "$@"; }
ask() { tcsq client --socket s.sock "$@"; }

start_server() {
  "$TCSQ" serve --socket s.sock "$@" > server.log 2>&1 &
  SRV_PID=$!
  trap 'kill $SRV_PID 2> /dev/null; exit 0' EXIT
  i=0
  until [ -S s.sock ]; do
    if [ $i -ge 300 ] || ! kill -0 $SRV_PID 2> /dev/null; then
      echo "server did not start:"; cat server.log; return 1
    fi
    i=$((i + 1)); sleep 0.1
  done
}

stop_server() { ask --shutdown > /dev/null && wait $SRV_PID; }

both() {
  q=$1; shift
  echo "server $(ask --match "$q" --count | sed -n 's/.*"count": \([0-9]*\).*/\1/p')," \
    "one-shot $(tcsq query "$@" --match "$q" --count | sed -n 's/ matches.*//p')"
}

scrub() {
  sed -e 's/"ts": [0-9]*\.[0-9]*/"ts": _/g' \
    -e 's/"\(elapsed_ms\|duration_ms\)": [0-9.e+-]*/"\1": _/g' \
    -e 's/ in [0-9.]* ms (.*)$//'
}
