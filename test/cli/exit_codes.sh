#!/usr/bin/env bash
# Shell-level contract for the phoenix CLI's exit codes:
#   0 clean, 2 usage/input errors, 3 verification errors, 4 lint errors,
#   5 deadline exceeded with no fallback rung.
# Driven by dune (test/cli/dune); $1 is the phoenix executable.
set -u
BIN="$1"
fail=0

expect() {
  want="$1"; shift
  "$BIN" "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: phoenix $* -> exit $got (want $want)" >&2
    fail=1
  else
    echo "ok: phoenix $* -> $got"
  fi
}

W=uccsd:LiH_frz_JW

# clean runs
expect 0 compile "$W"
expect 0 compile "$W" --verify --lint
expect 0 analyze "$W"
expect 0 analyze --list
# dangling wire is a warning, not an error: exit stays 0
expect 0 analyze heisenberg:6 --inject-fault dangling

# pipeline registry: --pipeline dispatch, the passes listing, tracing
expect 0 compile "$W" --pipeline tket
expect 0 compile "$W" --pipeline phoenix --trace -
expect 0 passes
expect 0 passes --pipeline phoenix
expect 0 passes --pipeline 2qan

# a --trace file lands on disk and carries the schema marker
rm -f trace_probe.json
"$BIN" compile "$W" --trace trace_probe.json >/dev/null 2>&1
if grep -q '"phoenix-trace-v1"' trace_probe.json 2>/dev/null; then
  echo "ok: --trace wrote phoenix-trace-v1 JSON"
else
  echo "FAIL: --trace did not write phoenix-trace-v1 JSON" >&2
  fail=1
fi
rm -f trace_probe.json

# synthesis cache: disk round-trip in a private directory, warm output
# byte-identical to cold, and the cache subcommand's contract
CACHE_TMP="$(mktemp -d)"
export PHOENIX_CACHE_DIR="$CACHE_TMP"
expect 0 compile "$W" --cache off
expect 0 compile "$W" --cache mem --cache-stats
expect 0 compile "$W" --cache disk
expect 0 compile "$W" --cache disk --verify --lint
expect 0 cache stats
expect 0 cache stats --json
expect 0 cache audit
expect 0 cache warm "$W"
"$BIN" compile "$W" --cache off --dump > cache_cold.txt 2>/dev/null
"$BIN" compile "$W" --cache disk --dump > cache_warm.txt 2>/dev/null
if cmp -s cache_cold.txt cache_warm.txt; then
  echo "ok: --cache disk dump identical to cold"
else
  echo "FAIL: --cache disk dump differs from cold" >&2
  fail=1
fi
rm -f cache_cold.txt cache_warm.txt
# the 3/4 contract is unchanged when compiling through the disk tier
expect 3 compile "$W" --cache disk --verify --inject-fault out-of-isa
expect 4 compile "$W" --cache disk --lint --inject-fault nan-angle
expect 0 cache clear
expect 2 compile "$W" --cache no-such-tier
unset PHOENIX_CACHE_DIR
rm -rf "$CACHE_TMP"

# usage / input errors
expect 2 compile no-such-workload
expect 2 analyze
expect 2 compile "$W" --compiler no-such-compiler
expect 2 compile "$W" --pipeline no-such-pipeline
expect 2 passes --pipeline no-such-pipeline
expect 2 compile "$W" --topology no-such-topology
expect 2 compile heisenberg:6 --compiler 2qan
# every front end resolves through the same request validation
expect 2 compile "$W" --compiler 2qan --topology line
expect 2 compile heisenberg:6 --stream 1 --compiler 2qan
expect 2 compile "$W" --template --topology no-such-topology
expect 2 certify "$W" --template --topology no-such-topology
expect 2 cache warm "$W" --topology no-such-topology

# verification errors (exit 3), which take precedence over lint errors
expect 3 compile "$W" --verify --inject-fault out-of-isa
expect 3 compile "$W" --verify --lint --inject-fault out-of-isa

# lint errors (exit 4)
expect 4 compile "$W" --lint --inject-fault nan-angle
expect 4 analyze "$W" --inject-fault out-of-isa
expect 4 analyze heisenberg:6 --inject-fault nan-angle

# deadlines: on a logical target every pass that can expire has a
# fallback rung, so an immediate deadline degrades but still completes
# (and the degraded circuit still verifies and lints clean); routing has
# no fallback, so a hardware target under the same deadline exits 5
expect 0 compile "$W" --timeout 0.000001
expect 0 compile "$W" --timeout 0.000001 --verify --lint
expect 5 compile "$W" --topology heavy-hex --timeout 0.000001
expect 2 compile "$W" --timeout=-1
# a degraded run advertises the ladder steps on stdout
if "$BIN" compile "$W" --timeout 0.000001 2>/dev/null | grep -q '^degraded:'; then
  echo "ok: degraded runs report their ladder steps"
else
  echo "FAIL: degraded run did not print a degraded: line" >&2
  fail=1
fi

# parametric templates: --template dumps cleanly; --bind must cover every
# parameter ('*=V' wildcard) and reject unknown names; baselines have no
# template support; linting an unbound template hits the unbound-slot
# finding (exit 4) while a bound one certifies clean
expect 0 compile "$W" --template
expect 0 compile "$W" --template --bind '*=1.0' --dump
expect 0 compile "$W" --bind '*=0.7' --verify --lint
expect 2 compile "$W" --bind 'theta0=0.5'
expect 2 compile "$W" --bind 'zeta=1.0,*=2.0'
expect 2 compile "$W" --bind 'theta0=abc,*=1.0'
expect 2 compile "$W" --template --pipeline tket
expect 4 compile "$W" --template --lint
# binding every parameter to 1.0 replays the plain compile byte-for-byte
"$BIN" compile "$W" --dump > bind_plain.txt 2>/dev/null
"$BIN" compile "$W" --template --bind '*=1.0' --dump > bind_bound.txt 2>/dev/null
if cmp -s bind_plain.txt bind_bound.txt; then
  echo "ok: --template --bind '*=1.0' --dump identical to plain --dump"
else
  echo "FAIL: bound-template dump differs from plain compile dump" >&2
  fail=1
fi
rm -f bind_plain.txt bind_bound.txt

# streaming: --stream N compiles N Trotter-step chunks with bounded peak
# memory; chunked gate output is identical to the whole-program compile
# repeated N times (gate lines start with an uppercase mnemonic — the
# stream summary block interleaves differently, so compare gates only);
# hardware targets, non-positive step counts and the template combo are
# usage errors
expect 0 compile heisenberg:6 --stream 1
expect 0 compile heisenberg:6 --stream 3 --verify --lint
expect 0 compile fermi-hubbard:2x2 --stream 2
expect 2 compile heisenberg:6 --stream 0
expect 2 compile heisenberg:6 --stream 2 --topology line
expect 2 compile heisenberg:6 --stream 1 --template
expect 3 compile heisenberg:6 --stream 1 --verify --inject-fault out-of-isa
expect 4 compile heisenberg:6 --stream 1 --lint --inject-fault nan-angle
"$BIN" compile heisenberg:6 --dump 2>/dev/null | grep -E '^[A-Z]' > stream_plain.txt
"$BIN" compile heisenberg:6 --stream 1 --dump 2>/dev/null | grep -E '^[A-Z]' > stream_one.txt
if cmp -s stream_plain.txt stream_one.txt; then
  echo "ok: --stream 1 gate dump identical to whole-program dump"
else
  echo "FAIL: --stream 1 gate dump differs from whole-program dump" >&2
  fail=1
fi
cat stream_plain.txt stream_plain.txt stream_plain.txt > stream_triple.txt
"$BIN" compile heisenberg:6 --stream 3 --dump 2>/dev/null | grep -E '^[A-Z]' > stream_three.txt
if cmp -s stream_triple.txt stream_three.txt; then
  echo "ok: --stream 3 gate dump is three chunked repetitions"
else
  echo "FAIL: --stream 3 gate dump is not three chunked repetitions" >&2
  fail=1
fi
rm -f stream_plain.txt stream_one.txt stream_triple.txt stream_three.txt

# symbolic certification: certify (and compile --certify) prove every
# boundary on clean runs, the unbound template certifies statically, and
# the --cert artifact carries the phoenix-cert-v1 schema marker
expect 0 certify "$W"
expect 0 certify "$W" --topology heavy-hex
expect 0 certify "$W" --template
expect 0 compile "$W" --certify
expect 0 compile "$W" --template --certify
expect 2 certify no-such-workload
rm -f cert_probe.json
"$BIN" certify "$W" --json cert_probe.json >/dev/null 2>&1
if grep -q '"phoenix-cert-v1"' cert_probe.json 2>/dev/null \
  && grep -q '"overall": *"proved"' cert_probe.json 2>/dev/null; then
  echo "ok: --cert wrote a proved phoenix-cert-v1 JSON"
else
  echo "FAIL: --cert did not write a proved phoenix-cert-v1 JSON" >&2
  fail=1
fi
rm -f cert_probe.json

# analysis selection: --only/--skip filter by name, unknown names are
# usage errors listing the registry
expect 0 analyze "$W" --only translation-validation
expect 0 analyze "$W" --only liveness,angle-sanity
expect 0 analyze "$W" --skip translation-validation
expect 2 analyze "$W" --only no-such-analysis
expect 2 analyze "$W" --skip no-such-analysis

# chaos soak: a short seeded run must classify every outcome (exit 0),
# and malformed plans or run counts are usage errors
expect 0 chaos --runs 2 --pipelines phoenix --workload heisenberg:4
expect 2 chaos --runs 1 --plan bogus
expect 2 chaos --runs 0
expect 2 chaos --runs 1 --pipelines no-such-pipeline

# serve: the daemon flag contract — exactly one of --socket/--port,
# bounds on ports and pool/queue/limit sizes, unreachable addresses —
# all exit 2; the self-test boots a real daemon on an ephemeral unix
# socket, round-trips ping/compile/template/stats/malformed through a
# client connection, and drains (exit 0)
expect 0 serve --self-test
expect 2 serve
expect 2 serve --port 99999
expect 2 serve --socket /no/such/dir/phx.sock
expect 2 serve --socket /tmp/phx_contract.sock --port 7777
expect 2 serve --port 7777 --workers 0
expect 2 serve --port 7777 --max-queue 0
expect 2 serve --port 7777 --max-request-kb 0
expect 2 serve --port 7777 --timeout=-1
expect 2 serve --connect bad-address
expect 2 serve --connect tcp:localhost:1

exit "$fail"
