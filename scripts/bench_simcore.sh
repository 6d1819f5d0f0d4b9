#!/bin/sh
# bench_simcore.sh — run the simulator-core throughput benchmarks and emit
# BENCH_simcore.json, the machine-readable trajectory record tracked from
# PR 2 on. CI runs this and uploads the JSON as an artifact; run it locally
# before/after perf work to quantify a change:
#
#	./scripts/bench_simcore.sh            # writes ./BENCH_simcore.json
#	./scripts/bench_simcore.sh out.json   # custom output path
#	BENCHTIME=30x ./scripts/bench_simcore.sh
#
# The script fails on build/bench errors only; it never fails on a
# regression (trajectory tracking first — compare against the committed
# baseline by hand or in review).
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_simcore.json}"
benchtime="${BENCHTIME:-10x}"

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# No pipe: a panicking benchmark must fail the script, and POSIX sh has
# no pipefail to catch it through tee.
if ! go test -bench 'Benchmark((Simulator|Emulator)Throughput|Emulator(DecodeCache|Uncached)|SampledCampaign|Sweep(No)?Ckpt|LockstepSweep|WindowFork)$' \
	-benchtime "$benchtime" -run '^$' . > "$tmp" 2>&1; then
	cat "$tmp" >&2
	echo "bench_simcore: go test -bench failed" >&2
	exit 1
fi
cat "$tmp"

go_version=$(go version | awk '{print $3}')
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)

awk -v go_version="$go_version" -v commit="$commit" -v stamp="$stamp" '
/^Benchmark((Simulator|Emulator)Throughput|Emulator(DecodeCache|Uncached)|SampledCampaign|Sweep(No)?Ckpt|LockstepSweep|WindowFork)/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^Benchmark/, "", name)
	ns[name] = $3
	# MB/s with B = instructions, so MB/s reads as M inst/s.
	ips[name] = $5 * 1e6
	order[n++] = name
}
END {
	if (n == 0) { print "bench_simcore: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
	printf "{\n"
	printf "  \"schema\": \"bench_simcore/v1\",\n"
	printf "  \"generated\": \"%s\",\n", stamp
	printf "  \"commit\": \"%s\",\n", commit
	printf "  \"go\": \"%s\",\n", go_version
	# checkpoint_speedup is the acceptance ratio of the checkpoint store:
	# the same 8-cell sampled IQ sweep, warm-from-scratch over resumed.
	if (ns["SweepNoCkpt"] > 0 && ns["SweepCkpt"] > 0)
		printf "  \"checkpoint_speedup\": %.2f,\n", ns["SweepNoCkpt"] / ns["SweepCkpt"]
	# lockstep_speedup: the same sweep per-cell over lockstep-batched
	# (one emulator stream feeding all 8 cores). Acceptance gate: >= 2x.
	if (ns["SweepNoCkpt"] > 0 && ns["LockstepSweep"] > 0)
		printf "  \"lockstep_speedup\": %.2f,\n", ns["SweepNoCkpt"] / ns["LockstepSweep"]
	# decode_cache_speedup: the emulator reference interpreter over the
	# decoded-dispatch path (the default since the decode cache landed).
	if (ns["EmulatorUncached"] > 0 && ns["EmulatorDecodeCache"] > 0)
		printf "  \"decode_cache_speedup\": %.2f,\n", ns["EmulatorUncached"] / ns["EmulatorDecodeCache"]
	printf "  \"benchmarks\": {\n"
	for (i = 0; i < n; i++) {
		name = order[i]
		printf "    \"%s\": {\"ns_per_op\": %d, \"inst_per_sec\": %d}%s\n", \
			name, ns[name], ips[name], (i < n-1 ? "," : "")
	}
	printf "  }\n}\n"
}' "$tmp" > "$out"

echo "wrote $out"
