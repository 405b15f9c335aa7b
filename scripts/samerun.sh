#!/usr/bin/env bash
# samerun.sh <rev> - does the working tree print what <rev> prints?
#
# Builds fusesim and fusebench from <rev> (a clean export of its committed
# files) and from the working tree, runs the same deterministic workloads
# on both, and prints a diff for every output that differs:
#
#   - fusesim's verbose protocol trace (its sha256) and report for
#     -nodes 300 -groups 40 -seed 7;
#   - every preset at -short -seed 3 -metrics, with -workers 0 and 4;
#   - every preset's -dump, and the flags path's -dump;
#   - fusebench -exp <e> -short -seed 1 for every experiment but
#     paperscale100k, with the lines that read the wall clock dropped.
#
# Each output records its exit status too. Exits 0 when every output is
# identical, 1 on any difference, 2 when an argument or a build is bad.
# Temporary files go under ${TMPDIR:-/tmp} and are removed on exit.
#
#   scripts/samerun.sh HEAD        # uncommitted edits against the last commit
#   scripts/samerun.sh main~1      # the last commit on main against its parent
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: scripts/samerun.sh <rev>" >&2
	exit 2
fi
rev=$1
root=$(git rev-parse --show-toplevel)
if ! git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
	echo "samerun: unknown revision $rev" >&2
	exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/samerun.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/src"
git -C "$root" archive "$rev" | tar -x -C "$work/src"
for side in base:"$work/src" head:"$root"; do
	name=${side%%:*} dir=${side#*:}
	if ! (cd "$dir" && go build -o "$work/$name/bin/" ./cmd/fusesim ./cmd/fusebench); then
		echo "samerun: building $name failed" >&2
		exit 2
	fi
done

# Both sides' binaries name what to run, and every name either lists
# runs on both: a preset or experiment that <rev> lacks, or that the
# working tree lacks, records that side's error and exit status and so
# shows up as a difference.
presets=$(for s in base head; do "$work/$s/bin/fusesim" -list-scenarios | awk '/^  /{print $1}'; done | sort -u)
exps=$(for s in base head; do { "$work/$s/bin/fusebench" 2>&1 || true; } |
	sed -n 's/^available: \[\(.*\)\], all$/\1/p' | tr ' ' '\n'; done | grep -vx paperscale100k | sort -u)

# record <file> <cmd...>: the command's stdout and stderr, then its exit
# status, into <file>.
record() {
	local out=$1
	shift
	local status=0
	"$@" >"$out" 2>&1 || status=$?
	echo "exit status $status" >>"$out"
}

collect() {
	local bin=$work/$1/bin out=$work/$1/out
	mkdir -p "$out"
	(cd "$out" && record fusesim-trace.txt "$bin/fusesim" -nodes 300 -groups 40 -seed 7 -trace trace.jsonl -trace-pings &&
		sha256sum trace.jsonl >>fusesim-trace.txt && rm -f trace.jsonl)
	for p in $presets; do
		for w in 0 4; do
			record "$out/preset-$p-workers$w.txt" "$bin/fusesim" -scenario "$p" -short -seed 3 -metrics -workers "$w"
		done
		record "$out/dump-$p.json" "$bin/fusesim" -scenario "$p" -short -dump
	done
	record "$out/dump-flags.json" "$bin/fusesim" -nodes 60 -groups 10 -size 4 -crash 2 -seed 7 -dump
	for e in $exps; do
		record "$out/fusebench-$e.txt" "$bin/fusebench" -exp "$e" -short -seed 1
		grep -v wall "$out/fusebench-$e.txt" >"$out/tmp" || true
		mv "$out/tmp" "$out/fusebench-$e.txt"
	done
}

collect base
collect head

differ=0
for f in $( (ls "$work/base/out" && ls "$work/head/out") | sort -u); do
	if ! diff -u -N --label "$rev/$f" --label "working-tree/$f" "$work/base/out/$f" "$work/head/out/$f"; then
		differ=1
	fi
done
if [ $differ -eq 0 ]; then
	echo "samerun: every output identical to $rev"
fi
exit $differ
