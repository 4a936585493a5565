#!/usr/bin/env bash
# Checks that EXPERIMENTS.md is what the tree generates: regenerates the
# report with `s4dbench -o -parallel 1` and again with `-parallel 4`, drops
# the wall-clock lines (`regenerated in`, `worker(s)`) from both and from
# the committed file, and diffs each against the committed file. The
# virtual-time tables are deterministic for any worker count, so any diff
# is a change in results (regenerate and commit EXPERIMENTS.md) or a
# determinism bug (event order depending on scheduling or map order).
#
# It then runs a fault plan (transient CServer I/O errors, a crash and
# restart, retries) through s4dbench's stdout mode at -parallel 1 and 4;
# the two outputs must be identical apart from `finished in` lines.
#
# Run from the repository root: bash scripts/check-experiments.sh
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

strip() { grep -Ev 'regenerated in|worker\(s\)' "$1" || true; }

go build -o "$tmp/s4dbench" ./cmd/s4dbench
strip EXPERIMENTS.md >"$tmp/committed.md"
failed=0
for p in 1 4; do
	if ! "$tmp/s4dbench" -o "$tmp/p$p.md" -parallel "$p" >"$tmp/p$p.log" 2>&1; then
		cat "$tmp/p$p.log" >&2
		exit 1
	fi
	strip "$tmp/p$p.md" >"$tmp/p$p.tables"
	if ! diff -u --label EXPERIMENTS.md --label "s4dbench -o -parallel $p" "$tmp/committed.md" "$tmp/p$p.tables"; then
		failed=1
	fi
done
if ((failed)); then
	echo "EXPERIMENTS.md differs from the regenerated report" >&2
	exit 1
fi
echo "EXPERIMENTS.md matches the report at -parallel 1 and 4"

plan='io:cpfs:0.2;crash:cpfs1@10ms+20ms;retry:3'
for p in 1 4; do
	if ! "$tmp/s4dbench" -faults "$plan" -parallel "$p" >"$tmp/faults$p.out" 2>"$tmp/faults$p.log"; then
		cat "$tmp/faults$p.log" >&2
		exit 1
	fi
	grep -v "finished in" "$tmp/faults$p.out" >"$tmp/faults$p.tables" || true
done
if ! diff -u --label "s4dbench -faults -parallel 1" --label "s4dbench -faults -parallel 4" "$tmp/faults1.tables" "$tmp/faults4.tables"; then
	echo "the fault plan's table depends on -parallel" >&2
	exit 1
fi
echo "the fault plan's table is identical at -parallel 1 and 4"
