#!/usr/bin/env bash
# Builds the benchmark and the gradsyncd daemon from the source tree it sits
# in, then runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ring-messaging-100k --seed 1 --seconds 30 --trace 0
#
# Binaries, the Go build cache, the compiler's scratch files and trace spans
# all go to .bench_build/ (or $CARGO_TARGET_DIR when set), so nothing is
# written outside the tree. The last line of standard output is the JSON
# result; build output goes to standard error.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(
	cd "$here"
	go build -o "$out/perfbench" .
	go build -o "$out/gradsyncd" repro/cmd/gradsyncd
) >&2

exec "$out/perfbench" -gradsyncd "$out/gradsyncd" -spans "$out/spans" "$@"
