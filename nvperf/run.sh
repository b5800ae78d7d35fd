#!/usr/bin/env bash
# Builds the nvperf benchmark from source and runs it with the given
# arguments, from the root of a checkout of the repository:
#
#   bash nvperf/run.sh --workload ycsb-cold --seed 1 --seconds 6 --trace 0
#
# Every build and cache file stays inside the checkout, under .bench_build/.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ ! -f "${here}/../go.mod" ]; then
	echo "nvperf: ${here}/../go.mod not found: run from a checkout of the repository" >&2
	exit 2
fi
out="${root}/.bench_build/nvperf"
mkdir -p "${out}"

export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "${here}" && go build -o "${out}/nvperf" .)
exec "${out}/nvperf" "$@"
