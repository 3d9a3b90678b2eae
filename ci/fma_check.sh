#!/usr/bin/env bash
# Seeded replay must give the same bytes on every GOARCH. The Go spec lets a
# compiler fuse x*y + z into one rounding unless an explicit conversion
# rounds the product first (float64(x*y) + z). gc fuses on arm64, ppc64le,
# s390x and riscv64, never on amd64, so a fused multiply-add on a seeded
# draw's path makes those machines answer differently from amd64.
#
# This cross-compiles the root module for the four with -gcflags=-S, which
# needs no emulator, and fails on any fused multiply-add whose
# file:function is not in ci/fma_allowlist.txt. Run it from anywhere:
#
#   bash ci/fma_check.sh
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
allow="$root/ci/fma_allowlist.txt"
found=0
for arch in arm64 ppc64le s390x riscv64; do
	# An assembly line reads "<pc> <offset> (<file>:<line>)<TAB><op><TAB>...".
	while read -r file line op; do
		rel="${file#"$root"/}"
		fn="$(head -n "$line" "$file" | grep '^func ' | tail -n 1 |
			sed -E 's/^func (\([^)]*\) )?([A-Za-z0-9_]+).*/\2/')"
		if ! grep -q "^$rel:$fn " "$allow"; then
			echo "$arch: $op at $rel:$line (func $fn) is not in ci/fma_allowlist.txt"
			found=1
		fi
	done < <(GOARCH="$arch" go build -gcflags=-S ./... 2>&1 |
		{ grep -E $'\tFN?M(ADD|SUB)[SD]?\t' || true; } |
		sed -E 's/.*\((.+):([0-9]+)\)\t([A-Z]+)\t.*/\1 \2 \3/' | sort -u)
done
if [ "$found" = 1 ]; then
	echo "round the product with an explicit float64(...) or float32(...), or list the site with a reason"
	exit 1
fi
echo "no fused multiply-add outside the allowlist on arm64, ppc64le, s390x or riscv64"
