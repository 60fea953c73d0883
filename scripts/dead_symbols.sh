#!/usr/bin/env bash
# Dead-code gate: list every bvl:: function that libbvl.a defines but
# no linked binary keeps, and fail if there is any.
#
# Every target of the repository (tests, benches, examples) and the
# hostbench/ binary are built at -O0 with -ffunction-sections and
# linked with -Wl,--gc-sections, so each binary keeps exactly the
# functions reachable from its entry points. A library function that
# none of them keeps has no caller anywhere and should be deleted.
# A function is in bvl:: when its mangled name nests in the namespace
# (_ZN3bvl..., or _ZZN3bvl... for a lambda or local class body); names
# are compared demangled, which folds constructor and destructor
# variants into one.
#
# Usage: scripts/dead_symbols.sh [build-dir]   (default: build-deadsym)
# Parallelism follows BVL_CI_JOBS (default: nproc).
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-build-deadsym}"
jobs="${BVL_CI_JOBS:-$(nproc)}"
flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
       -DCMAKE_CXX_FLAGS=-ffunction-sections
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

mkdir -p "$out"
build() {
    cmake -B "$out/$1" -S "$2" "${flags[@]}" >/dev/null
    cmake --build "$out/$1" -j "$jobs" >"$out/$1.log" 2>&1 \
        || { cat "$out/$1.log"; exit 1; }
}
build main .
build hostbench hostbench

# Function symbols (text, local or weak) in the bvl namespace.
functions() {
    nm --defined-only "$@" 2>/dev/null \
        | sed -n 's/^[0-9a-f]* [TtWw] \(_ZZ\{0,1\}N[KVRO]*3bvl.*\)$/\1/p' \
        | c++filt | sort -u
}

mapfile -t binaries < <(find "$out" -type f -perm -u+x \
                             -not -path '*/CMakeFiles/*' | sort)
[ "${#binaries[@]}" -gt 0 ] || { echo "no binaries under $out" >&2; exit 2; }

dead=$(comm -23 <(functions "$out/main/src/libbvl.a") \
                <(functions "${binaries[@]}"))

echo "dead_symbols: ${#binaries[@]} binaries linked with --gc-sections"
if [ -n "$dead" ]; then
    echo "bvl:: functions in libbvl.a that no binary keeps:"
    echo "$dead"
    exit 1
fi
echo "dead_symbols: none"
