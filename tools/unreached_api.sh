#!/usr/bin/env bash
# Lists the out-of-line slpdas:: functions that no shipped binary contains.
#
# The shipped binaries are slpdas_bench, the five examples and the
# perfbench harness. All of them are built at -O0 (so no call is inlined
# away) with -ffunction-sections -fdata-sections -Wl,--gc-sections (so the
# linker drops every function that nothing reaches). A global slpdas::
# function defined in libslpdas.a that none of the linked binaries holds is
# unreached: only the tests, or nothing, call it. Lambdas, local entities
# and std:: instantiations are left out of the comparison.
#
# tools/unreached_api.allow names the unreached functions that stay on
# purpose, one qualified-name prefix per line with its reason. A prefix
# ending in "::" covers every function of that class; any other covers the
# function of that name, whatever its parameter list. The script exits 1
# when an unreached function is covered by no line, or when a line covers
# no unreached function (it is now reached, or no longer defined); 0 when
# the two agree.
#
# Usage: tools/unreached_api.sh [WORK_DIR]   (default: build-unreached)
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-"$root/build-unreached"}
allow="$root/tools/unreached_api.allow"

flags=(-DCMAKE_BUILD_TYPE=Debug
       -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

cmake -S "$root" -B "$work/main" "${flags[@]}" \
  -DSLPDAS_BUILD_TESTS=OFF -DSLPDAS_BUILD_TOOLS=OFF >/dev/null
cmake --build "$work/main" -j "$(nproc)" --target slpdas slpdas_bench \
  attacker_gym decoy_explorer quickstart schedule_audit wildlife_monitoring \
  >/dev/null
cmake -S "$root/perfbench" -B "$work/perfbench" "${flags[@]}" >/dev/null
cmake --build "$work/perfbench" -j "$(nproc)" --target slpdas_perfbench >/dev/null

binaries=("$work/main/bench/slpdas_bench"
          "$work/perfbench/slpdas_perfbench")
for example in attacker_gym decoy_explorer quickstart schedule_audit \
               wildlife_monitoring; do
  binaries+=("$work/main/examples/$example")
done

# Global function symbols (mangled) in the slpdas namespace.
slpdas_functions() {
  nm --defined-only "$@" 2>/dev/null \
    | awk '$2 ~ /^[TW]$/ && $3 ~ /^_ZN(K)?6slpdas/ { print $3 }' | sort -u
}

demangle() {
  c++filt | { grep -v -e '{lambda' -e '^std::' || true; } | sort -u
}

# Prints "LINE<TAB>NAME" for every demangled NAME in file $2 that an
# allow-list LINE in file $1 covers.
covers() {
  awk -F '\t' 'FILENAME == ARGV[1] { lines[FNR] = $0; next }
    { for (i in lines) {
        line = lines[i]
        rest = substr($0, length(line) + 1)
        if (substr($0, 1, length(line)) == line &&
            (line ~ /::$/ || rest ~ /^[([<]/)) print line "\t" $0
      } }' "$1" "$2"
}

slpdas_functions "$work/main/src/libslpdas.a" >"$work/library.txt"
slpdas_functions "${binaries[@]}" >"$work/shipped.txt"
comm -23 "$work/library.txt" "$work/shipped.txt" | demangle >"$work/unreached.txt"
demangle <"$work/library.txt" >"$work/defined.txt"
{ grep -v -e '^#' -e '^[[:space:]]*$' "$allow" || true; } \
  | sed 's/[[:space:]]*#.*$//' | sort -u >"$work/allowed.txt"
covers "$work/allowed.txt" "$work/unreached.txt" >"$work/covered.txt"

status=0
while IFS= read -r name; do
  echo "unreached and not in $(basename "$allow"): $name"
  status=1
done < <(comm -23 "$work/unreached.txt" <(cut -f2 "$work/covered.txt" | sort -u))
while IFS= read -r line; do
  if covers <(printf '%s\n' "$line") "$work/defined.txt" | grep -q .; then
    echo "listed in $(basename "$allow") but now reached: $line"
  else
    echo "listed in $(basename "$allow") but no longer defined: $line"
  fi
  status=1
done < <(comm -23 "$work/allowed.txt" <(cut -f1 "$work/covered.txt" | sort -u))

if [ "$status" -eq 0 ]; then
  echo "unreached_api: $(wc -l <"$work/unreached.txt") unreached function(s)," \
    "all covered by $(wc -l <"$work/allowed.txt") line(s)"
fi
exit "$status"
