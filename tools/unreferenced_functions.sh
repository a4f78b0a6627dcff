#!/usr/bin/env bash
# Lists the wire:: functions that src/ defines but no program contains, and
# exits 1 if there are any.
#
#   bash tools/unreferenced_functions.sh [scratch-dir]
#
# Builds the main project (every test, bench and example) and the bench/suite
# project at -O0 with one section per function, and links every executable
# with --gc-sections, so a function no executable can reach is dropped from
# all of them. -fkeep-inline-functions makes every translation unit emit each
# inline function it sees, called or not, so a wire_* archive built from src/
# holds every out-of-line function (a global text symbol) and every inline
# one of the src/ headers its sources include (a weak text symbol). Either
# counts as defined, except inline constructors, destructors and
# assignments (see below); it counts as called when any linked executable
# still contains it. Templates are emitted only where instantiated, so an
# uninstantiated template member is not seen. Both build trees go to the
# scratch directory (default: a fresh temporary directory, removed on exit);
# no file in the checkout is written.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ $# -ge 1 ]]; then
  work="$(mkdir -p "$1" && cd "$1" && pwd)"
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
flags=(
  -DCMAKE_BUILD_TYPE=None
  "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fkeep-inline-functions"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)
jobs="$(nproc)"
for project in main suite; do
  src="$root"
  if [[ "$project" == suite ]]; then src="$root/bench/suite"; fi
  cmake -S "$src" -B "$work/$project" "${generator[@]}" "${flags[@]}" \
    >"$work/$project.log"
  cmake --build "$work/$project" -j "$jobs" >>"$work/$project.log"
done

# Demangled names of the symbols nm prints with one of the given type letters.
symbols() {
  local types="$1"
  shift
  nm -C --defined-only "$@" 2>/dev/null |
    sed -n "s/^[0-9a-f]* [$types] //p" | grep '^wire::' | sort -u || true
}

mapfile -t archives < <(find "$work/main/src" -name 'libwire_*.a' | sort)
mapfile -t programs < <(find "$work/main" "$work/suite" -type f -perm -u+x \
  ! -path '*/CMakeFiles/*' | sort)
if [[ ${#archives[@]} -eq 0 || ${#programs[@]} -eq 0 ]]; then
  echo "unreferenced_functions: no archives or executables found in $work" >&2
  exit 2
fi

# Inline constructors, destructors and assignments are left out: an
# implicitly declared one is emitted wherever its class is used, even when
# every use is aggregate initialization or an elided copy.
{
  symbols T "${archives[@]}"
  symbols W "${archives[@]}" |
    grep -vE '(^|::)([A-Za-z_][A-Za-z0-9_]*)::~?\2\(|::operator=\(' || true
} | sort -u >"$work/defined.txt"
symbols TtWw "${programs[@]}" >"$work/called.txt"
comm -23 "$work/defined.txt" "$work/called.txt" >"$work/unreferenced.txt"

echo "${#archives[@]} archives, ${#programs[@]} executables," \
  "$(wc -l <"$work/defined.txt") wire:: functions defined in src/"
if [[ -s "$work/unreferenced.txt" ]]; then
  echo "defined in src/ but in no executable:"
  sed 's/^/  /' "$work/unreferenced.txt"
  exit 1
fi
echo "every one of them is linked into some executable"
