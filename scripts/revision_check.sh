#!/usr/bin/env bash
# Check that the library revision (kLibraryRevision, the key of every
# sweep journal, result cache and checkpoint farm entry) is derived
# from the src/ tree by src/library_revision.cmake: hashing src/ twice,
# or a copy of it elsewhere, gives the same revision; a copy with one
# appended comment gives another; and the build in BUILD_DIR was
# compiled with src/'s revision.
#
# Usage: scripts/revision_check.sh [BUILD_DIR]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
copy="$build/revision-src"

revision() { cmake -DBVL_SRC_DIR="$1" -P src/library_revision.cmake; }
fail() { echo "FAIL: $*" >&2; exit 1; }

rev=$(revision src)
[ -n "$rev" ] || fail "no revision for src/"
[ "$(revision src)" = "$rev" ] || fail "hashing src/ twice gave two revisions"

rm -rf "$copy"
cp -r src "$copy"
[ "$(revision "$copy")" = "$rev" ] || fail "a copy of src/ hashed differently"
echo "// revision check" >> "$copy/soc/soc.cc"
[ "$(revision "$copy")" != "$rev" ] || fail "an edited src/ kept the revision"
rm -rf "$copy"

grep -q "\"$rev\"" "$build/src/library_revision.cc" \
    || fail "$build was not built from this src/ (revision $rev)"
echo "revision_check.sh: library revision $rev"
