# Derive the library revision (sweep/service/job_hash.hh): a SHA-256
# over every file under src/, each as its relative path plus the
# SHA-256 of its bytes, in sorted path order. Any change to the
# simulator's sources therefore re-keys the sweep journal and result
# cache (job hash) and the checkpoint farm (prefix hash), with no
# string to bump by hand.
#
#   cmake -DBVL_SRC_DIR=<src> [-DBVL_REVISION_OUT=<file.cc>] \
#         -P library_revision.cmake
#
# With BVL_REVISION_OUT, writes the one translation unit that defines
# kLibraryRevision (src/CMakeLists.txt regenerates it whenever a file
# under src/ changes); without it, prints the revision.

if(NOT BVL_SRC_DIR)
    message(FATAL_ERROR "library_revision.cmake: set BVL_SRC_DIR")
endif()

get_filename_component(BVL_SRC_DIR "${BVL_SRC_DIR}" ABSOLUTE)
file(GLOB_RECURSE files RELATIVE "${BVL_SRC_DIR}" "${BVL_SRC_DIR}/*")
if(NOT files)
    message(FATAL_ERROR
            "library_revision.cmake: no files under ${BVL_SRC_DIR}")
endif()
list(SORT files)
set(manifest "")
foreach(f IN LISTS files)
    file(SHA256 "${BVL_SRC_DIR}/${f}" digest)
    string(APPEND manifest "${f} ${digest}\n")
endforeach()
string(SHA256 revision "${manifest}")

if(BVL_REVISION_OUT)
    file(WRITE "${BVL_REVISION_OUT}"
"// Generated from the contents of src/ by src/library_revision.cmake.
#include \"sweep/service/job_hash.hh\"

namespace bvl
{

const char *const kLibraryRevision = \"${revision}\";

} // namespace bvl
")
else()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E echo "${revision}")
endif()
