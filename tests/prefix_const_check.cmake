# CTest script: RunBatch holds its PhasePrefix as a `const` member, so the
# snapshot every forked seed shares cannot be written after capture. Two
# translation units differ in one line: the control reads through
# batch.prefix() and must compile; the other assigns through it and must
# fail to compile, on that line. The batch is taken by non-const
# reference, so a mutable accessor added later would be caught too.
#
#   cmake -DCXX=COMPILER -DSTD_FLAG=-std=c++20 -DINCLUDE_DIR=DIR
#         -DWORK_DIR=DIR -P prefix_const_check.cmake

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(write_unit name body)
  file(WRITE ${WORK_DIR}/${name}.cpp
    "#include \"slpdas/core/run_batch.hpp\"\n"
    "void touch(slpdas::core::RunBatch& batch) {\n"
    "  ${body}\n"
    "}\n")
endfunction()
write_unit(reads_prefix
  "slpdas::sim::SimTime t = batch.prefix().activation; (void)t;")
write_unit(writes_prefix "batch.prefix().activation = 0;")

# The two COMMANDs form one pipeline, so both units compile at once;
# -fsyntax-only writes nothing to the pipe, and each keeps its own result.
set(compile ${CXX} ${STD_FLAG} -fsyntax-only -I${INCLUDE_DIR})
execute_process(
  COMMAND ${compile} reads_prefix.cpp
  COMMAND ${compile} writes_prefix.cpp
  WORKING_DIRECTORY ${WORK_DIR}
  RESULTS_VARIABLE results ERROR_VARIABLE err)
list(GET results 0 reads_result)
list(GET results 1 writes_result)

if(NOT reads_result STREQUAL "0")
  message(FATAL_ERROR "the read-only control unit failed to compile:\n${err}")
endif()
if(writes_result STREQUAL "0")
  message(FATAL_ERROR "a write through RunBatch::prefix() compiled")
endif()
# Line 3 holds the write: an error anywhere else is a broken unit, not
# the const prefix refusing it.
if(NOT err MATCHES "writes_prefix\\.cpp:3:")
  message(FATAL_ERROR "the writing unit failed, but not at the write:\n${err}")
endif()
message(STATUS "refused as expected:\n${err}")
