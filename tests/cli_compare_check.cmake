# CTest script for `slpdas_bench compare --fail-on-drift`, the one CLI over
# the drift check: a document compared with itself exits 0, a copy whose
# first cell's capture successes are bumped exits 1 and names
# capture_successes, and a single operand is a usage error (exit 2).
#
#   cmake -DBENCH=BIN -DDOCUMENT=FILE -DWORK_DIR=DIR -P cli_compare_check.cmake

function(expect_exit expected)
  execute_process(COMMAND ${BENCH} compare ${ARGN}
    RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result STREQUAL expected)
    message(FATAL_ERROR
      "expected exit ${expected}, got '${result}' for: ${ARGN}\n${out}${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
  message(STATUS "exit ${expected}: compare ${ARGN}")
endfunction()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
expect_exit(0 ${DOCUMENT} ${DOCUMENT} --fail-on-drift)

file(READ ${DOCUMENT} text)
string(REGEX MATCH "\"successes\": ([0-9]+)" found "${text}")
if(NOT found)
  message(FATAL_ERROR "${DOCUMENT} has no \"successes\" count to bump")
endif()
math(EXPR bumped "${CMAKE_MATCH_1} + 1")
string(FIND "${text}" "${found}" at)
string(LENGTH "${found}" length)
string(SUBSTRING "${text}" 0 ${at} head)
math(EXPR rest "${at} + ${length}")
string(SUBSTRING "${text}" ${rest} -1 tail)
file(WRITE ${WORK_DIR}/drifted.json
  "${head}\"successes\": ${bumped}${tail}")
expect_exit(1 ${DOCUMENT} ${WORK_DIR}/drifted.json --fail-on-drift)
string(FIND "${out}" "capture_successes" named)
if(named EQUAL -1)
  message(FATAL_ERROR "the drift report does not name capture_successes:\n${out}")
endif()

expect_exit(2 ${DOCUMENT} --fail-on-drift)
