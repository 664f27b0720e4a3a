# CTest script: a document write that fails after the file opened (here a
# full device) must exit 1 naming the path, not report "(wrote PATH)".
#
#   cmake -DBENCH=BIN -DDOCUMENT=FILE -P cli_write_failure_check.cmake

execute_process(
  COMMAND ${BENCH} merge ${DOCUMENT} --out /dev/full
  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result STREQUAL "1")
  message(FATAL_ERROR "expected exit 1, got '${result}'\n${out}${err}")
endif()
if(NOT err MATCHES "cannot write /dev/full")
  message(FATAL_ERROR "missing the write error on stderr:\n${err}")
endif()
if(err MATCHES "wrote")
  message(FATAL_ERROR "reported a failed write as done:\n${err}")
endif()
message(STATUS "refused: ${err}")
