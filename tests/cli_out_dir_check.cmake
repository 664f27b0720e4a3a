# CTest script: `slpdas_bench run SCENARIO --json --out-dir DIR` with no
# DIR must exit 1 naming the document it cannot write, before the sweep
# starts — no scenario heading, no progress line, no document.
#
#   cmake -DBENCH=BIN -DWORK_DIR=DIR -P cli_out_dir_check.cmake

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(
  COMMAND ${BENCH} run fig5a --smoke --progress --json --out-dir nosuch
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result STREQUAL "1")
  message(FATAL_ERROR "expected exit 1, got '${result}'\n${out}${err}")
endif()
if(NOT err MATCHES "cannot open nosuch/BENCH_fig5a.json for writing")
  message(FATAL_ERROR "missing the write error on stderr:\n${err}")
endif()
if(NOT out STREQUAL "" OR err MATCHES "capture")
  message(FATAL_ERROR "sweep output before the refusal:\n${out}${err}")
endif()
if(EXISTS ${WORK_DIR}/nosuch)
  message(FATAL_ERROR "the refused run created ${WORK_DIR}/nosuch")
endif()
message(STATUS "refused up front: ${err}")
