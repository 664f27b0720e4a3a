# CTest driver for slpdas_schema_validate: one committed document must
# validate (exit 0), a shape-drifted copy of it must be refused (exit 1)
# and a missing file must be an I/O error (exit 2).
#
#   cmake -DVALIDATOR=BIN -DSCHEMA=FILE -DDOCUMENT=FILE -DWORK_DIR=DIR \
#         -P schema_validate_cli.cmake

function(expect_exit expected)
  execute_process(COMMAND ${VALIDATOR} ${ARGN}
    RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result STREQUAL expected)
    message(FATAL_ERROR
      "expected exit ${expected}, got '${result}' for: ${ARGN}\n${out}${err}")
  endif()
  message(STATUS "exit ${expected}: ${ARGN}")
endfunction()

file(MAKE_DIRECTORY ${WORK_DIR})
expect_exit(0 ${SCHEMA} ${DOCUMENT})

# Drift the shape: rename the required top-level "cells" key.
file(READ ${DOCUMENT} text)
string(REPLACE "\"cells\":" "\"cell_list\":" drifted "${text}")
if(drifted STREQUAL text)
  message(FATAL_ERROR "${DOCUMENT} has no \"cells\" key to drift")
endif()
file(WRITE ${WORK_DIR}/drifted.json "${drifted}")
expect_exit(1 ${SCHEMA} ${WORK_DIR}/drifted.json)

file(REMOVE ${WORK_DIR}/missing.json)
expect_exit(2 ${SCHEMA} ${WORK_DIR}/missing.json)
