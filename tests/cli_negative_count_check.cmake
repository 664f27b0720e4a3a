# CTest script: a negative --sd or --threads is refused at parse time,
# exit 2 naming the flag, before any sweep runs — not read as "default"
# (fig5 once ran SD = 3 for --sd -2; a negative pool size once became
# hardware concurrency).
#
#   cmake -DBENCH=BIN -P cli_negative_count_check.cmake

foreach(flag IN ITEMS --sd --threads)
  execute_process(
    COMMAND ${BENCH} run fig5a --smoke ${flag} -2
    RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result STREQUAL "2")
    message(FATAL_ERROR
      "${flag} -2: expected exit 2, got '${result}'\n${out}${err}")
  endif()
  if(NOT err MATCHES "${flag} must be >= 0")
    message(FATAL_ERROR "${flag} -2: missing the refusal on stderr:\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${flag} -2: sweep output before the refusal:\n${out}")
  endif()
  message(STATUS "${flag} -2 refused: ${err}")
endforeach()
