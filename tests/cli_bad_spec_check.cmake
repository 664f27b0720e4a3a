# CTest script: a --set value holding a non-finite number, a repeated key
# or a Cs outside Eq. 1's (1, 2) is refused while the grid is built,
# naming the spec, before any cell runs or is cached. (`lossy:p=nan` and
# the repeated `n` once ran; `cs=2.5` once stored the two cs=1.5 cells
# before the first cs=2.5 cell failed mid-sweep.)
#
#   cmake -DBENCH=BIN -DWORK_DIR=DIR -P cli_bad_spec_check.cmake

# Each case: its --set values joined by '+', then '|' and the text that
# stderr must hold.
set(cases
  "radio=lossy:p=nan|lossy:p=nan"
  "topology=udisk:n=30,r=10,n=40|udisk:n=30,r=10,n=40"
  "cs=2.5+cs=1.5|'2.5'")
foreach(case IN LISTS cases)
  string(REGEX REPLACE "[+|]" ";" parts "${case}")
  list(GET parts -1 expected)
  list(REMOVE_AT parts -1)
  set(args "")
  foreach(set IN LISTS parts)
    list(APPEND args --set ${set})
  endforeach()
  set(cache ${WORK_DIR}/cache)
  file(REMOVE_RECURSE ${WORK_DIR})
  file(MAKE_DIRECTORY ${WORK_DIR})
  execute_process(
    COMMAND ${BENCH} custom --smoke --cache ${cache} ${args}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(result STREQUAL "0")
    message(FATAL_ERROR "${args}: expected a non-zero exit\n${out}${err}")
  endif()
  string(FIND "${err}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${args}: stderr does not name ${expected}:\n${err}")
  endif()
  file(GLOB entries ${cache}/*.cachecell.json)
  if(entries)
    message(FATAL_ERROR "${args}: cells ran and were cached: ${entries}")
  endif()
  message(STATUS "${args} refused: ${err}")
endforeach()
