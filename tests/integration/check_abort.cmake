# Abort gate for one bench run (ctest label "fault"): runs BENCH with ARGS
# and requires exit code 2 with exactly one stderr line containing EXPECT,
# and no "terminate called" (an exception that escaped the harness).
#
#   cmake -DBENCH=<binary> "-DARGS=<space-separated flags>"
#         "-DEXPECT=<literal text>" -P check_abort.cmake
foreach(var BENCH ARGS EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_abort.cmake: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
                OUTPUT_QUIET
                ERROR_VARIABLE diagnostics
                RESULT_VARIABLE status)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${ARGS}: exited with ${status}, expected 2\n"
                      "${diagnostics}")
endif()
if(diagnostics MATCHES "terminate called")
  message(FATAL_ERROR "${ARGS}: exception reached std::terminate\n"
                      "${diagnostics}")
endif()
string(REPLACE "\n" ";" lines "${diagnostics}")
set(hits 0)
foreach(line IN LISTS lines)
  string(FIND "${line}" "${EXPECT}" at)
  if(NOT at EQUAL -1)
    math(EXPR hits "${hits} + 1")
  endif()
endforeach()
if(NOT hits EQUAL 1)
  message(FATAL_ERROR "${ARGS}: expected one stderr line with '${EXPECT}', "
                      "found ${hits}\n${diagnostics}")
endif()
