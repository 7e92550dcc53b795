# Golden-output gate for one bench binary (ctest label "golden"): runs it
# with --quick and compares the SHA-256 of its stdout against the pin in
# tests/golden/quick.sha256. stderr (phase timings) is not pinned.
#
#   cmake -DBENCH=<binary> -DNAME=<bench> -DMANIFEST=<quick.sha256>
#         -DOUT=<stdout capture> -P check_stdout.cmake
#
# The manifest uses sha256sum's "<hash>  <name>" line format. A change that
# means to move bytes re-pins the affected lines, e.g. from the build tree:
#   ./bench/<name> --quick | sha256sum | sed 's/-$/<name>/'
foreach(var BENCH NAME MANIFEST OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()

file(STRINGS "${MANIFEST}" pins REGEX "^[0-9a-f]+  ${NAME}$")
list(LENGTH pins pin_count)
if(NOT pin_count EQUAL 1)
  message(FATAL_ERROR "${NAME}: expected one pin in ${MANIFEST}, found "
                      "${pin_count}")
endif()
string(REGEX REPLACE "  .*$" "" expected "${pins}")

execute_process(COMMAND "${BENCH}" --quick
                OUTPUT_FILE "${OUT}"
                ERROR_VARIABLE diagnostics
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NAME} --quick exited with ${status}\n${diagnostics}")
endif()
file(SHA256 "${OUT}" actual)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${NAME} --quick stdout changed: sha256 ${actual}, "
                      "pinned ${expected} (stdout kept at ${OUT})")
endif()
