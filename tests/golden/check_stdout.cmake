# Golden-output gate for one bench binary (ctest label "golden"): runs it
# with --quick and compares the SHA-256 of its stdout against the pin in
# tests/golden/quick.sha256. stderr (phase timings) is not pinned.
#
#   cmake -DBENCH=<binary> -DNAME=<bench> -DMANIFEST=<quick.sha256>
#         -DOUT=<stdout capture> [-DRECORD=<artifact path>] [-DJOBS=<N>]
#         [-DREPLAY=<artifact path> [-DLIVE_ONLY=ON]]
#         -P check_stdout.cmake
#
# With RECORD set the bench also runs with --record RECORD, and the pin is
# the SHA-256 of that recorded artifact instead of stdout (manifest
# tests/golden/artifact.sha256): the stored bytes are pinned the same way.
# With JOBS set the bench runs with --jobs JOBS against the same pin, since
# every job count must produce the same bytes.
#
# With REPLAY set (ctest label "golden-replay") the bench first records its
# --quick study to REPLAY, then replays that recording at --quick, and the
# replayed stdout is held to the same quick.sha256 pin as the live run. A
# bench that runs live only (LIVE_ONLY set) must instead refuse --replay
# with exit 2 and one stderr line.
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

if(DEFINED REPLAY AND LIVE_ONLY)
  execute_process(COMMAND "${BENCH}" --quick --replay "${REPLAY}"
                  OUTPUT_FILE "${OUT}"
                  ERROR_VARIABLE diagnostics
                  RESULT_VARIABLE status)
  string(STRIP "${diagnostics}" diagnostics)
  if(NOT status STREQUAL "2" OR diagnostics MATCHES "\n" OR
     NOT diagnostics MATCHES "--replay is refused")
    message(FATAL_ERROR "${NAME} --quick --replay: exited with ${status}, "
                        "expected 2 and one refusal line\n${diagnostics}")
  endif()
  return()
endif()

if(DEFINED REPLAY)
  file(REMOVE "${REPLAY}")
  execute_process(COMMAND "${BENCH}" --quick --record "${REPLAY}"
                  OUTPUT_QUIET
                  ERROR_VARIABLE diagnostics
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NAME} --quick --record exited with ${status}\n"
                        "${diagnostics}")
  endif()
endif()

set(args --quick)
if(DEFINED REPLAY)
  list(APPEND args --replay "${REPLAY}")
endif()
if(DEFINED JOBS)
  list(APPEND args --jobs "${JOBS}")
endif()
set(pinned "${OUT}")
set(what stdout)
if(DEFINED RECORD)
  file(REMOVE "${RECORD}")
  list(APPEND args --record "${RECORD}")
  set(pinned "${RECORD}")
  set(what "recorded artifact")
endif()
string(JOIN " " shown ${args})
execute_process(COMMAND "${BENCH}" ${args}
                OUTPUT_FILE "${OUT}"
                ERROR_VARIABLE diagnostics
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NAME} ${shown} exited with ${status}\n${diagnostics}")
endif()
file(SHA256 "${pinned}" actual)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${NAME} ${shown} ${what} changed: sha256 ${actual}, "
                      "pinned ${expected} (kept at ${pinned})")
endif()
