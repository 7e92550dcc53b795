# Output gate for gorilla_replay (ctest gorilla_replay.outputs): records
# BENCH at --quick, replays the artifact through --sinks detector,pcap,csv
# and holds each of the five outputs to its SHA-256 pin in MANIFEST
# ("<hash>  <file>" lines). Then reruns the recorded harness --live with the
# detector on the bus, whose detector.txt must be the replayed one's bytes.
#
#   cmake -DREPLAY_TOOL=<gorilla_replay> -DBENCH=<bench binary>
#         -DMANIFEST=<gorilla_replay.sha256> -DWORK=<scratch dir>
#         -P check_replay_outputs.cmake
foreach(var REPLAY_TOOL BENCH MANIFEST WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_replay_outputs.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(artifact "${WORK}/study.gorcol")

function(run_step what)
  execute_process(COMMAND ${ARGN}
                  OUTPUT_QUIET
                  ERROR_VARIABLE diagnostics
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${what} exited with ${status}\n${diagnostics}")
  endif()
endfunction()

run_step("record" "${BENCH}" --quick --record "${artifact}")
run_step("replay" "${REPLAY_TOOL}" --artifact "${artifact}"
         --sinks detector,pcap,csv --out "${WORK}/replayed")
run_step("live" "${REPLAY_TOOL}" --artifact "${artifact}" --live
         --sinks detector --out "${WORK}/live")

file(STRINGS "${MANIFEST}" pins REGEX "^[0-9a-f]+  ")
list(LENGTH pins pin_count)
if(NOT pin_count EQUAL 5)
  message(FATAL_ERROR "expected five pins in ${MANIFEST}, found ${pin_count}")
endif()
foreach(pin IN LISTS pins)
  string(REGEX REPLACE "  .*$" "" expected "${pin}")
  string(REGEX REPLACE "^[0-9a-f]+  " "" name "${pin}")
  file(SHA256 "${WORK}/replayed/${name}" actual)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "replayed ${name} changed: sha256 ${actual}, pinned "
                        "${expected} (kept in ${WORK}/replayed)")
  endif()
endforeach()

file(SHA256 "${WORK}/replayed/detector.txt" replayed)
file(SHA256 "${WORK}/live/detector.txt" live)
if(NOT live STREQUAL replayed)
  message(FATAL_ERROR "--live detector.txt differs from the replayed one "
                      "(kept in ${WORK})")
endif()
