# Runs one deterministic simulated bench and compares its stdout with
# the committed golden file, byte for byte.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P check_output.cmake
#
# The simulated figures are deterministic (seeded, discrete-event
# time), so any difference means a change moved a reproduced result.
# If that move is intended, regenerate the file from the new binary
# and say why in the change log.
foreach(var BENCH GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_output.cmake: ${var} is not set")
  endif()
endforeach()

execute_process(
  COMMAND "${BENCH}"
  OUTPUT_FILE "${ACTUAL}"
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${exit_code}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${ACTUAL}" "${GOLDEN}"
  RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${ACTUAL}")
  endif()
  message(FATAL_ERROR "output of ${BENCH} differs from ${GOLDEN}")
endif()
