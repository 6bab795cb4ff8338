# Runs PROGRAM and compares its stdout byte for byte with the GOLDEN file.
# On a mismatch the actual output is written to ACTUAL for diffing.
#
#   cmake -DPROGRAM=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P golden_stdout.cmake
execute_process(COMMAND "${PROGRAM}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT "${actual}" STREQUAL "${expected}")
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout differs from the golden file:\n"
                      "  diff ${GOLDEN} ${ACTUAL}")
endif()
