# Run PROGRAM; fail unless it exits 0 and its stdout equals the file
# EXPECTED byte for byte.
#
#   cmake -DPROGRAM=<binary> -DEXPECTED=<file> -P expect_output.cmake
execute_process(COMMAND ${PROGRAM}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE actual)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
        "${PROGRAM}: stdout differs from ${EXPECTED}; it printed:\n${actual}")
endif()
