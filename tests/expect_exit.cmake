# Runs TOOL with the '|'-separated ARGS and fails unless it exits with
# status EXPECT.  Usage:
#   cmake -DTOOL=path -DARGS=a|b|c -DEXPECT=2 -P expect_exit.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "'${TOOL} ${ARGS}' exited with ${rc}, expected ${EXPECT}")
endif()
