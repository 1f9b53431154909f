# Runs COMMAND (a program and its arguments, split like a shell command
# line) and fails unless it exits with the status EXPECT; a crash fails too.
#
#   cmake -DEXPECT=2 "-DCOMMAND=<program> <args...>" -P expect_exit.cmake
separate_arguments(command UNIX_COMMAND "${COMMAND}")
execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${COMMAND}: exit ${status}, expected ${EXPECT}\n${err}")
endif()
