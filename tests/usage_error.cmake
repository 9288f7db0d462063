# Usage-error check: a binary run with a bad flag must exit 2 and print a
# diagnostic matching EXPECT (stdout and stderr merged). ctest's
# PASS_REGULAR_EXPRESSION alone ignores the exit status, so a binary that
# printed the message and then ran anyway would pass it; this does not.
#
# Usage: cmake -DEXPECT=<regex> -P usage_error.cmake -- <binary> <args>...
set(command)
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "usage_error.cmake: no command after --")
endif()

execute_process(
  COMMAND ${command}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out
  RESULT_VARIABLE status)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got '${status}'; output:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}':\n${out}")
endif()
message(STATUS "exit 2: ${out}")
