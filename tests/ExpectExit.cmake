# Runs the command after `--` and fails unless it exits with code EXPECT.
#
#   cmake -DEXPECT=2 -P ExpectExit.cmake -- PROGRAM ARGS...
#
# CTest's WILL_FAIL accepts any non-zero exit; the CLI's exit codes are a
# contract (2 = invalid input, 4 = internal error), so these tests pin the
# exact code.
set(Cmd)
set(AfterDashes FALSE)
math(EXPR Last "${CMAKE_ARGC} - 1")
foreach(I RANGE ${Last})
  if(AfterDashes)
    list(APPEND Cmd "${CMAKE_ARGV${I}}")
  elseif(CMAKE_ARGV${I} STREQUAL "--")
    set(AfterDashes TRUE)
  endif()
endforeach()
execute_process(COMMAND ${Cmd} RESULT_VARIABLE Code OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err)
if(NOT Code STREQUAL EXPECT)
  message(FATAL_ERROR "exit code ${Code}, expected ${EXPECT}\n${Out}${Err}")
endif()
message(STATUS "exit code ${Code} as expected: ${Out}${Err}")
