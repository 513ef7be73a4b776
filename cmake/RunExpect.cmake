# Script-mode helper for tests that assert a command FAILS (or succeeds)
# with particular output — the negative side of the static-analysis suite:
# arch_check fixtures that must be rejected and negative-compile cases that
# must not compile (see docs/STATIC_ANALYSIS.md) — and for the golden stdout
# of examples/policy_inspection.
#
# Usage:
#   cmake -DCMD="<exe>|<arg>|..." [-DEXPECT_FAIL=ON] [-DEXPECT_OUTPUT=<re>]
#         [-DEXPECT_STDOUT_FILE=<path>] -P RunExpect.cmake
#
# CMD uses '|' as the argument separator so callers do not fight CMake's
# semicolon list escaping. EXPECT_FAIL=ON demands a nonzero exit status
# (default: demand zero). EXPECT_OUTPUT, when set, is a regex that must
# match the combined stdout+stderr regardless of exit status.
# EXPECT_STDOUT_FILE, when set, names a file stdout must equal byte for
# byte.

if(NOT DEFINED CMD)
  message(FATAL_ERROR "RunExpect: CMD is required")
endif()
string(REPLACE "|" ";" _cmd "${CMD}")

execute_process(COMMAND ${_cmd}
                RESULT_VARIABLE _rc
                OUTPUT_VARIABLE _out
                ERROR_VARIABLE _err)
set(_all "${_out}${_err}")

if(EXPECT_FAIL)
  if(_rc EQUAL 0)
    message(FATAL_ERROR
            "RunExpect: command succeeded but was expected to fail:\n"
            "  ${CMD}\noutput:\n${_all}")
  endif()
else()
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR
            "RunExpect: command failed (exit ${_rc}):\n"
            "  ${CMD}\noutput:\n${_all}")
  endif()
endif()

if(DEFINED EXPECT_OUTPUT AND NOT EXPECT_OUTPUT STREQUAL "")
  if(NOT _all MATCHES "${EXPECT_OUTPUT}")
    message(FATAL_ERROR
            "RunExpect: output did not match '${EXPECT_OUTPUT}':\n${_all}")
  endif()
endif()

if(DEFINED EXPECT_STDOUT_FILE AND NOT EXPECT_STDOUT_FILE STREQUAL "")
  file(READ "${EXPECT_STDOUT_FILE}" _want)
  if(NOT _out STREQUAL _want)
    message(FATAL_ERROR
            "RunExpect: stdout differs from ${EXPECT_STDOUT_FILE}:\n${_out}")
  endif()
endif()
