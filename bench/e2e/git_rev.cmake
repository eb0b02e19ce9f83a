# Writes OUT, a header defining E2E_GIT_REV: the short git revision of
# GATEST_ROOT, with "-dirty" when its library sources differ from that
# revision, or "unknown" when GATEST_ROOT is not the top of a git checkout.
# Run on every build, so a harness is never stamped with the revision of an
# earlier checkout; OUT is rewritten only when the text changed.
#
#   cmake -DGATEST_ROOT=<checkout> -DOUT=<header> -P git_rev.cmake
set(rev "unknown")
execute_process(COMMAND git rev-parse --show-toplevel
                WORKING_DIRECTORY "${GATEST_ROOT}"
                OUTPUT_VARIABLE top OUTPUT_STRIP_TRAILING_WHITESPACE
                RESULT_VARIABLE rc ERROR_QUIET)
get_filename_component(root_real "${GATEST_ROOT}" REALPATH)
if(rc EQUAL 0 AND top)
  get_filename_component(top_real "${top}" REALPATH)
endif()
if(rc EQUAL 0 AND top_real STREQUAL root_real)
  execute_process(COMMAND git rev-parse --short HEAD
                  WORKING_DIRECTORY "${GATEST_ROOT}"
                  OUTPUT_VARIABLE head OUTPUT_STRIP_TRAILING_WHITESPACE
                  ERROR_QUIET)
  execute_process(COMMAND git diff --quiet HEAD -- src
                  WORKING_DIRECTORY "${GATEST_ROOT}"
                  RESULT_VARIABLE dirty ERROR_QUIET)
  if(head)
    set(rev "${head}")
    if(NOT dirty EQUAL 0)
      string(APPEND rev "-dirty")
    endif()
  endif()
endif()

set(text "#define E2E_GIT_REV \"${rev}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL text)
  file(WRITE "${OUT}" "${text}")
endif()
