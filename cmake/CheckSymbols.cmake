# Symbol-table guard behind the zero-cost claims of the deselectable
# features (Observability, the slab memory path, Backup, Replication, Mvcc).
# Run as a ctest:
#
#   cmake -DBINARY=<file> [-DABSENT=<regex>] [-DPRESENT=<regex>] \
#         -P CheckSymbols.cmake
#
# Matches each line of `nm --defined-only BINARY` against the regexes, which
# name mangled namespaces (e.g. "4fame3obs" = fame::obs) or class names.
# ABSENT fails on any hit: a product that does not select a feature must
# link none of its code. PRESENT fails when nothing matches: it is the
# positive control on the feature-selected twin, proving that nm sees the
# symbols the absence check rules out. Give at least one of the two; giving
# both checks one binary for a namespace it must link and one it must not.
if(NOT DEFINED BINARY OR (NOT DEFINED ABSENT AND NOT DEFINED PRESENT))
  message(FATAL_ERROR "usage: cmake -DBINARY=<file> [-DABSENT=<regex>] "
                      "[-DPRESENT=<regex>] -P CheckSymbols.cmake "
                      "(at least one of ABSENT and PRESENT)")
endif()

find_program(NM_TOOL NAMES nm llvm-nm)
if(NOT NM_TOOL)
  message(FATAL_ERROR "nm not found; cannot check ${BINARY}")
endif()

execute_process(
  COMMAND ${NM_TOOL} --defined-only ${BINARY}
  OUTPUT_VARIABLE SYMBOLS
  RESULT_VARIABLE RC
  ERROR_VARIABLE NM_ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "nm failed on ${BINARY}: ${NM_ERR}")
endif()

if(DEFINED PRESENT)
  string(REGEX MATCHALL "[^\n]*(${PRESENT})[^\n]*" MATCHES "${SYMBOLS}")
  list(LENGTH MATCHES HITS)
  if(HITS EQUAL 0)
    message(FATAL_ERROR
      "${BINARY} should define symbols matching '${PRESENT}' (positive "
      "control for the absence test) but nm found none — the check would "
      "be vacuous")
  endif()
  message(STATUS "${BINARY}: ${HITS} symbol(s) match '${PRESENT}' "
                 "(positive control ok)")
endif()

if(DEFINED ABSENT)
  string(REGEX MATCHALL "[^\n]*(${ABSENT})[^\n]*" MATCHES "${SYMBOLS}")
  list(LENGTH MATCHES HITS)
  if(HITS GREATER 0)
    list(SUBLIST MATCHES 0 10 SAMPLE)
    string(JOIN "\n  " SAMPLE_TEXT ${SAMPLE})
    message(FATAL_ERROR
      "${BINARY} must link no code of a deselected feature but defines "
      "${HITS} symbol(s) matching '${ABSENT}':\n  ${SAMPLE_TEXT}")
  endif()
  message(STATUS "${BINARY}: no symbols match '${ABSENT}' (as required)")
endif()
