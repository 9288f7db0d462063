# Golden-stdout check: a report bench at --scale=0.05 --jobs=2 must print
# exactly the committed golden text. Only the engine footer, which carries
# execution counts rather than results, and the JSON-path echo are stripped
# before comparing. With JSON_GOLDEN the bench also writes its --json
# artifact, which must match that file byte for byte. A change that moves
# any reported number fails here; a deliberate one regenerates the golden
# files with the same flags and strips the footer and the echo.
#
# Usage: cmake -DBENCH=<path-to-bench> -DGOLDEN=<golden.txt>
#              -DOUT=<scratch-file> [-DJSON_GOLDEN=<golden.json>]
#              -P golden_stdout.cmake
get_filename_component(bench ${BENCH} NAME)
set(args --scale=0.05 --jobs=2)
if(JSON_GOLDEN)
  list(APPEND args --json=${OUT}.json)
endif()
execute_process(
  COMMAND ${BENCH} ${args}
  OUTPUT_VARIABLE report
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${bench} exited ${status}")
endif()
string(REGEX REPLACE "engine: [^\n]*\n" "" report "${report}")
string(REGEX REPLACE "JSON written to [^\n]*\n" "" report "${report}")
file(WRITE ${OUT} "${report}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${bench} stdout differs from ${GOLDEN}; "
                      "see ${OUT}")
endif()
message(STATUS "${bench} stdout matches ${GOLDEN}")

if(NOT JSON_GOLDEN)
  return()
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${JSON_GOLDEN} ${OUT}.json
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${bench} JSON artifact differs from ${JSON_GOLDEN}; "
                      "see ${OUT}.json")
endif()
message(STATUS "${bench} JSON artifact matches ${JSON_GOLDEN}")
