# Golden-stdout check: a report bench at --scale=0.05 --jobs=2 must print
# exactly the committed golden text. Only the engine footer, which carries
# execution counts rather than results, is stripped before comparing. A
# change that moves any reported number fails here; a deliberate one
# regenerates the golden file with the same flags and strips the footer.
#
# Usage: cmake -DBENCH=<path-to-bench> -DGOLDEN=<golden.txt>
#              -DOUT=<scratch-file> -P golden_stdout.cmake
get_filename_component(bench ${BENCH} NAME)
execute_process(
  COMMAND ${BENCH} --scale=0.05 --jobs=2
  OUTPUT_VARIABLE report
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${bench} exited ${status}")
endif()
string(REGEX REPLACE "engine: [^\n]*\n" "" report "${report}")
file(WRITE ${OUT} "${report}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${bench} stdout differs from ${GOLDEN}; "
                      "see ${OUT}")
endif()
message(STATUS "${bench} stdout matches ${GOLDEN}")
