# Determinism acceptance for the E11-E14 extension benches: each must
# produce a byte-identical report and JSON artifact whatever the worker
# count. Runs the bench on 1 and 8 engine workers and diffs both outputs;
# only the engine footer (which prints jobs=N) and the JSON-path echo line
# may differ. When SIMD and CLIENT are given, the run is repeated through a
# simd daemon and its output must match the local one too (only the service
# footer and the JSON-path echo may differ).
#
# Usage: cmake -DNAME=<E1x label> -DARTIFACT=<BENCH_x artifact name>
#              -DBENCH=<path-to-bench> -DOUT=<scratch-dir>
#              [-DSIMD=<simd> -DCLIENT=<sim_client>]
#              -P compare_determinism.cmake
get_filename_component(bench ${BENCH} NAME)
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

foreach(jobs 1 8)
  execute_process(
    COMMAND ${BENCH} --scale=0.05 --jobs=${jobs} --json=${OUT}/j${jobs}.json
    OUTPUT_FILE ${OUT}/j${jobs}.txt
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${bench} --jobs=${jobs} exited ${status}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/j1.json ${OUT}/j8.json
  RESULT_VARIABLE json_differs)
if(NOT json_differs EQUAL 0)
  message(FATAL_ERROR "${ARTIFACT} JSON differs between --jobs=1 and "
                      "--jobs=8: the report is not deterministic")
endif()

foreach(jobs 1 8)
  file(READ ${OUT}/j${jobs}.txt report)
  string(REGEX REPLACE "engine: [^\n]*\n" "" report "${report}")
  string(REGEX REPLACE "JSON written to [^\n]*\n" "" report "${report}")
  set(report_j${jobs} "${report}")
endforeach()
if(NOT report_j1 STREQUAL report_j8)
  message(FATAL_ERROR "${bench} stdout differs between --jobs=1 and "
                      "--jobs=8 (beyond the engine footer)")
endif()
message(STATUS "${NAME} report and JSON byte-identical across worker counts")

if(NOT SIMD)
  return()
endif()

# Local vs daemon: the same grid through a simd socket must decode to the
# same cells and therefore the same artifact bytes.
set(SOCK ${OUT}/d.sock)
execute_process(
  COMMAND sh -c "exec ${SIMD} --socket=${SOCK} --jobs=2 \
                 > ${OUT}/simd.log 2>&1 &"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "failed to launch simd (${status})")
endif()
foreach(attempt RANGE 100)
  if(EXISTS ${SOCK})
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()

execute_process(
  COMMAND ${BENCH} --scale=0.05 --jobs=2 --via=socket:${SOCK}
          --json=${OUT}/daemon.json
  OUTPUT_FILE ${OUT}/daemon.txt
  RESULT_VARIABLE status)
execute_process(COMMAND ${CLIENT} --socket=${SOCK} --shutdown
                OUTPUT_QUIET ERROR_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${bench} --via=socket exited ${status}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/j1.json ${OUT}/daemon.json
  RESULT_VARIABLE json_differs)
if(NOT json_differs EQUAL 0)
  message(FATAL_ERROR "${ARTIFACT} JSON differs between local and daemon "
                      "execution")
endif()

file(READ ${OUT}/daemon.txt report)
string(REGEX REPLACE "service: [^\n]*\n" "" report "${report}")
string(REGEX REPLACE "JSON written to [^\n]*\n" "" report "${report}")
if(NOT report STREQUAL report_j1)
  message(FATAL_ERROR "${bench} stdout differs between local and "
                      "daemon execution (beyond the footer)")
endif()
message(STATUS "${NAME} report and JSON byte-identical local vs daemon")
