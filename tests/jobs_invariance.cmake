# Runs BENCH at --jobs 1 and at --jobs 4 without a sweep report and
# fails unless both runs exit 0 and print byte-identical stdout. Driven
# by the bench_jobs_invariance_* tests in tests/CMakeLists.txt:
#   cmake -DBENCH=path/to/bench -P jobs_invariance.cmake

foreach(jobs 1 4)
    execute_process(COMMAND ${BENCH} --jobs ${jobs} --no-json
                    OUTPUT_VARIABLE stdout_${jobs}
                    RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${BENCH} --jobs ${jobs}: exit ${status}")
    endif()
endforeach()
if(NOT stdout_1 STREQUAL stdout_4)
    message(FATAL_ERROR
            "${BENCH}: stdout differs between --jobs 1 and --jobs 4")
endif()
