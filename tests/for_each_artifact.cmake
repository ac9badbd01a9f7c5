# Runs `TOOL COMMAND... FILE AFTER...` on every file in the working
# directory that matches one of PATTERNS, and fails if none matches or
# any run exits non-zero. Driven by the artifact gates in
# tests/CMakeLists.txt:
#   cmake -DTOOL=... -DPATTERNS="a.*.jsonl b.*.jsonl" \
#         -DCOMMAND="spans top" -DAFTER=3 -P for_each_artifact.cmake

separate_arguments(patterns UNIX_COMMAND "${PATTERNS}")
separate_arguments(command UNIX_COMMAND "${COMMAND}")
separate_arguments(after UNIX_COMMAND "${AFTER}")
set(files)
foreach(pattern IN LISTS patterns)
    file(GLOB matched ${pattern})
    if(NOT matched)
        message(FATAL_ERROR "no file matches ${pattern}")
    endif()
    list(APPEND files ${matched})
endforeach()
foreach(file IN LISTS files)
    execute_process(COMMAND ${TOOL} ${command} ${file} ${after}
                    RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${COMMAND} ${file} ${AFTER}: exit ${status}")
    endif()
endforeach()
