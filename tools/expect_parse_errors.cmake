# Runs bench_diff on each malformed BenchJson fixture and requires exit 2
# with the reader's error text naming the file. Exit 1 means "regression"
# and exit 0 "no regression", so the code alone would not tell a rejected
# file from a silently skipped key.
#
#   cmake -DBENCH_DIFF=<bench_diff> -DDATA=<tools/testdata> -P expect_parse_errors.cmake
foreach(entry
    "malformed_bad_token.json|expected ',' or '}' at byte"
    "malformed_trailing_comma.json|expected string at byte"
    "malformed_nested.json|not a flat object of scalars")
  string(REPLACE "|" ";" parts "${entry}")
  list(GET parts 0 file)
  list(GET parts 1 expected)
  execute_process(
    COMMAND ${BENCH_DIFF} ${DATA}/regress_old.json ${DATA}/${file}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "bench_diff: ${DATA}/${file}: ${expected}" hit)
  if(NOT code EQUAL 2 OR hit EQUAL -1)
    message(FATAL_ERROR "${file}: want exit 2 and \"${expected}\", got "
                        "exit ${code}\n${out}${err}")
  endif()
endforeach()
message(STATUS "bench_diff rejected every malformed fixture")
