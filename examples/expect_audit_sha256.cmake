# Runs an example that writes the REPRO_AUDIT prediction log and requires
# the file's SHA-256 to equal a pinned value. The caller sets REPRO_AUDIT
# (and REPRO_THREADS: the manifest line records the thread count) in the
# test's environment.
#
#   cmake -DEXAMPLE=<binary> -DARGS=<args> -DEXPECTED=<sha256> -P expect_audit_sha256.cmake
if(NOT DEFINED ENV{REPRO_AUDIT})
  message(FATAL_ERROR "REPRO_AUDIT is not set")
endif()
set(log "$ENV{REPRO_AUDIT}")
file(REMOVE "${log}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXAMPLE} ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${code}\n${out}${err}")
endif()
if(NOT EXISTS "${log}")
  message(FATAL_ERROR "${EXAMPLE} wrote no audit log at ${log}")
endif()
file(SHA256 "${log}" got)
if(NOT got STREQUAL EXPECTED)
  message(FATAL_ERROR "audit log ${log}: sha256 ${got}, want ${EXPECTED}")
endif()
message(STATUS "audit log sha256 ${got} matches the pin")
