# hnoc_cli must reject a malformed number with a diagnostic naming the
# flag, not run with whatever a lenient parse made of it. Invoked as:
#   cmake -DHNOC_CLI=... -P cli_bad_number.cmake

if(NOT DEFINED HNOC_CLI)
    message(FATAL_ERROR "cli_bad_number: HNOC_CLI not set")
endif()

execute_process(
    COMMAND "${HNOC_CLI}" --rate abc
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "cli_bad_number: --rate abc must not exit 0")
endif()
if(NOT err MATCHES "--rate='abc' is not a number")
    message(FATAL_ERROR
        "cli_bad_number: diagnostic should name --rate:\n${err}")
endif()
