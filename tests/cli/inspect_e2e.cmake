# End-to-end pipeline test driven by CTest:
#   hnoc_cli (two seeds, JSON run reports + Chrome trace + flit log +
#   audit/progress)
#     -> hnoc_inspect summary / top / heatmap / converge / flitlog / diff
# Invoked as:
#   cmake -DHNOC_CLI=... -DHNOC_INSPECT=... -DWORK_DIR=... -P inspect_e2e.cmake
# Fails (FATAL_ERROR) on any non-zero exit or missing expected output.

foreach(var HNOC_CLI HNOC_INSPECT WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "inspect_e2e: ${var} not set")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")

# Keep the runs short; the inspector doesn't care about statistical
# quality, only that the documents are well-formed and comparable.
set(ENV{HNOC_SIM_SCALE} "0.1")

function(run_step name)
    execute_process(
        COMMAND ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "inspect_e2e: ${name} failed (exit ${rc})\n"
            "command: ${ARGN}\nstdout:\n${out}\nstderr:\n${err}")
    endif()
    set(STEP_OUT "${out}" PARENT_SCOPE)
    set(STEP_ERR "${err}" PARENT_SCOPE)
endfunction()

# Two runs differing only in seed: same labels, slightly different
# numbers — exactly what `hnoc_inspect diff` is for. The first run also
# exercises the audit and progress instrumentation, the Chrome trace
# and the flit log.
run_step("cli seed 1" "${HNOC_CLI}"
    --layout Baseline --pattern uniform --rate 0.02 --seed 1
    --audit=500 --progress=5000
    --json "${WORK_DIR}/run_a.json"
    --trace "${WORK_DIR}/run_a.trace.json"
    --flitlog "${WORK_DIR}/run_a.jsonl")
set(trace_line "chrome trace: .* \\(([0-9]+) events, ([0-9]+) packets\\)")
if(NOT STEP_OUT MATCHES "${trace_line}")
    message(FATAL_ERROR "inspect_e2e: no chrome trace line:\n${STEP_OUT}")
endif()
set(trace_packets "${CMAKE_MATCH_2}")
# HNOC_TELEMETRY=OFF builds record no flit events and say so.
set(telemetry_off FALSE)
if(STEP_ERR MATCHES "HNOC_TELEMETRY=OFF")
    set(telemetry_off TRUE)
endif()
if(trace_packets EQUAL 0 AND NOT telemetry_off)
    message(FATAL_ERROR "inspect_e2e: chrome trace holds no packets")
endif()
run_step("cli seed 2" "${HNOC_CLI}"
    --layout Baseline --pattern uniform --rate 0.02 --seed 2
    --json "${WORK_DIR}/run_b.json")

foreach(f run_a.json run_b.json run_a.trace.json run_a.jsonl)
    if(NOT EXISTS "${WORK_DIR}/${f}")
        message(FATAL_ERROR "inspect_e2e: expected ${f} was not written")
    endif()
endforeach()

run_step("inspect summary" "${HNOC_INSPECT}" summary "${WORK_DIR}/run_a.json")
if(NOT STEP_OUT MATCHES "hnoc-run-report-v1")
    message(FATAL_ERROR "inspect_e2e: summary lacks schema line:\n${STEP_OUT}")
endif()
# The arbitration table and the converge replay read the registry's
# epoch series, which the OFF build never ticks.
if(NOT telemetry_off AND NOT STEP_OUT MATCHES "arbitration rates")
    message(FATAL_ERROR
        "inspect_e2e: summary lacks the arbitration table:\n${STEP_OUT}")
endif()

run_step("inspect converge"
    "${HNOC_INSPECT}" converge "${WORK_DIR}/run_a.json")
if(NOT telemetry_off AND NOT STEP_OUT MATCHES "epochs:")
    message(FATAL_ERROR
        "inspect_e2e: converge replays no epoch series:\n${STEP_OUT}")
endif()

# top and heatmap read the points' always-on utilization arrays.
run_step("inspect top" "${HNOC_INSPECT}" top "${WORK_DIR}/run_a.json" -k 5)
if(NOT STEP_OUT MATCHES "router +buffer %.*\n +[0-9]+ +[0-9.]+ +[0-9.]+")
    message(FATAL_ERROR "inspect_e2e: top lists no routers:\n${STEP_OUT}")
endif()

run_step("inspect heatmap"
    "${HNOC_INSPECT}" heatmap "${WORK_DIR}/run_a.json" -m buffer)
run_step("inspect heatmap link"
    "${HNOC_INSPECT}" heatmap "${WORK_DIR}/run_a.json" -m link)
if(NOT STEP_OUT MATCHES "link utilization heat map")
    message(FATAL_ERROR "inspect_e2e: no link heat map:\n${STEP_OUT}")
endif()
run_step("inspect flitlog" "${HNOC_INSPECT}" flitlog "${WORK_DIR}/run_a.jsonl")

# Seed-different runs must diff without error (exit 0 by default even
# when deltas exceed the threshold; --fail-over is the gating mode).
run_step("inspect diff" "${HNOC_INSPECT}" diff
    "${WORK_DIR}/run_a.json" "${WORK_DIR}/run_b.json" -t 0.0)
if(NOT STEP_OUT MATCHES "accepted")
    message(FATAL_ERROR "inspect_e2e: diff shows no metrics:\n${STEP_OUT}")
endif()

# Induce a watchdog trip: with a 2-cycle window the first deliveries
# (~50 cycles out) are "late", so the watchdog fires during warmup and
# dumps a postmortem — which hnoc_inspect must then load and render.
run_step("cli induced trip" "${HNOC_CLI}"
    --layout Baseline --pattern uniform --rate 0.02 --seed 1
    --watchdog=2 --postmortem "${WORK_DIR}/trip_postmortem.json")
if(NOT EXISTS "${WORK_DIR}/trip_postmortem.json")
    message(FATAL_ERROR "inspect_e2e: watchdog trip wrote no postmortem")
endif()

run_step("inspect postmortem"
    "${HNOC_INSPECT}" postmortem "${WORK_DIR}/trip_postmortem.json")
if(NOT STEP_OUT MATCHES "hnoc-postmortem-v1")
    message(FATAL_ERROR
        "inspect_e2e: postmortem output lacks schema:\n${STEP_OUT}")
endif()

# Blame pipeline: one run with --blame that also trips the watchdog,
# giving both a latency_blame report section and a flight-recorder
# postmortem — enough to exercise `hnoc_inspect blame` including the
# critical-path replay. In HNOC_TELEMETRY=OFF builds the report has no
# latency_blame section; the inspector must then fail cleanly (exit 1
# citing the missing section), which this step accepts.
run_step("cli blame" "${HNOC_CLI}"
    --layout Diagonal+BL --pattern uniform --rate 0.02 --seed 1
    --blame --watchdog=2
    --json "${WORK_DIR}/blame_run.json"
    --postmortem "${WORK_DIR}/blame_postmortem.json")
execute_process(
    COMMAND "${HNOC_INSPECT}" blame "${WORK_DIR}/blame_run.json"
        --events "${WORK_DIR}/blame_postmortem.json"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(rc EQUAL 0)
    if(NOT out MATCHES "latency blame")
        message(FATAL_ERROR "inspect_e2e: blame lacks summary:\n${out}")
    endif()
    if(NOT out MATCHES "percentile ladder")
        message(FATAL_ERROR "inspect_e2e: blame lacks ladder:\n${out}")
    endif()
    if(NOT out MATCHES "critical-path replay")
        message(FATAL_ERROR "inspect_e2e: blame lacks replay:\n${out}")
    endif()
elseif(NOT err MATCHES "no latency_blame")
    message(FATAL_ERROR
        "inspect_e2e: blame failed unexpectedly (exit ${rc}):\n${err}")
endif()

# A malformed document must be a clean, nonzero-exit error.
file(WRITE "${WORK_DIR}/broken.json" "{\"schema\": ")
execute_process(
    COMMAND "${HNOC_INSPECT}" summary "${WORK_DIR}/broken.json"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "inspect_e2e: malformed JSON must not exit 0")
endif()
if(NOT err MATCHES "byte")
    message(FATAL_ERROR
        "inspect_e2e: parse error should cite a byte offset:\n${err}")
endif()

message(STATUS "inspect_e2e: all steps passed")
