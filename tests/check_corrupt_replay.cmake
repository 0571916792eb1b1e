# Gate for the CLI's corrupt-artifact handling: `lesslog_cli chaos
# --replay <file>` on a damaged artifact must exit 2 (usage/error
# convention) with a diagnosis naming the syntax problem — never crash,
# never exit 0/1 as if the replay ran.
#
# Invoked as a ctest:
#   cmake -DCLI=<lesslog_cli> -DWORK_DIR=<dir> -P check_corrupt_replay.cmake
if(NOT DEFINED CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORK_DIR=... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

function(expect_rejection name artifact_body expected_message)
  set(artifact "${WORK_DIR}/corrupt_${name}.json")
  file(WRITE "${artifact}" "${artifact_body}")
  execute_process(
    COMMAND "${CLI}" chaos --replay "${artifact}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "${name}: expected exit code 2 on a corrupt artifact, got '${rc}'\n"
      "stdout: ${out}\nstderr: ${err}")
  endif()
  if(NOT err MATCHES "chaos artifact")
    message(FATAL_ERROR
      "${name}: error message does not name the chaos artifact\n"
      "stderr: ${err}")
  endif()
  if(NOT err MATCHES "${expected_message}")
    message(FATAL_ERROR
      "${name}: error message lacks the parser diagnosis "
      "'${expected_message}'\nstderr: ${err}")
  endif()
  message(STATUS "${name}: rejected with exit 2 and diagnosis (ok)")
endfunction()

# A bit-flip in a \u escape: the hex-validation path.
expect_rejection(unicode
  "{\"schema\":\"lesslog.chaos\",\"note\":\"\\uZZZZ\"}"
  "u escape")

# A truncated artifact: the generic syntax path, with a byte offset.
expect_rejection(truncated
  "{\"schema\":\"lesslog.chaos\","
  "at byte")

# A well-formed artifact of an unsupported format version: refused by
# name, never replayed as another schedule.
expect_rejection(version1
  "{\"schema\":\"lesslog.chaos\",\"version\":1,\"config\":{}}"
  "unsupported version 1")
