# Run "COMMAND ARGS FLAG [VALUE]" once per flag in FLAGS (space-separated;
# a flag that takes a value is written FLAG=VALUE) and require each run
# to fail with "<flag> is not supported". Invoked by ctest via cmake -P.
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(flags UNIX_COMMAND "${FLAGS}")
foreach(item IN LISTS flags)
    string(REPLACE "=" ";" extra "${item}")
    list(GET extra 0 flag)
    execute_process(COMMAND ${COMMAND} ${args} ${extra}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(rc EQUAL 0)
        message(FATAL_ERROR "${flag}: accepted (exit 0)")
    endif()
    string(FIND "${out}${err}" "${flag} is not supported" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${flag}: no rejection message:\n${out}${err}")
    endif()
    message(STATUS "${flag}: rejected")
endforeach()
