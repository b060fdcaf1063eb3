# Checks that BENCHMARK.json names exactly the workloads and metrics that
# `ode_bench --list-metrics` prints, in the same order, with the same
# fields (why, unit, better, bound) and no others.
#
#   cmake -DODE_BENCH=<ode_bench binary> -DBENCHMARK_JSON=<file> \
#         -P check_metrics.cmake
execute_process(COMMAND "${ODE_BENCH}" --list-metrics
                OUTPUT_VARIABLE listed RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${ODE_BENCH} --list-metrics exited with ${rc}")
endif()
file(READ "${BENCHMARK_JSON}" declared)

set(mismatches 0)
foreach(section workloads end_to_end per_layer)
  string(JSON n_listed LENGTH "${listed}" ${section})
  string(JSON n_declared ERROR_VARIABLE err LENGTH "${declared}" ${section})
  if(err OR NOT n_listed EQUAL n_declared)
    message(SEND_ERROR "${section}: ode_bench lists ${n_listed} entries, "
                       "BENCHMARK.json has '${n_declared}' ${err}")
    math(EXPR mismatches "${mismatches} + 1")
    continue()
  endif()
  math(EXPR last "${n_listed} - 1")
  foreach(i RANGE ${last})
    string(JSON fields LENGTH "${listed}" ${section} ${i})
    string(JSON declared_fields LENGTH "${declared}" ${section} ${i})
    string(JSON name GET "${listed}" ${section} ${i} name)
    if(NOT fields EQUAL declared_fields)
      message(SEND_ERROR "${section}[${i}] ${name}: ${declared_fields} fields in "
                         "BENCHMARK.json, ${fields} listed")
      math(EXPR mismatches "${mismatches} + 1")
    endif()
    math(EXPR last_field "${fields} - 1")
    foreach(f RANGE ${last_field})
      string(JSON key MEMBER "${listed}" ${section} ${i} ${f})
      string(JSON want GET "${listed}" ${section} ${i} ${key})
      string(JSON got ERROR_VARIABLE err GET "${declared}" ${section} ${i} ${key})
      if(err OR NOT want STREQUAL got)
        message(SEND_ERROR "${section}[${i}] ${name}.${key}: BENCHMARK.json "
                           "has '${got}', ode_bench lists '${want}'")
        math(EXPR mismatches "${mismatches} + 1")
      endif()
    endforeach()
  endforeach()
endforeach()

if(mismatches GREATER 0)
  message(FATAL_ERROR "BENCHMARK.json disagrees with ode_bench --list-metrics")
endif()
message(STATUS "BENCHMARK.json matches ode_bench --list-metrics")
