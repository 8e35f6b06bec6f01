# Smoke check of the two tools that link the runtime guards (dj_guard).
#
#   DJ_MODE=lockgraph_json  dj_lockgraph --format=json: at least one node
#                           and one edge in the observed lock-order graph
#   DJ_MODE=lockgraph_dot   dj_lockgraph --format=dot: at least one edge
#   DJ_MODE=stats           dj_stats --format=json: the metrics snapshot's
#                           dj_alloc_count and dj_alloc_bytes gauges are > 0
#
# Invoke:
#   cmake -DDJ_MODE=<mode> -DDJ_BIN=<tool> -P cmake/check_guard_dump.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
foreach(var DJ_MODE DJ_BIN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

if(DJ_MODE STREQUAL "lockgraph_json")
  set(args --format=json)
elseif(DJ_MODE STREQUAL "lockgraph_dot")
  set(args --format=dot)
elseif(DJ_MODE STREQUAL "stats")
  set(args --repo=64 --queries=4 --format=json)
else()
  message(FATAL_ERROR "unknown DJ_MODE=${DJ_MODE}")
endif()

execute_process(COMMAND ${DJ_BIN} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${DJ_BIN} ${args} exited ${rc}:\n${err}")
endif()

if(DJ_MODE STREQUAL "lockgraph_json")
  string(JSON nodes LENGTH "${out}" nodes)
  string(JSON edges LENGTH "${out}" edges)
  if(nodes EQUAL 0 OR edges EQUAL 0)
    message(FATAL_ERROR "empty lock-order graph (${nodes} nodes, "
                        "${edges} edges):\n${out}")
  endif()
  message(STATUS "dj_lockgraph: ${nodes} nodes, ${edges} edges")
elseif(DJ_MODE STREQUAL "lockgraph_dot")
  if(NOT out MATCHES "digraph lock_order" OR NOT out MATCHES "\" -> \"")
    message(FATAL_ERROR "DOT dump without edges:\n${out}")
  endif()
else()
  string(JSON count GET "${out}" gauges dj_alloc_count)
  string(JSON bytes GET "${out}" gauges dj_alloc_bytes)
  if(NOT count GREATER 0 OR NOT bytes GREATER 0)
    message(FATAL_ERROR "alloc tallies not exported: dj_alloc_count=${count} "
                        "dj_alloc_bytes=${bytes}")
  endif()
  message(STATUS "dj_stats: dj_alloc_count=${count} dj_alloc_bytes=${bytes}")
endif()
