# Instance bytes must not depend on the generator's thread flags.
#
#   cmake -DCLI=<gmark_cli> -DOUT_DIR=<dir> -P thread_identity.cmake
#
# Runs `gmark_cli --use-case Bib -n 2000 -g ...` for each format with no
# --threads flag, --threads 1, --threads 4 and --threads 4 with shards
# spilled to disk, and fails unless every run of a format wrote the same
# bytes.
if(NOT CLI OR NOT OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DOUT_DIR=... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR}/spill)

foreach(format nt csv)
  set(baseline "")
  foreach(variant default t1 t4 t4spill)
    if(variant STREQUAL "default")
      set(flags "")
    elseif(variant STREQUAL "t1")
      set(flags --threads 1)
    elseif(variant STREQUAL "t4")
      set(flags --threads 4)
    else()
      set(flags --threads 4 --spill-dir ${OUT_DIR}/spill)
    endif()
    set(path ${OUT_DIR}/bib_${variant}.${format})
    execute_process(
      COMMAND ${CLI} --use-case Bib -n 2000 --format ${format} -g ${path}
              ${flags}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "gmark_cli ${flags} (${format}) failed: ${rc}\n${err}")
    endif()
    message(STATUS "${variant} ${format}: ${out}")
    if(baseline STREQUAL "")
      set(baseline ${path})
    else()
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${baseline} ${path}
        RESULT_VARIABLE differs)
      if(NOT differs EQUAL 0)
        message(FATAL_ERROR "${path} differs from ${baseline}")
      endif()
    endif()
  endforeach()
endforeach()
