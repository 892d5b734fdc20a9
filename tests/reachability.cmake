# Reachability audit: every src/ file is reached from a shipped tool, or
# tests/reachability_allowlist.txt names it with the ROADMAP item that
# will decide it.
#
#   cmake -DROOT=<repository root> -P tests/reachability.cmake
#
# The walk starts at every tools/*.cc and follows #include "..." lines,
# resolved like the compiler does: beside the including file, then under
# src/. A reached header also reaches the .cc of the same stem beside it.
# The audit fails on an unreached src/ .hh or .cc that the list does not
# name, on a list entry that is missing, reached or names no item, and on
# a walk that reaches nothing, so it can neither go stale nor pass
# vacuously.

cmake_minimum_required(VERSION 3.16)

if(NOT ROOT)
    message(FATAL_ERROR "usage: cmake -DROOT=<repository root> -P "
                        "reachability.cmake")
endif()
get_filename_component(ROOT "${ROOT}" ABSOLUTE)

file(GLOB pending "${ROOT}/tools/*.cc")
set(reached "")
while(pending)
    list(POP_FRONT pending file)
    if(file IN_LIST reached)
        continue()
    endif()
    list(APPEND reached "${file}")
    get_filename_component(dir "${file}" DIRECTORY)
    file(STRINGS "${file}" includes REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
    foreach(line IN LISTS includes)
        string(REGEX REPLACE "^[^\"]*\"([^\"]+)\".*$" "\\1" name "${line}")
        foreach(candidate "${dir}/${name}" "${ROOT}/src/${name}")
            if(EXISTS "${candidate}")
                get_filename_component(candidate "${candidate}" ABSOLUTE)
                string(REGEX REPLACE "\\.hh$" ".cc" source "${candidate}")
                list(APPEND pending "${candidate}")
                if(NOT source STREQUAL candidate AND EXISTS "${source}")
                    list(APPEND pending "${source}")
                endif()
                break()
            endif()
        endforeach()
    endforeach()
endwhile()

set(walked "")
foreach(file IN LISTS reached)
    file(RELATIVE_PATH path "${ROOT}" "${file}")
    if(path MATCHES "^src/")
        list(APPEND walked "${path}")
    endif()
endforeach()

set(errors "")
if(NOT walked)
    list(APPEND errors "the walk from tools/*.cc reached no src/ file")
endif()

set(allowed "")
file(STRINGS "${ROOT}/tests/reachability_allowlist.txt" entries)
foreach(entry IN LISTS entries)
    if(entry MATCHES "^[ \t]*(#|$)")
        continue()
    endif()
    if(NOT entry MATCHES "^(src/[^ \t]+)[ \t]+.*item [0-9]+")
        list(APPEND errors
             "allow-list entry '${entry}' is not '<src/ path> ... item <N>'")
        continue()
    endif()
    set(path "${CMAKE_MATCH_1}")
    list(APPEND allowed "${path}")
    if(NOT EXISTS "${ROOT}/${path}")
        list(APPEND errors "${path}: allow-listed but missing; drop the entry")
    elseif(path IN_LIST walked)
        list(APPEND errors
             "${path}: allow-listed but reached from tools/; drop the entry")
    endif()
endforeach()

file(GLOB_RECURSE sources RELATIVE "${ROOT}" "${ROOT}/src/*.cc"
     "${ROOT}/src/*.hh")
list(SORT sources)
list(LENGTH sources total)
list(LENGTH walked count)
foreach(path IN LISTS sources)
    if(NOT path IN_LIST walked AND NOT path IN_LIST allowed)
        list(APPEND errors "${path}: no tools/*.cc reaches it")
    endif()
endforeach()

if(errors)
    string(REPLACE ";" "\n  " report "${errors}")
    message(FATAL_ERROR "reachability audit failed:\n  ${report}\n"
            "Wire an unreached file into a tool, delete it, or name it in "
            "tests/reachability_allowlist.txt with the ROADMAP item that "
            "will decide it.")
endif()
list(LENGTH allowed listed)
message(STATUS "reachability: ${count} of ${total} src/ files reached "
               "from tools/*.cc, ${listed} allow-listed")
