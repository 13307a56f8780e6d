#pragma once
// Counting replacement of the global operator new/delete, for binaries that
// measure their own heap traffic (the alloc_tests gtest binary, the
// epidemic_scaling bench). Link the `alloc_hook` object library into such a
// binary; never into the cyberdissect library, whose users keep the stock
// allocator.
//
// The replaced operators live out of line in alloc_hook.cpp. Defined in the
// measuring binary's own source, GCC inlines delete's free() next to calls
// of a new it does not see as malloc, and -Wmismatched-new-delete fires.

#include <cstdint>

// Sanitizer builds interpose their own allocator machinery around
// operator new; the counts stop meaning "allocations the code under test
// made", so exact-count assertions are skipped there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CYD_ALLOC_COUNTS_RELIABLE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define CYD_ALLOC_COUNTS_RELIABLE 0
#endif
#endif
#ifndef CYD_ALLOC_COUNTS_RELIABLE
#define CYD_ALLOC_COUNTS_RELIABLE 1
#endif

namespace cyd::alloc_hook {

/// operator new / new[] calls since process start.
std::uint64_t allocations();
/// Bytes requested through them since process start.
std::uint64_t bytes();

}  // namespace cyd::alloc_hook
