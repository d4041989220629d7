#ifndef SSJOIN_TESTS_ALLOC_COUNTER_H_
#define SSJOIN_TESTS_ALLOC_COUNTER_H_

#include <cstdint>

namespace ssjoin {
namespace testing_util {

/// Calls of every global operator new overload (plain, array,
/// over-aligned and nothrow) the process has made so far, on any thread.
/// A test binary that links alloc_counter.cc gets the counting
/// replacements of the global allocation functions.
uint64_t AllocationCalls();

}  // namespace testing_util
}  // namespace ssjoin

#endif  // SSJOIN_TESTS_ALLOC_COUNTER_H_
