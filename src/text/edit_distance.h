#ifndef SSJOIN_TEXT_EDIT_DISTANCE_H_
#define SSJOIN_TEXT_EDIT_DISTANCE_H_

#include <cstddef>
#include <string_view>

namespace ssjoin {

/// Full Levenshtein distance (unit-cost insert/delete/substitute) between
/// `a` and `b`. O(|a|·|b|) time, O(min(|a|,|b|)) space.
size_t EditDistance(std::string_view a, std::string_view b);

/// Returns true iff EditDistance(a, b) <= k, computed with the banded
/// (Ukkonen) DP in O(k·min(|a|,|b|)) time. This is the verifier that turns
/// the q-gram candidate join of Section 5.2.3 into an exact
/// edit-distance join.
bool EditDistanceAtMost(std::string_view a, std::string_view b, size_t k);

}  // namespace ssjoin

#endif  // SSJOIN_TEXT_EDIT_DISTANCE_H_
