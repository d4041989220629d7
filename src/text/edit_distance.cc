#include "text/edit_distance.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace ssjoin {

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];  // D[i-1][j-1]
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t up = row[j];  // D[i-1][j]
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({row[j - 1] + 1, up + 1, diag + cost});
      diag = up;
    }
  }
  return row[b.size()];
}

bool EditDistanceAtMost(std::string_view a, std::string_view b, size_t k) {
  if (a.size() < b.size()) std::swap(a, b);
  if (a.size() - b.size() > k) return false;
  if (k == 0) return a == b;

  // Banded DP: only cells with |i - j| <= k can hold values <= k.
  constexpr size_t kInf = std::numeric_limits<size_t>::max() / 2;
  std::vector<size_t> row(b.size() + 1, kInf);
  for (size_t j = 0; j <= std::min(b.size(), k); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t lo = (i > k) ? i - k : 0;
    size_t hi = std::min(b.size(), i + k);
    size_t diag = (lo > 0) ? row[lo - 1] : kInf;  // D[i-1][lo-1]
    if (lo == 0) {
      diag = row[0];
      row[0] = i;
    }
    size_t row_min = (lo == 0) ? row[0] : kInf;
    if (lo > 0) row[lo - 1] = kInf;  // outside the band for this row
    for (size_t j = std::max<size_t>(lo, 1); j <= hi; ++j) {
      size_t up = row[j];
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({row[j - 1] + 1, up + 1, diag + cost});
      diag = up;
      row_min = std::min(row_min, row[j]);
    }
    if (hi < b.size()) row[hi + 1] = kInf;  // invalidate stale cell
    if (row_min > k) return false;          // the whole band exceeded k
  }
  return row[b.size()] <= k;
}

}  // namespace ssjoin
