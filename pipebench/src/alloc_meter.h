#pragma once
// Heap bytes allocated through operator new, tracked only while enabled
// (traced runs), so that a layer's peak working memory can be read around
// one call. The untraced run pays one relaxed load per allocation.

#include <cstdint>

namespace pipebench::alloc_meter {

void set_enabled(bool on);

/// Restart the high-water mark at the current live byte count.
void reset_peak();

/// Live bytes now and the high-water mark since reset_peak. Allocations
/// made while disabled are not counted, so both are relative measures.
std::int64_t live_bytes();
std::int64_t peak_bytes();

}  // namespace pipebench::alloc_meter
