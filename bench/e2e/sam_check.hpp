#pragma once
// Output checks: every input read appears in the SAM, and the share of
// reads placed at their simulated origin (recall).

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace e2e {

struct Origin {
    std::string contig;
    std::uint32_t offset = 0; ///< 0-based within the contig
    bool reverse = false;
};

/// Truth sidecar rows, keyed by read name, in file order.
struct Truth {
    std::unordered_map<std::string, Origin> by_name;
    std::vector<std::string> names;
};

Truth load_truth(const std::string& path);

struct SamCheck {
    std::size_t reads = 0;    ///< truth reads expected in the SAM
    std::size_t missing = 0;  ///< truth reads with no SAM record
    std::size_t unknown = 0;  ///< SAM records naming no truth read
    std::size_t recalled = 0; ///< reads with a record at their origin

    double recall_pct() const {
        return reads == 0 ? 0.0
                          : 100.0 * static_cast<double>(recalled) /
                                static_cast<double>(reads);
    }
    /// Reads that count as failed: missing ones plus stray records.
    std::size_t failed() const { return missing + unknown; }
};

/// Checks SAM text (one or several concatenated documents) against
/// `truth`: a read is recalled when some record of it lies on its true
/// contig and strand within +-`delta` of its origin.
SamCheck check_sam(const std::string& sam, const Truth& truth,
                   std::uint32_t delta);

} // namespace e2e
