#include "core/sharded_mapper.hpp"

#include <algorithm>

namespace repute::core {

std::vector<ShardView> shard_views_of(const index::ShardedIndex& index) {
    std::vector<ShardView> views;
    views.reserve(index.shards().size());
    for (const index::ShardedIndex::Shard& s : index.shards()) {
        views.push_back({&s.mapped.multi().concatenated(), &s.mapped.fm(),
                         s.text_offset, s.own_lo(), s.own_hi()});
    }
    return views;
}

void merge_sharded_read(
    std::span<const std::span<const ReadMapping>> per_shard,
    std::uint32_t max_locations, std::vector<ReadMapping>& out) {
    out.clear();
    // Rebuild the monolithic generation order: within one strand the
    // kernel accepts candidates in ascending position, and shard owned
    // ranges partition the text in base order — concatenating the
    // shards' per-strand sublists IS the monolithic accept stream. The
    // first-n cap then lands on exactly the same accept.
    bool capped = false;
    for (const genomics::Strand strand :
         {genomics::Strand::Forward, genomics::Strand::Reverse}) {
        for (const std::span<const ReadMapping> list : per_shard) {
            for (const ReadMapping& m : list) {
                if (m.strand != strand) continue;
                if (out.size() >= max_locations) {
                    capped = true;
                    break;
                }
                out.push_back(m);
            }
            if (capped) break;
        }
        if (capped) break;
    }
    std::sort(out.begin(), out.end(),
              [](const ReadMapping& a, const ReadMapping& b) {
                  return a.position != b.position
                             ? a.position < b.position
                             : a.strand < b.strand;
              });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const ReadMapping& a, const ReadMapping& b) {
                              return a.position == b.position &&
                                     a.strand == b.strand;
                          }),
              out.end());
}

} // namespace repute::core
