#include "sam_check.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "genomics/sam_lite.hpp"

namespace e2e {

Truth load_truth(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    Truth truth;
    std::string name, contig;
    std::uint32_t offset = 0;
    char strand = '+';
    while (in >> name >> contig >> offset >> strand) {
        truth.by_name[name] = {contig, offset, strand == '-'};
        truth.names.push_back(name);
    }
    if (truth.names.empty()) throw std::runtime_error("empty truth " + path);
    return truth;
}

SamCheck check_sam(const std::string& sam, const Truth& truth,
                   std::uint32_t delta) {
    std::istringstream in(sam);
    std::unordered_set<std::string_view> seen, recalled;
    SamCheck check;
    for (const auto& rec : repute::genomics::read_sam(in)) {
        const auto it = truth.by_name.find(rec.qname);
        if (it == truth.by_name.end()) {
            ++check.unknown;
            continue;
        }
        const std::string_view name = it->first;
        seen.insert(name);
        if (rec.unmapped()) continue;
        const Origin& origin = it->second;
        const auto diff = static_cast<std::int64_t>(rec.pos) - 1 -
                          static_cast<std::int64_t>(origin.offset);
        if (rec.rname == origin.contig &&
            (rec.strand() == repute::genomics::Strand::Reverse) ==
                origin.reverse &&
            diff >= -static_cast<std::int64_t>(delta) &&
            diff <= static_cast<std::int64_t>(delta)) {
            recalled.insert(name);
        }
    }
    check.reads = truth.names.size();
    check.missing = check.reads - seen.size();
    check.recalled = recalled.size();
    return check;
}

} // namespace e2e
