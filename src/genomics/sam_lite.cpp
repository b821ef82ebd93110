#include "genomics/sam_lite.hpp"

#include <charconv>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace repute::genomics {

namespace {

std::uint64_t parse_u64(const std::string& field, const char* what) {
    std::uint64_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(field.data(), field.data() + field.size(), v);
    if (ec != std::errc{} || ptr != field.data() + field.size()) {
        throw std::runtime_error(std::string("SAM: bad ") + what + ": " +
                                 field);
    }
    return v;
}

} // namespace

std::vector<SamRecord> read_sam(std::istream& in) {
    std::vector<SamRecord> records;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '@') continue;
        std::istringstream ss(line);
        std::vector<std::string> fields;
        std::string field;
        while (std::getline(ss, field, '\t')) fields.push_back(field);
        if (fields.size() < 11) {
            throw std::runtime_error("SAM: record with <11 fields: " + line);
        }
        SamRecord r;
        r.qname = fields[0];
        r.flag = static_cast<std::uint16_t>(parse_u64(fields[1], "flag"));
        r.rname = fields[2];
        r.pos = static_cast<std::uint32_t>(parse_u64(fields[3], "pos"));
        r.mapq = static_cast<std::uint8_t>(parse_u64(fields[4], "mapq"));
        r.cigar = fields[5];
        r.rnext = fields[6];
        r.pnext = static_cast<std::uint32_t>(parse_u64(fields[7], "pnext"));
        r.tlen = static_cast<std::int32_t>(
            std::strtol(fields[8].c_str(), nullptr, 10));
        r.seq = fields[9];
        for (std::size_t i = 11; i < fields.size(); ++i) {
            if (fields[i].rfind("NM:i:", 0) == 0) {
                r.edit_distance = static_cast<std::uint32_t>(
                    parse_u64(fields[i].substr(5), "NM tag"));
            }
        }
        records.push_back(std::move(r));
    }
    return records;
}

} // namespace repute::genomics
