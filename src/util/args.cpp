#include "util/args.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace repute::util {

Args::Args(int argc, const char* const* argv) {
    if (argc > 0) program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string_view token = argv[i];
        if (!token.starts_with("--")) {
            positional_.emplace_back(token);
            continue;
        }
        const std::string_view body = token.substr(2);
        if (body.empty()) {
            throw std::invalid_argument("bare '--' is not supported");
        }
        if (const auto eq = body.find('='); eq != std::string_view::npos) {
            values_[std::string(body.substr(0, eq))] =
                std::string(body.substr(eq + 1));
            continue;
        }
        // `--key value` when the next token is not itself a flag,
        // otherwise a boolean `--flag`.
        if (i + 1 < argc &&
            !std::string_view(argv[i + 1]).starts_with("--")) {
            values_[std::string(body)] = argv[++i];
        } else {
            values_[std::string(body)] = "";
        }
    }
}

bool Args::has(std::string_view name) const {
    return values_.find(name) != values_.end();
}

std::vector<std::string> Args::unknown(
    std::span<const std::string_view> known) const {
    std::vector<std::string> out;
    for (const auto& entry : values_) {
        if (std::find(known.begin(), known.end(), entry.first) ==
            known.end()) {
            out.push_back(entry.first);
        }
    }
    return out;
}

std::string Args::get_string(std::string_view name,
                             std::string default_value) const {
    const auto it = values_.find(name);
    return it == values_.end() ? std::move(default_value) : it->second;
}

std::int64_t Args::get_int(std::string_view name,
                           std::int64_t default_value) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return default_value;
    std::int64_t out = 0;
    const auto& s = it->second;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    if (ec != std::errc{} || ptr != s.data() + s.size()) {
        throw std::invalid_argument("--" + std::string(name) +
                                    " expects an integer, got '" + s + "'");
    }
    return out;
}

double Args::get_double(std::string_view name, double default_value) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return default_value;
    try {
        std::size_t consumed = 0;
        const double out = std::stod(it->second, &consumed);
        if (consumed != it->second.size()) throw std::invalid_argument("");
        return out;
    } catch (const std::exception&) {
        throw std::invalid_argument("--" + std::string(name) +
                                    " expects a number, got '" + it->second +
                                    "'");
    }
}

bool Args::get_bool(std::string_view name, bool default_value) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return default_value;
    const auto& s = it->second;
    if (s.empty() || s == "true" || s == "1" || s == "yes") return true;
    if (s == "false" || s == "0" || s == "no") return false;
    throw std::invalid_argument("--" + std::string(name) +
                                " expects a boolean, got '" + s + "'");
}

} // namespace repute::util
