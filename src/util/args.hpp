#pragma once
// Tiny declarative CLI argument parser for the `repute` CLI, the
// examples and bench harnesses: `--flag`, `--key value` and
// `--key=value` forms.

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace repute::util {

class Args {
public:
    /// Parses argv; throws std::invalid_argument on a malformed token.
    Args(int argc, const char* const* argv);

    /// True if `--name` was present (with or without a value).
    bool has(std::string_view name) const;

    std::string get_string(std::string_view name,
                           std::string default_value) const;
    std::int64_t get_int(std::string_view name,
                         std::int64_t default_value) const;
    double get_double(std::string_view name, double default_value) const;
    bool get_bool(std::string_view name, bool default_value) const;

    /// The `--name`s present that are not in `known`, sorted — what a
    /// command refuses so that a misspelled option is not silently
    /// ignored.
    std::vector<std::string> unknown(
        std::span<const std::string_view> known) const;

    /// Positional (non --key) tokens, in order.
    const std::vector<std::string>& positional() const noexcept {
        return positional_;
    }

    const std::string& program() const noexcept { return program_; }

private:
    std::string program_;
    std::map<std::string, std::string, std::less<>> values_;
    std::vector<std::string> positional_;
};

} // namespace repute::util
