/**
 * @file
 * Small string helpers used by the config parser, workload file I/O, and
 * report formatting.
 */

#ifndef BIGHOUSE_BASE_STRINGS_HH
#define BIGHOUSE_BASE_STRINGS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bighouse {

/** Split on a delimiter character; empty fields are preserved. */
std::vector<std::string> split(std::string_view text, char delim);

/** Split on runs of whitespace; empty fields are dropped. */
std::vector<std::string> splitWhitespace(std::string_view text);

/** Strip leading and trailing ASCII whitespace. */
std::string_view trim(std::string_view text);

/** True when `text` begins with `prefix`. */
bool startsWith(std::string_view text, std::string_view prefix);

/** True when `text` ends with `suffix`. */
bool endsWith(std::string_view text, std::string_view suffix);

/** Lower-cased copy (ASCII). */
std::string toLower(std::string_view text);

/** Parse a double; nullopt when the text is not exactly one number. */
std::optional<double> parseDouble(std::string_view text);

/** Parse a signed 64-bit integer; nullopt on any trailing garbage. */
std::optional<long long> parseInt(std::string_view text);

/** Join items with a separator. */
std::string join(const std::vector<std::string>& items,
                 std::string_view separator);

/**
 * FNV-1a 64-bit hash: content addressing for campaign cache entries and
 * parallel checkpoint identities.
 */
std::uint64_t fnv1a64(std::string_view bytes);

/** 16-hex-digit rendering of a 64-bit hash (cache file stem). */
std::string hashHex(std::uint64_t hash);

/** Levenshtein edit distance (for did-you-mean suggestions). */
std::size_t editDistance(std::string_view a, std::string_view b);

/**
 * The candidate nearest to `name` by edit distance, or empty when every
 * candidate is further away than `name`'s own length (a suggestion that
 * different would be noise, not help).
 */
std::string_view nearestCandidate(
    std::string_view name, const std::vector<std::string_view>& candidates);

/**
 * fatal() for an unknown enum/config name, in the same did-you-mean
 * style as strict config loading: names the offender, suggests the
 * nearest candidate, and lists everything that is accepted.
 */
[[noreturn]] void fatalUnknownName(
    std::string_view what, std::string_view name,
    const std::vector<std::string_view>& candidates);

} // namespace bighouse

#endif // BIGHOUSE_BASE_STRINGS_HH
