#include "base/strings.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "base/logging.hh"

namespace bighouse {

std::vector<std::string>
split(std::string_view text, char delim)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            return out;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::vector<std::string>
splitWhitespace(std::string_view text)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size()
               && std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        const std::size_t start = i;
        while (i < text.size()
               && !std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        if (i > start)
            out.emplace_back(text.substr(start, i - start));
    }
    return out;
}

std::string_view
trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end
           && std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin
           && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return text.substr(begin, end - begin);
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size()
           && text.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size()
           && text.substr(text.size() - suffix.size()) == suffix;
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (char& c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::optional<double>
parseDouble(std::string_view text)
{
    const std::string_view trimmed = trim(text);
    if (trimmed.empty())
        return std::nullopt;
    const std::string buf(trimmed);
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(buf.c_str(), &end);
    if (errno != 0 || end != buf.c_str() + buf.size())
        return std::nullopt;
    return value;
}

std::optional<long long>
parseInt(std::string_view text)
{
    const std::string_view trimmed = trim(text);
    if (trimmed.empty())
        return std::nullopt;
    const std::string buf(trimmed);
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(buf.c_str(), &end, 10);
    if (errno != 0 || end != buf.c_str() + buf.size())
        return std::nullopt;
    return value;
}

std::string
join(const std::vector<std::string>& items, std::string_view separator)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += separator;
        out += items[i];
    }
    return out;
}

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hashHex(std::uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::size_t
editDistance(std::string_view a, std::string_view b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diagonal = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t substitute =
                diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
            diagonal = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
        }
    }
    return row[b.size()];
}

std::string_view
nearestCandidate(std::string_view name,
                 const std::vector<std::string_view>& candidates)
{
    std::string_view nearest;
    std::size_t best = name.size();  // suggestions beyond this are noise
    for (std::string_view candidate : candidates) {
        const std::size_t distance = editDistance(name, candidate);
        if (distance < best) {
            best = distance;
            nearest = candidate;
        }
    }
    return nearest;
}

void
fatalUnknownName(std::string_view what, std::string_view name,
                 const std::vector<std::string_view>& candidates)
{
    const std::string_view nearest = nearestCandidate(name, candidates);
    std::string accepted;
    for (std::string_view candidate : candidates) {
        if (!accepted.empty())
            accepted += ", ";
        accepted += candidate;
    }
    fatal("unknown ", what, " '", std::string(name), "'",
          nearest.empty()
              ? std::string()
              : " (did you mean '" + std::string(nearest) + "'?)",
          "; accepted: ", accepted);
}

} // namespace bighouse
