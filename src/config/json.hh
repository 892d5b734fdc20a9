/**
 * @file
 * Minimal JSON document model and recursive-descent parser.
 *
 * BigHouse experiments are described by configuration files ("configuration
 * files describe how BigHouse should instantiate and connect these objects
 * and supply parameters such as number of cores, peak power, etc."). This
 * is a deliberately small, dependency-free JSON subset: objects, arrays,
 * strings, numbers, booleans, null; UTF-8 passthrough; `//` line comments
 * as an extension for annotated experiment files.
 */

#ifndef BIGHOUSE_CONFIG_JSON_HH
#define BIGHOUSE_CONFIG_JSON_HH

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace bighouse {

/** One JSON value; composite values own their children. */
class JsonValue
{
  public:
    using Array = std::vector<JsonValue>;
    using Object = std::map<std::string, JsonValue>;

    /// Constructs null.
    JsonValue() : value(nullptr) {}
    JsonValue(std::nullptr_t) : value(nullptr) {}
    JsonValue(bool b) : value(b) {}
    JsonValue(double d) : value(d) {}
    JsonValue(int i) : value(static_cast<double>(i)) {}
    JsonValue(long long i) : value(static_cast<double>(i)) {}
    JsonValue(const char* s) : value(std::string(s)) {}
    JsonValue(std::string s) : value(std::move(s)) {}
    JsonValue(Array a) : value(std::move(a)) {}
    JsonValue(Object o) : value(std::move(o)) {}

    bool isNull() const { return std::holds_alternative<std::nullptr_t>(value); }
    bool isBool() const { return std::holds_alternative<bool>(value); }
    bool isNumber() const { return std::holds_alternative<double>(value); }
    bool isString() const { return std::holds_alternative<std::string>(value); }
    bool isArray() const { return std::holds_alternative<Array>(value); }
    bool isObject() const { return std::holds_alternative<Object>(value); }

    /** Typed accessors; fatal() on type mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string& asString() const;
    const Array& asArray() const;
    const Object& asObject() const;
    Array& asArray();
    Object& asObject();

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue* find(std::string_view key) const;

    /** Serialize (stable key order, 17-digit numbers round-trip). */
    std::string dump(int indent = 0) const;

  private:
    void dumpTo(std::string& out, int indent, int depth) const;

    std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
        value;
};

/** Result of a parse attempt. */
struct JsonParseResult
{
    bool ok = false;
    JsonValue value;
    std::string error;  ///< "line L, column C: message" when !ok
};

/**
 * Set the value at a dotted path (e.g. "workload.interarrival.cv"),
 * creating intermediate objects as needed — the primitive campaign sweep
 * axes use to overlay one sweep value onto a base experiment config.
 * fatal() when a path segment traverses an existing non-object value.
 */
void jsonSetPath(JsonValue& root, std::string_view dottedPath,
                 JsonValue value);

/** Parse a complete JSON document (with // comment extension). */
JsonParseResult parseJson(std::string_view text);

/** Parse a file; fatal() on I/O or syntax error (user error). */
JsonValue parseJsonFile(const std::string& path);

/**
 * Write `text` to `path` atomically: staged to `path + ".tmp"`, then
 * renamed over the target, so a reader (or a run killed mid-write)
 * never sees a torn file. fatal() on I/O errors.
 */
void writeFileAtomic(const std::string& path, std::string_view text);

/** Serialize `value` (2-space indent, trailing newline) atomically. */
void writeJsonFile(const std::string& path, const JsonValue& value);

} // namespace bighouse

#endif // BIGHOUSE_CONFIG_JSON_HH
