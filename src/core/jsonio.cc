#include "jsonio.h"

#include <charconv>
#include <stdexcept>

namespace archgym {
namespace jsonio {

void
appendDouble(std::string &out, double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

std::string
escape(const std::string &s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const auto byte = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\r') {
            out += "\\r";
        } else if (c == '\t') {
            out += "\\t";
        } else if (byte < 0x20) {
            out += "\\u00";
            out.push_back(kHex[byte >> 4]);
            out.push_back(kHex[byte & 0xf]);
        } else {
            out.push_back(c);
        }
    }
    return out;
}

namespace {

/** Position just past the first `"key":` in text; throws when absent. */
std::size_t
valuePos(const std::string &text, const std::string &key,
         const std::string &context)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = text.find(needle);
    if (pos == std::string::npos)
        throw std::runtime_error(context + ": missing key '" + key + "'");
    return pos + needle.size();
}

} // namespace

double
doubleField(const std::string &text, const std::string &key,
            const std::string &context)
{
    const std::size_t pos = valuePos(text, key, context);
    double value = 0.0;
    const char *begin = text.data() + pos;
    const auto res =
        std::from_chars(begin, text.data() + text.size(), value);
    if (res.ec != std::errc{})
        throw std::runtime_error(context + ": bad number for '" + key +
                                 "'");
    return value;
}

std::uint64_t
uintField(const std::string &text, const std::string &key,
          const std::string &context)
{
    const std::size_t pos = valuePos(text, key, context);
    std::uint64_t value = 0;
    const char *begin = text.data() + pos;
    const auto res =
        std::from_chars(begin, text.data() + text.size(), value);
    if (res.ec != std::errc{})
        throw std::runtime_error(context + ": bad integer for '" + key +
                                 "'");
    return value;
}

namespace {

/**
 * Decode the string literal whose opening quote is text[pos], undoing
 * exactly the escapes escape() writes, and leave pos just past its
 * closing quote. Throws unless the literal is closed.
 */
std::string
decodeString(const std::string &text, std::size_t &pos,
             const std::string &key, const std::string &context)
{
    const auto bad = [&](const char *what) {
        return std::runtime_error(context + ": " + what + " for '" + key +
                                  "'");
    };
    if (pos >= text.size() || text[pos] != '"')
        throw bad("bad string");
    std::string out;
    for (++pos; pos < text.size() && text[pos] != '"'; ++pos) {
        char c = text[pos];
        if (c == '\\') {
            if (++pos == text.size())
                break;
            c = text[pos];
            if (c == 'n') {
                c = '\n';
            } else if (c == 'r') {
                c = '\r';
            } else if (c == 't') {
                c = '\t';
            } else if (c == 'u') {
                // escape() writes \u00XX only for bytes below 0x20.
                if (text.size() - pos < 5)
                    throw bad("unterminated string");
                unsigned value = 0;
                const char *digits = text.data() + pos + 1;
                const auto res =
                    std::from_chars(digits, digits + 4, value, 16);
                if (res.ec != std::errc{} || res.ptr != digits + 4 ||
                    value >= 0x20)
                    throw bad("bad \\u escape");
                c = static_cast<char>(value);
                pos += 4;
            } else if (c != '"' && c != '\\') {
                throw bad("bad escape");
            }
        }
        out.push_back(c);
    }
    if (pos >= text.size())
        throw bad("unterminated string");
    ++pos;
    return out;
}

/** A from_chars-parsable number at text[pos]; pos moves past it. */
template <typename T>
T
decodeNumber(const std::string &text, std::size_t &pos,
             const std::string &key, const std::string &context)
{
    T value{};
    const auto res = std::from_chars(text.data() + pos,
                                     text.data() + text.size(), value);
    if (res.ec != std::errc{})
        throw std::runtime_error(context + ": bad array entry for '" + key +
                                 "'");
    pos = static_cast<std::size_t>(res.ptr - text.data());
    return value;
}

/** `[v,v,...]` of `decode`d entries; throws unless closed. */
template <typename T, typename Decode>
std::vector<T>
arrayField(const std::string &text, const std::string &key,
           const std::string &context, Decode decode)
{
    std::size_t pos = valuePos(text, key, context);
    if (pos >= text.size() || text[pos] != '[')
        throw std::runtime_error(context + ": bad array for '" + key +
                                 "'");
    ++pos;
    std::vector<T> out;
    while (pos < text.size() && text[pos] != ']') {
        out.push_back(decode(text, pos, key, context));
        if (pos < text.size() && text[pos] == ',')
            ++pos;
    }
    if (pos >= text.size())
        throw std::runtime_error(context + ": unterminated array for '" +
                                 key + "'");
    return out;
}

} // namespace

std::string
stringField(const std::string &text, const std::string &key,
            const std::string &context)
{
    std::size_t pos = valuePos(text, key, context);
    return decodeString(text, pos, key, context);
}

std::vector<double>
doubleArrayField(const std::string &text, const std::string &key,
                 const std::string &context)
{
    return arrayField<double>(text, key, context, decodeNumber<double>);
}

std::vector<std::uint64_t>
uintArrayField(const std::string &text, const std::string &key,
               const std::string &context)
{
    return arrayField<std::uint64_t>(text, key, context,
                                     decodeNumber<std::uint64_t>);
}

} // namespace jsonio
} // namespace archgym
