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
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::size_t
valuePos(const std::string &text, const std::string &key,
         const std::string &context, std::size_t from)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = text.find(needle, from);
    if (pos == std::string::npos)
        throw std::runtime_error(context + ": missing key '" + key + "'");
    return pos + needle.size();
}

double
doubleField(const std::string &text, const std::string &key,
            const std::string &context, std::size_t from)
{
    const std::size_t pos = valuePos(text, key, context, from);
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
          const std::string &context, std::size_t from)
{
    const std::size_t pos = valuePos(text, key, context, from);
    std::uint64_t value = 0;
    const char *begin = text.data() + pos;
    const auto res =
        std::from_chars(begin, text.data() + text.size(), value);
    if (res.ec != std::errc{})
        throw std::runtime_error(context + ": bad integer for '" + key +
                                 "'");
    return value;
}

std::string
stringField(const std::string &text, const std::string &key,
            const std::string &context, std::size_t from)
{
    std::size_t pos = valuePos(text, key, context, from);
    if (pos >= text.size() || text[pos] != '"')
        throw std::runtime_error(context + ": bad string for '" + key +
                                 "'");
    ++pos;
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
        if (text[pos] == '\\' && pos + 1 < text.size())
            ++pos;
        out.push_back(text[pos++]);
    }
    if (pos >= text.size())
        throw std::runtime_error(context + ": unterminated string for '" +
                                 key + "'");
    return out;
}

namespace {

/** `[v,v,...]` of from_chars-parsable numbers; throws unless closed. */
template <typename T>
std::vector<T>
arrayField(const std::string &text, const std::string &key,
           const std::string &context, std::size_t from)
{
    std::size_t pos = valuePos(text, key, context, from);
    if (pos >= text.size() || text[pos] != '[')
        throw std::runtime_error(context + ": bad array for '" + key +
                                 "'");
    ++pos;
    std::vector<T> out;
    while (pos < text.size() && text[pos] != ']') {
        T value{};
        const auto res = std::from_chars(text.data() + pos,
                                         text.data() + text.size(), value);
        if (res.ec != std::errc{})
            throw std::runtime_error(context + ": bad array entry for '" +
                                     key + "'");
        out.push_back(value);
        pos = static_cast<std::size_t>(res.ptr - text.data());
        if (pos < text.size() && text[pos] == ',')
            ++pos;
    }
    if (pos >= text.size())
        throw std::runtime_error(context + ": unterminated array for '" +
                                 key + "'");
    return out;
}

} // namespace

std::vector<double>
doubleArrayField(const std::string &text, const std::string &key,
                 const std::string &context, std::size_t from)
{
    return arrayField<double>(text, key, context, from);
}

std::vector<std::uint64_t>
uintArrayField(const std::string &text, const std::string &key,
               const std::string &context, std::size_t from)
{
    return arrayField<std::uint64_t>(text, key, context, from);
}

} // namespace jsonio
} // namespace archgym
