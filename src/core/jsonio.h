/**
 * @file
 * Minimal JSON rendering/scanning helpers shared by the on-disk
 * metadata writers (sweep manifest and result lines, quarantine
 * ledger, leases, proxy screen record, stack-distance CDF).
 *
 * These are deliberately NOT a general JSON library: the renderers
 * emit exactly the subset the readers accept, and the readers only
 * accept what this codebase itself writes — anything else throws
 * std::runtime_error naming the context and key. Doubles render in
 * shortest round-trip form (std::to_chars), so a JSON round trip is
 * value-exact.
 */

#ifndef ARCHGYM_CORE_JSONIO_H
#define ARCHGYM_CORE_JSONIO_H

#include <cstdint>
#include <string>
#include <vector>

namespace archgym {
namespace jsonio {

/** Append the shortest round-trip rendering of v (from_chars-exact). */
void appendDouble(std::string &out, double v);

/**
 * JSON string escaping for names, hyperparam strings and error texts:
 * `"` and `\\` gain a backslash; newline, carriage return and tab become
 * `\\n`, `\\r` and `\\t`; every other byte below 0x20 becomes `\\u00XX`.
 * A rendered line therefore never holds a raw newline, which the
 * line-framed formats (shard results, partial files, the quarantine
 * ledger) rely on. Other bytes, UTF-8 included, pass through.
 */
std::string escape(const std::string &s);

/*
 * Field readers: each finds the first `"key":` in one of our own JSON
 * documents and decodes the value after it, throwing
 * std::runtime_error naming the context and key when the key is absent
 * or the value is malformed or unterminated.
 */

double doubleField(const std::string &text, const std::string &key,
                   const std::string &context);

std::uint64_t uintField(const std::string &text, const std::string &key,
                        const std::string &context);

/** A string value, with the escapes escape() writes decoded. */
std::string stringField(const std::string &text, const std::string &key,
                        const std::string &context);

std::vector<double> doubleArrayField(const std::string &text,
                                     const std::string &key,
                                     const std::string &context);

std::vector<std::uint64_t> uintArrayField(const std::string &text,
                                          const std::string &key,
                                          const std::string &context);

} // namespace jsonio
} // namespace archgym

#endif // ARCHGYM_CORE_JSONIO_H
