/**
 * @file
 * Strict scanner shared by the JSONL artifact readers
 * (sim/metrics_reader.cc, sim/span_reader.cc).
 *
 * The scanner is deliberately strict: it accepts exactly the byte
 * layout the writers produce (keys in writer order, no whitespace, no
 * string escapes). Anything else is a parse error — which is what the
 * validation tests and the CI schema checks want.
 */

#ifndef OSCAR_SIM_JSONL_SCAN_HH_
#define OSCAR_SIM_JSONL_SCAN_HH_

#include <charconv>
#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>

namespace oscar::jsonl
{

/** Advance past `token` or fail. */
inline bool
expect(std::string_view text, std::size_t &pos, std::string_view token)
{
    if (text.substr(pos, token.size()) != token)
        return false;
    pos += token.size();
    return true;
}

/** Parse a quoted string (writer strings never contain escapes). */
inline bool
parseString(std::string_view text, std::size_t &pos, std::string &out)
{
    if (pos >= text.size() || text[pos] != '"')
        return false;
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string_view::npos)
        return false;
    out.assign(text.substr(pos + 1, end - pos - 1));
    pos = end + 1;
    return true;
}

/**
 * Parse a number of type T (an integer or double). Fails on a value
 * out of T's range, so a 32-bit field rejects anything above 2^32 - 1.
 */
template <typename T>
bool
parseNumber(std::string_view text, std::size_t &pos, T &out)
{
    const char *begin = text.data() + pos;
    const char *end = text.data() + text.size();
    const auto res = std::from_chars(begin, end, out);
    if (res.ec != std::errc{} || res.ptr == begin)
        return false;
    pos += static_cast<std::size_t>(res.ptr - begin);
    return true;
}

/** Skip a balanced `{...}` object (string-aware, escape-free). */
inline bool
skipObject(std::string_view text, std::size_t &pos)
{
    if (pos >= text.size() || text[pos] != '{')
        return false;
    int depth = 0;
    bool in_string = false;
    for (; pos < text.size(); ++pos) {
        const char c = text[pos];
        if (in_string) {
            if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{') {
            ++depth;
        } else if (c == '}') {
            if (--depth == 0) {
                ++pos;
                return true;
            }
        }
    }
    return false;
}

/** Read the whole file at `path` into `text`; false if it cannot open. */
inline bool
readFile(const std::string &path, std::string &text)
{
    std::FILE *handle = std::fopen(path.c_str(), "rb");
    if (handle == nullptr)
        return false;
    char buffer[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof(buffer), handle)) > 0)
        text.append(buffer, got);
    std::fclose(handle);
    return true;
}

/**
 * Walk a JSONL document line by line, skipping empty lines. The first
 * line goes to `meta(line)`, which returns whether it parsed; every
 * later line goes to `row(line)`, which returns nullptr on success or
 * what is wrong with the line. Returns the empty string when the whole
 * document scanned, else the error the readers report.
 */
template <typename MetaFn, typename RowFn>
std::string
scanDocument(std::string_view text, MetaFn &&meta, RowFn &&row)
{
    std::size_t line_start = 0;
    std::size_t line_no = 0;
    bool have_meta = false;
    while (line_start < text.size()) {
        std::size_t line_end = text.find('\n', line_start);
        if (line_end == std::string_view::npos)
            line_end = text.size();
        const std::string_view line =
            text.substr(line_start, line_end - line_start);
        line_start = line_end + 1;
        ++line_no;
        if (line.empty())
            continue;
        if (!have_meta) {
            if (!meta(line))
                return "line 1: malformed meta line";
            have_meta = true;
            continue;
        }
        if (const char *error = row(line))
            return "line " + std::to_string(line_no) + ": " + error;
    }
    return have_meta ? std::string() : std::string("empty document");
}

} // namespace oscar::jsonl

#endif // OSCAR_SIM_JSONL_SCAN_HH_
