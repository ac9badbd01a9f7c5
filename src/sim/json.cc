/**
 * @file
 * Implementation of the JSON emission helpers.
 */

#include "sim/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "sim/logging.hh"

namespace oscar
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    // JSON has no NaN/Inf; clamp to null-ish zero rather than emit an
    // invalid document.
    if (!std::isfinite(value))
        return "0";
    // std::to_chars is locale-independent and emits the shortest
    // representation that round-trips, so documents are byte-stable no
    // matter what LC_NUMERIC the host process runs under (snprintf
    // "%.17g" would localize the decimal point).
    char buf[64];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::general);
    oscar_assert(res.ec == std::errc());
    return std::string(buf, res.ptr);
}

ArtifactFile::ArtifactFile(const std::string &path)
    : file(std::fopen(path.c_str(), "wb")), good(file != nullptr)
{
    if (good)
        std::setvbuf(file, nullptr, _IONBF, 0);
}

void
ArtifactFile::write(const std::string &bytes)
{
    good = good && std::fwrite(bytes.data(), 1, bytes.size(), file) ==
                       bytes.size();
}

bool
ArtifactFile::close()
{
    if (file != nullptr)
        good = std::fclose(file) == 0 && good;
    file = nullptr;
    return good;
}

bool
writeArtifactFile(const std::string &path, const std::string &doc)
{
    ArtifactFile out(path);
    out.write(doc);
    return out.close();
}

void
JsonWriter::beforeValue()
{
    if (stack.empty()) {
        oscar_assert(out.empty());
        return;
    }
    if (stack.back() == Scope::Object) {
        oscar_assert(keyPending);
        keyPending = false;
        return;
    }
    if (hasElement.back())
        out += ',';
    hasElement.back() = true;
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    out += '{';
    stack.push_back(Scope::Object);
    hasElement.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    oscar_assert(!stack.empty() && stack.back() == Scope::Object);
    oscar_assert(!keyPending);
    out += '}';
    stack.pop_back();
    hasElement.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    out += '[';
    stack.push_back(Scope::Array);
    hasElement.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    oscar_assert(!stack.empty() && stack.back() == Scope::Array);
    out += ']';
    stack.pop_back();
    hasElement.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    oscar_assert(!stack.empty() && stack.back() == Scope::Object);
    oscar_assert(!keyPending);
    if (hasElement.back())
        out += ',';
    hasElement.back() = true;
    out += '"';
    out += jsonEscape(name);
    out += "\":";
    keyPending = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &text)
{
    beforeValue();
    out += '"';
    out += jsonEscape(text);
    out += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    return value(std::string(text));
}

JsonWriter &
JsonWriter::value(double number)
{
    beforeValue();
    out += jsonNumber(number);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t number)
{
    beforeValue();
    out += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t number)
{
    beforeValue();
    out += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(unsigned number)
{
    return value(static_cast<std::uint64_t>(number));
}

JsonWriter &
JsonWriter::value(int number)
{
    return value(static_cast<std::int64_t>(number));
}

JsonWriter &
JsonWriter::value(bool flag)
{
    beforeValue();
    out += flag ? "true" : "false";
    return *this;
}

} // namespace oscar
