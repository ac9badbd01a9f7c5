/**
 * @file
 * Minimal JSON emission for machine-readable experiment artifacts.
 *
 * The bench binaries historically printed plain-text tables only;
 * JsonWriter lets them also serialize per-point sweep results to disk
 * without pulling in an external JSON dependency. Output is
 * deterministic: keys are emitted in call order and doubles use a
 * fixed round-trippable format, so identical results serialize to
 * identical bytes (the property the sweep determinism tests check).
 */

#ifndef OSCAR_SIM_JSON_HH_
#define OSCAR_SIM_JSON_HH_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace oscar
{

/** Escape a string for embedding in a JSON document (no quotes). */
std::string jsonEscape(const std::string &text);

/** Format a double the way JSON expects (round-trippable, finite). */
std::string jsonNumber(double value);

/**
 * The one write path of every artifact file, unbuffered stdio. ok()
 * turns false at the first failed open, short write or close; the
 * owner checks it and reports the failure, once.
 */
class ArtifactFile
{
  public:
    explicit ArtifactFile(const std::string &path);
    ~ArtifactFile() { close(); }

    ArtifactFile(const ArtifactFile &) = delete;
    ArtifactFile &operator=(const ArtifactFile &) = delete;

    bool ok() const { return good; }
    /** Append `bytes`; does nothing once ok() is false. */
    void write(const std::string &bytes);
    /** Close the file (once) and return ok(). */
    bool close();

  private:
    std::FILE *file;
    bool good;
};

/**
 * Write an artifact document to `path`, replacing the file. Returns
 * false when the file cannot be opened, is written short or fails to
 * close; the caller reports the failure, once.
 */
bool writeArtifactFile(const std::string &path, const std::string &doc);

/**
 * Incremental JSON document builder.
 *
 * Usage:
 *   JsonWriter w;
 *   w.beginObject();
 *   w.key("points"); w.beginArray(); ... w.endArray();
 *   w.endObject();
 *   std::string doc = w.str();
 *
 * The writer tracks nesting and inserts commas; it panics on
 * structural misuse (closing the wrong scope, value without key in an
 * object) since that is a harness bug.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be followed by a value or scope. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &text);
    JsonWriter &value(const char *text);
    JsonWriter &value(double number);
    JsonWriter &value(std::uint64_t number);
    JsonWriter &value(std::int64_t number);
    JsonWriter &value(unsigned number);
    JsonWriter &value(int number);
    JsonWriter &value(bool flag);

    /** Shorthand: key(name) followed by value(v). */
    template <typename T>
    JsonWriter &
    field(const std::string &name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** The document so far; complete once all scopes are closed. */
    const std::string &str() const { return out; }

    /** True when every opened scope has been closed. */
    bool complete() const { return stack.empty() && !out.empty(); }

  private:
    enum class Scope : std::uint8_t
    {
        Object,
        Array,
    };

    /** Comma/validity bookkeeping before emitting a value or scope. */
    void beforeValue();

    std::string out;
    std::vector<Scope> stack;
    /** Whether the current scope already holds at least one element. */
    std::vector<bool> hasElement;
    bool keyPending = false;
};

} // namespace oscar

#endif // OSCAR_SIM_JSON_HH_
