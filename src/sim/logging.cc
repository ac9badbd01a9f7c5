/**
 * @file
 * Implementation of the logging helpers.
 */

#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <cstdarg>
#include <atomic>
#include <mutex>

namespace oscar
{

namespace
{

std::string *captureSink = nullptr;
/** Serializes appends to the capture sink across sweep workers. */
std::mutex captureMutex;
std::atomic<std::uint64_t> warnCounter{0};
std::atomic<std::uint64_t> informCounter{0};
thread_local bool fatalThrows = false;

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Inform: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Fatal: return "fatal";
      case LogLevel::Panic: return "panic";
    }
    return "?";
}

/** Render one record and route it to the capture sink or stderr. */
void
emit(LogLevel level, const char *file, int line, const char *fmt,
     va_list args)
{
    char body[1024];
    std::vsnprintf(body, sizeof(body), fmt, args);

    char record[1200];
    if (level == LogLevel::Fatal || level == LogLevel::Panic) {
        std::snprintf(record, sizeof(record), "%s: %s (%s:%d)\n",
                      levelName(level), body, file, line);
    } else {
        std::snprintf(record, sizeof(record), "%s: %s\n",
                      levelName(level), body);
    }

    if (level == LogLevel::Warn)
        warnCounter.fetch_add(1, std::memory_order_relaxed);
    else if (level == LogLevel::Inform)
        informCounter.fetch_add(1, std::memory_order_relaxed);

    std::lock_guard<std::mutex> lock(captureMutex);
    if (captureSink != nullptr) {
        captureSink->append(record);
    } else {
        std::fputs(record, stderr);
    }
}

/** Render one record to a string (for FatalError payloads). */
std::string
renderBody(const char *fmt, va_list args)
{
    char body[1024];
    std::vsnprintf(body, sizeof(body), fmt, args);
    return body;
}

} // namespace

namespace detail
{

void
logAndTerminate(LogLevel level, const char *file, int line,
                const char *fmt, ...)
{
    if (level == LogLevel::Fatal && fatalThrows) {
        va_list args;
        va_start(args, fmt);
        std::string body = renderBody(fmt, args);
        va_end(args);
        throw FatalError(body);
    }

    va_list args;
    va_start(args, fmt);
    emit(level, file, line, fmt, args);
    va_end(args);
    if (level == LogLevel::Panic)
        std::abort();
    std::exit(1);
}

void
logMessage(LogLevel level, const char *file, int line, const char *fmt,
           ...)
{
    va_list args;
    va_start(args, fmt);
    emit(level, file, line, fmt, args);
    va_end(args);
}

} // namespace detail

void
setLogCapture(std::string *sink)
{
    std::lock_guard<std::mutex> lock(captureMutex);
    captureSink = sink;
}

ScopedFatalThrows::ScopedFatalThrows()
    : previous(fatalThrows)
{
    fatalThrows = true;
}

ScopedFatalThrows::~ScopedFatalThrows()
{
    fatalThrows = previous;
}

std::uint64_t
warnCount()
{
    return warnCounter.load(std::memory_order_relaxed);
}

std::uint64_t
informCount()
{
    return informCounter.load(std::memory_order_relaxed);
}

void
resetLogCounts()
{
    warnCounter.store(0, std::memory_order_relaxed);
    informCounter.store(0, std::memory_order_relaxed);
}

} // namespace oscar
