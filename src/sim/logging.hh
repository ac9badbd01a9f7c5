/**
 * @file
 * Error and status reporting in the gem5 tradition.
 *
 * panic()  - an internal invariant was violated (simulator bug); aborts.
 * fatal()  - the user asked for something impossible (bad config); exits.
 * warn()   - functionality is approximated; simulation continues.
 * inform() - neutral status messages.
 */

#ifndef OSCAR_SIM_LOGGING_HH_
#define OSCAR_SIM_LOGGING_HH_

#include <cstdarg>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace oscar
{

/**
 * Thrown instead of exiting when a fatal() fires inside a
 * ScopedFatalThrows region — lets harnesses (the parallel sweep
 * runner, tests) isolate one failing configuration without taking the
 * whole process down. panic() still aborts unconditionally: it means
 * the simulator itself is broken.
 */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * RAII guard: while alive, oscar_fatal on the *current thread* throws
 * FatalError instead of calling std::exit(1). Nests safely.
 */
class ScopedFatalThrows
{
  public:
    ScopedFatalThrows();
    ~ScopedFatalThrows();

    ScopedFatalThrows(const ScopedFatalThrows &) = delete;
    ScopedFatalThrows &operator=(const ScopedFatalThrows &) = delete;

  private:
    bool previous;
};

/** Severity attached to a log record. */
enum class LogLevel
{
    Inform,
    Warn,
    Fatal,
    Panic,
};

namespace detail
{

/** Format and emit one log record; terminates for Fatal/Panic. */
[[noreturn]] void logAndTerminate(LogLevel level, const char *file,
                                  int line, const char *fmt, ...);

/** Format and emit a non-terminating log record. */
void logMessage(LogLevel level, const char *file, int line,
                const char *fmt, ...);

} // namespace detail

/**
 * Redirect warn()/inform() output capture for tests.
 *
 * @param sink Pointer to a string that accumulates messages, or nullptr
 *             to restore stderr output.
 */
void setLogCapture(std::string *sink);

/** Number of warn() records emitted since the last reset. */
std::uint64_t warnCount();

/** Number of inform() records emitted since the last reset. */
std::uint64_t informCount();

/**
 * Zero warnCount()/informCount() — lets tests assert "this call warns
 * exactly once" without depending on what ran before them.
 */
void resetLogCounts();

} // namespace oscar

/** Abort: an invariant the simulator itself guarantees was violated. */
#define oscar_panic(...)                                                    \
    ::oscar::detail::logAndTerminate(::oscar::LogLevel::Panic, __FILE__,    \
                                     __LINE__, __VA_ARGS__)

/** Exit(1): the simulation cannot continue due to user error. */
#define oscar_fatal(...)                                                    \
    ::oscar::detail::logAndTerminate(::oscar::LogLevel::Fatal, __FILE__,    \
                                     __LINE__, __VA_ARGS__)

/** Non-fatal notice that behaviour is approximated. */
#define oscar_warn(...)                                                     \
    ::oscar::detail::logMessage(::oscar::LogLevel::Warn, __FILE__,          \
                                __LINE__, __VA_ARGS__)

/** Neutral status message. */
#define oscar_inform(...)                                                   \
    ::oscar::detail::logMessage(::oscar::LogLevel::Inform, __FILE__,        \
                                __LINE__, __VA_ARGS__)

/** Checked invariant; always active (not compiled out in release). */
#define oscar_assert(cond)                                                  \
    do {                                                                    \
        if (!(cond)) {                                                      \
            oscar_panic("assertion failed: %s", #cond);                     \
        }                                                                   \
    } while (0)

#endif // OSCAR_SIM_LOGGING_HH_
