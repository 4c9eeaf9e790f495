/**
 * @file
 * Status/error reporting helpers in the gem5 tradition.
 *
 * panic() is for internal invariant violations (throws PanicError so tests
 * can assert on it); fatal() is for unrecoverable user/configuration errors;
 * warn()/inform() emit status lines without stopping the simulation.
 *
 * Routing is instance-safe: a run installs a LogScope on its thread and
 * every message emitted by simulator code on that thread goes to the
 * scope's Log sink. Concurrent runs on different threads therefore keep
 * independent sinks — nothing is shared. A thread without a scope logs
 * to stderr; there is no process-wide quiet state.
 */

#pragma once

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

namespace safemem {

/** Exception thrown by panic(); models the simulated kernel going down. */
class PanicError : public std::runtime_error
{
  public:
    explicit PanicError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Exception thrown by fatal(); an unrecoverable configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Severity used by the log sink. */
enum class LogLevel { Inform, Warn, Panic, Fatal };

/** @return the printable tag for @p level ("info", "warn", ...). */
const char *logLevelTag(LogLevel level);

/**
 * A per-run log sink. A default-constructed Log formats to stderr; a
 * custom sink receives every message; Log::quiet() drops everything
 * (panic/fatal text still reaches the caller inside the thrown
 * exception). Log objects are immutable after construction, so one Log
 * may serve many runs — but a *custom sink* invoked from several
 * threads at once must synchronise internally.
 */
class Log
{
  public:
    using Sink = std::function<void(LogLevel, const std::string &)>;

    /** stderr default. */
    Log() = default;

    /** Route every message to @p sink. */
    explicit Log(Sink sink) : sink_(std::move(sink)), silent_(false) {}

    /** @return a sink that discards all messages. */
    static Log
    quiet()
    {
        Log log;
        log.silent_ = true;
        return log;
    }

    /** Deliver one message to this sink. */
    void message(LogLevel level, const std::string &msg) const;

  private:
    Sink sink_;           ///< empty: use the stderr default
    bool silent_ = false; ///< quiet(): drop everything
};

/**
 * RAII: route this *thread's* logMessage() traffic to @p log for the
 * scope's lifetime. Scopes nest (the previous target is restored) and
 * are strictly thread-local: other threads are unaffected, which is
 * what lets concurrent runs keep independent sinks.
 */
class LogScope
{
  public:
    explicit LogScope(const Log &log);
    ~LogScope();

    LogScope(const LogScope &) = delete;
    LogScope &operator=(const LogScope &) = delete;

  private:
    const Log *previous_;
};

/**
 * @return the Log installed by this thread's innermost LogScope, or null
 * when none is (messages then go to stderr). parallelFor workers and
 * runConsolidated's process threads install the caller's sink through
 * this, so parallel workers share the caller's sink: a custom sink must
 * then synchronise internally, as Log requires.
 */
const Log *currentLog();

/**
 * Route a formatted message to the current thread's LogScope sink, or
 * to stderr when no scope is installed.
 *
 * @param level  Severity tag prepended to the line.
 * @param msg    Fully formatted message body.
 */
void logMessage(LogLevel level, const std::string &msg);

namespace detail {

inline void
appendAll(std::ostringstream &)
{}

template <typename T, typename... Rest>
void
appendAll(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    appendAll(os, rest...);
}

template <typename... Args>
std::string
format(const Args &...args)
{
    std::ostringstream os;
    appendAll(os, args...);
    return os.str();
}

} // namespace detail

/** Report an internal invariant violation and unwind via PanicError. */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    std::string msg = detail::format(args...);
    logMessage(LogLevel::Panic, msg);
    throw PanicError(msg);
}

/** Report an unrecoverable user error and unwind via FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    std::string msg = detail::format(args...);
    logMessage(LogLevel::Fatal, msg);
    throw FatalError(msg);
}

/** Emit a non-fatal warning. */
template <typename... Args>
void
warn(const Args &...args)
{
    logMessage(LogLevel::Warn, detail::format(args...));
}

/** Emit an informational status line. */
template <typename... Args>
void
inform(const Args &...args)
{
    logMessage(LogLevel::Inform, detail::format(args...));
}

} // namespace safemem
