#include "common/logging.h"

#include <cstdio>

namespace safemem {

namespace {

// The active sink of *this* thread, installed by LogScope. thread_local
// keeps concurrent runs' sinks independent without any locking.
thread_local const Log *t_threadLog = nullptr;

} // namespace

const char *
logLevelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Inform: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Panic: return "panic";
      case LogLevel::Fatal: return "fatal";
    }
    return "?";
}

void
Log::message(LogLevel level, const std::string &msg) const
{
    if (silent_)
        return;
    if (sink_) {
        sink_(level, msg);
        return;
    }
    std::fprintf(stderr, "[%s] %s\n", logLevelTag(level), msg.c_str());
}

LogScope::LogScope(const Log &log)
    : previous_(t_threadLog)
{
    t_threadLog = &log;
}

LogScope::~LogScope()
{
    t_threadLog = previous_;
}

const Log *
currentLog()
{
    return t_threadLog;
}

void
logMessage(LogLevel level, const std::string &msg)
{
    if (t_threadLog)
        t_threadLog->message(level, msg);
    else
        Log().message(level, msg);
}

} // namespace safemem
