#include "util/logging.h"

#include <cstdlib>

namespace ssjoin {
namespace internal_logging {
namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

}  // namespace

LogLevel MinLogLevel() {
  static const LogLevel level = [] {
    if (const char* env = std::getenv("SSJOIN_LOG_LEVEL")) {
      int v = std::atoi(env);
      if (v >= 0 && v <= 4) return static_cast<LogLevel>(v);
    }
    return LogLevel::kInfo;
  }();
  return level;
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= MinLogLevel()) {
    std::cerr << stream_.str() << std::endl;
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal_logging
}  // namespace ssjoin
