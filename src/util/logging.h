#ifndef SSJOIN_UTIL_LOGGING_H_
#define SSJOIN_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace ssjoin {
namespace internal_logging {

enum class LogLevel { kDebug = 0, kInfo, kWarning, kError, kFatal };

/// Minimum level that is emitted; defaults to kInfo. Set by the
/// SSJOIN_LOG_LEVEL environment variable (0=debug .. 4=fatal), read once
/// at first use.
LogLevel MinLogLevel();

/// Stream-style log sink. Emits on destruction; aborts after emitting a
/// kFatal message.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the level is below the minimum.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal_logging
}  // namespace ssjoin

#define SSJOIN_LOG_AT(level)                                                 \
  (::ssjoin::internal_logging::MinLogLevel() > (level))                      \
      ? (void)0                                                              \
      : (void)(::ssjoin::internal_logging::LogMessage((level), __FILE__,     \
                                                      __LINE__)             \
                   .stream())

#define SSJOIN_LOG_DEBUG                                                    \
  ::ssjoin::internal_logging::LogMessage(                                   \
      ::ssjoin::internal_logging::LogLevel::kDebug, __FILE__, __LINE__)     \
      .stream()
#define SSJOIN_LOG_INFO                                                     \
  ::ssjoin::internal_logging::LogMessage(                                   \
      ::ssjoin::internal_logging::LogLevel::kInfo, __FILE__, __LINE__)      \
      .stream()
#define SSJOIN_LOG_WARNING                                                  \
  ::ssjoin::internal_logging::LogMessage(                                   \
      ::ssjoin::internal_logging::LogLevel::kWarning, __FILE__, __LINE__)   \
      .stream()
#define SSJOIN_LOG_ERROR                                                    \
  ::ssjoin::internal_logging::LogMessage(                                   \
      ::ssjoin::internal_logging::LogLevel::kError, __FILE__, __LINE__)     \
      .stream()
#define SSJOIN_LOG_FATAL                                                    \
  ::ssjoin::internal_logging::LogMessage(                                   \
      ::ssjoin::internal_logging::LogLevel::kFatal, __FILE__, __LINE__)     \
      .stream()

/// Always-on invariant check; aborts with a message on failure.
#define SSJOIN_CHECK(cond)                                       \
  while (!(cond)) SSJOIN_LOG_FATAL << "Check failed: " #cond " "

/// Debug-only invariant check.
#ifdef NDEBUG
#define SSJOIN_DCHECK(cond) \
  while (false && !(cond)) ::ssjoin::internal_logging::NullStream()
#else
#define SSJOIN_DCHECK(cond) SSJOIN_CHECK(cond)
#endif

#endif  // SSJOIN_UTIL_LOGGING_H_
