// Minimal leveled logging. The threshold is fixed at kWarning (logging.cc) and
// nothing changes it: warnings and errors always print to stderr, and Debug and
// Info lines never do. Not thread-safe by design: the whole simulator is
// single-threaded and deterministic.
#ifndef OFC_COMMON_LOGGING_H_
#define OFC_COMMON_LOGGING_H_

#include <functional>
#include <sstream>
#include <string>

namespace ofc {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

// Global threshold; messages below it are discarded.
LogLevel GetLogLevel();

// Optional prefix hook, prepended to every log line. The experiment harnesses
// install one that renders the simulated clock (e.g. "t=12.345s"), so log
// output lines up with metric snapshots and trace timestamps. The installer
// must clear the hook before anything it captures is destroyed.
void SetLogPrefixHook(std::function<std::string()> hook);
void ClearLogPrefixHook();

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Swallows the streamed expression when the level is disabled.
struct LogVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace ofc

#define OFC_LOG(level)                                                      \
  (static_cast<int>(::ofc::LogLevel::k##level) <                            \
   static_cast<int>(::ofc::GetLogLevel()))                                  \
      ? (void)0                                                             \
      : ::ofc::internal::LogVoidify() &                                     \
            ::ofc::internal::LogMessage(::ofc::LogLevel::k##level, __FILE__, __LINE__).stream()

#endif  // OFC_COMMON_LOGGING_H_
