#include "src/common/logging.h"

#include <cstdio>
#include <cstring>

namespace ofc {

namespace {
constexpr LogLevel kLevel = LogLevel::kWarning;
std::function<std::string()> g_prefix_hook;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kOff:
      return "?";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() { return kLevel; }

void SetLogPrefixHook(std::function<std::string()> hook) { g_prefix_hook = std::move(hook); }
void ClearLogPrefixHook() { g_prefix_hook = nullptr; }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  const char* base = std::strrchr(file, '/');
  stream_ << "[" << LevelName(level) << " ";
  if (g_prefix_hook) {
    stream_ << g_prefix_hook() << " ";
  }
  stream_ << (base ? base + 1 : file) << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  const std::string text = stream_.str();
  std::fprintf(stderr, "%s\n", text.c_str());
  (void)level_;
}

}  // namespace internal
}  // namespace ofc
