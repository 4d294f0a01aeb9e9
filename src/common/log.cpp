#include "src/common/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace hcrl::common {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::atomic<unsigned> g_next_thread_index{0};
std::mutex g_write_mutex;

// One tag per thread; empty means "not yet assigned".
thread_local std::string t_tag;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    default: return "?????";
  }
}

const std::string& tag_for_this_thread() {
  if (t_tag.empty()) {
    const unsigned idx = g_next_thread_index.fetch_add(1, std::memory_order_relaxed);
    // Move-assign a freshly built string: direct char* assignment into the
    // thread_local trips a GCC 12 -Wrestrict false positive.
    t_tag = idx == 0 ? std::string("main") : std::string("t").append(std::to_string(idx));
  }
  return t_tag;
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }
LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void set_log_thread_tag(const std::string& tag) { t_tag = tag.empty() ? "?" : tag; }

void log_message(LogLevel level, const std::string& msg) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  const std::string& tag = tag_for_this_thread();
  std::lock_guard<std::mutex> lock(g_write_mutex);
  std::fprintf(stderr, "[%s][%s] %s\n", level_name(level), tag.c_str(), msg.c_str());
}

}  // namespace hcrl::common
